"""Oracle tests for the rewritten sketch and bit-accounting kernels.

The bodies of ``QDigest.compress`` / ``merge`` / ``count_distance`` /
``changed_entries``, ``LogLogSketch.merge``, ``bit_width`` and
``require_integer`` as they stood on commit ``4c02ed7`` live below, verbatim,
as reference functions.  The kernels in ``src/`` must equal them exactly on
random inputs — for the q-digest that includes the *insertion order* of
``counts``, which ``quantile``'s tie-breaking and every later merge can
observe.  The only intended difference is the padded-universe bugfix, tested
on its own at the end.
"""

from __future__ import annotations

import math
import numbers

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.bits import (
    bit_width,
    fixed_width_bits,
    signed_varint_bits,
    varint_bits,
)
from repro._util.validation import (
    require_integer,
    require_non_negative,
    require_positive,
)
from repro.exceptions import ConfigurationError
from repro.sketches.loglog import LogLogSketch
from repro.sketches.qdigest import QDigest, dyadic_levels

try:
    import numpy
except ImportError:  # the 3.10 tier-1 CI leg runs without numpy
    numpy = None

_settings = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------------- #
# Reference kernels: the parent commit's bodies, verbatim
# --------------------------------------------------------------------------- #
def reference_require_integer(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def reference_require_positive(value: object, name: str) -> int:
    as_int = reference_require_integer(value, name)
    if as_int <= 0:
        raise ConfigurationError(f"{name} must be positive, got {as_int}")
    return as_int


def reference_require_non_negative(value: object, name: str) -> int:
    as_int = reference_require_integer(value, name)
    if as_int < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {as_int}")
    return as_int


def reference_bit_width(value: int) -> int:
    reference_require_integer(value, "value")
    reference_require_non_negative(value, "value")
    return max(1, int(value).bit_length())


def reference_compress(self: QDigest) -> None:
    if self.total == 0:
        return
    threshold = self.total / self.compression
    for level in range(self._levels, 0, -1):
        start = 1 << level
        end = 1 << (level + 1)
        for node_id in [n for n in list(self.counts) if start <= n < end]:
            count = self.counts.get(node_id, 0)
            sibling = node_id ^ 1
            parent = node_id >> 1
            sibling_count = self.counts.get(sibling, 0)
            parent_count = self.counts.get(parent, 0)
            if count + sibling_count + parent_count < threshold:
                merged = count + sibling_count + parent_count
                self.counts.pop(node_id, None)
                self.counts.pop(sibling, None)
                if merged:
                    self.counts[parent] = merged
                else:
                    self.counts.pop(parent, None)


def reference_merge(self: QDigest, other: QDigest) -> QDigest:
    if other.universe_size != self.universe_size:
        raise ConfigurationError("cannot merge digests over different universes")
    merged = QDigest(
        universe_size=self.universe_size,
        compression=max(self.compression, other.compression),
    )
    merged.counts = dict(self.counts)
    for node_id, count in other.counts.items():
        merged.counts[node_id] = merged.counts.get(node_id, 0) + count
    merged.total = self.total + other.total
    reference_compress(merged)
    return merged


def reference_count_distance(self: QDigest, other: QDigest) -> int:
    if other.universe_size != self.universe_size:
        raise ConfigurationError("cannot compare digests over different universes")
    keys = set(self.counts) | set(other.counts)
    return sum(
        abs(self.counts.get(key, 0) - other.counts.get(key, 0)) for key in keys
    )


def reference_changed_entries(self: QDigest, other: QDigest) -> int:
    if other.universe_size != self.universe_size:
        raise ConfigurationError("cannot compare digests over different universes")
    keys = set(self.counts) | set(other.counts)
    return sum(
        1 for key in keys if self.counts.get(key, 0) != other.counts.get(key, 0)
    )


def reference_loglog_merge(self: LogLogSketch, other: LogLogSketch) -> LogLogSketch:
    if other.num_registers != self.num_registers:
        raise ValueError("cannot merge sketches with different register counts")
    if other.salt != self.salt:
        raise ValueError("cannot merge sketches built with different salts")
    merged = LogLogSketch(num_registers=self.num_registers, salt=self.salt)
    merged.registers = [max(a, b) for a, b in zip(self.registers, other.registers)]
    return merged


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
# Small universes make siblings and parents collide in almost every draw;
# large ones exercise the deep, sparse trees of the benchmark workloads.
universes = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=1 << 20),
)
compressions = st.integers(min_value=1, max_value=512)
# Mostly counts far below ``total / compression`` (they fold), some far above.
stored_counts = st.one_of(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=10**6),
)


@st.composite
def raw_digests(draw, universe: int | None = None) -> QDigest:
    """A digest with counts on arbitrary tree nodes, in arbitrary dict order."""
    if universe is None:
        universe = draw(universes)
    digest = QDigest(universe_size=universe, compression=draw(compressions))
    node_ids = st.integers(min_value=1, max_value=2 * digest._padded_universe - 1)
    entries = draw(st.lists(st.tuples(node_ids, stored_counts), max_size=60))
    digest.counts = dict(entries)
    digest.total = sum(digest.counts.values())
    return digest


@st.composite
def value_digests(draw, universe: int) -> QDigest:
    """A digest built the way the engine builds them: values in, compressed."""
    compression = draw(compressions)
    values = draw(
        st.lists(st.integers(min_value=0, max_value=universe - 1), max_size=40)
    )
    return QDigest.from_values(values, universe_size=universe, compression=compression)


def clone(digest: QDigest) -> QDigest:
    twin = QDigest(universe_size=digest.universe_size, compression=digest.compression)
    twin.counts = dict(digest.counts)
    twin.total = digest.total
    return twin


def assert_same_digest(actual: QDigest, expected: QDigest) -> None:
    assert list(actual.counts.items()) == list(expected.counts.items())
    assert actual.total == expected.total
    assert actual.universe_size == expected.universe_size
    assert actual.compression == expected.compression
    assert actual._levels == expected._levels
    assert actual._padded_universe == expected._padded_universe


# --------------------------------------------------------------------------- #
# q-digest kernels
# --------------------------------------------------------------------------- #
class TestQDigestKernels:
    @given(digest=raw_digests())
    @_settings
    def test_compress_equals_per_level_rescan(self, digest):
        expected = clone(digest)
        reference_compress(expected)
        digest.compress()
        assert_same_digest(digest, expected)

    @given(data=st.data(), universe=universes)
    @_settings
    def test_compress_ignores_ids_outside_the_tree(self, data, universe):
        digest = data.draw(raw_digests(universe))
        beyond = 2 * digest._padded_universe
        digest.counts.update({0: 1, 1: 2, beyond: 1, beyond + 3: 1, -6: 1})
        digest.total = sum(digest.counts.values())
        expected = clone(digest)
        reference_compress(expected)
        digest.compress()
        assert_same_digest(digest, expected)

    @given(data=st.data(), universe=universes)
    @_settings
    def test_merges_of_merges_equal_reference(self, data, universe):
        leaves = data.draw(
            st.lists(
                st.one_of(value_digests(universe), raw_digests(universe)),
                min_size=2,
                max_size=6,
            )
        )
        actual = [clone(leaf) for leaf in leaves]
        expected = [clone(leaf) for leaf in leaves]
        # Fold pairwise, as a convergecast does, until one digest is left.
        while len(actual) > 1:
            actual = [
                left.merge(right) if right is not None else left
                for left, right in _pairs(actual)
            ]
            expected = [
                reference_merge(left, right) if right is not None else left
                for left, right in _pairs(expected)
            ]
            for got, want in zip(actual, expected):
                assert_same_digest(got, want)
        # A merged digest must be as usable as a constructed one.
        if actual[0].total:
            assert actual[0].quantile(0.5) == expected[0].quantile(0.5)
            assert actual[0].serialized_bits() == expected[0].serialized_bits()

    def test_merge_leaves_operands_untouched(self):
        left = QDigest.from_values([1, 2, 3, 3], universe_size=16, compression=2)
        right = QDigest.from_values([3, 9], universe_size=16, compression=4)
        before = (list(left.counts.items()), list(right.counts.items()))
        merged = left.merge(right)
        assert (list(left.counts.items()), list(right.counts.items())) == before
        assert merged.compression == 4 and merged.total == 6
        assert merged.counts is not left.counts

    @given(data=st.data(), universe=universes)
    @_settings
    def test_distance_and_changed_entries_equal_reference(self, data, universe):
        digests = st.one_of(value_digests(universe), raw_digests(universe))
        left, right = data.draw(digests), data.draw(digests)
        if data.draw(st.booleans()):
            # The engine's case: mostly shared entries, a few moved.
            right = left.merge(right)
        assert left.count_distance(right) == reference_count_distance(left, right)
        assert right.count_distance(left) == reference_count_distance(left, right)
        assert left.changed_entries(right) == reference_changed_entries(left, right)
        assert right.changed_entries(left) == reference_changed_entries(left, right)
        assert left.count_distance(left) == 0 and left.changed_entries(left) == 0
        node_id_bits = fixed_width_bits(2 * left._padded_universe)
        count_bits = fixed_width_bits(max(left.total, right.total, 1))
        assert left.delta_bits(right) == (
            reference_changed_entries(left, right) * (node_id_bits + count_bits)
            + count_bits
        )

    def test_stored_zero_counts_compare_like_absent_ones(self):
        left = QDigest(universe_size=8)
        right = QDigest(universe_size=8)
        left.counts = {8: 0, 9: 2}
        right.counts = {9: 2, 10: 0, 11: 5}
        assert left.changed_entries(right) == reference_changed_entries(left, right) == 1
        assert left.count_distance(right) == reference_count_distance(left, right) == 5

    def test_universe_mismatch_still_refused(self):
        a, b = QDigest(universe_size=16), QDigest(universe_size=32)
        for call in (a.merge, a.count_distance, a.changed_entries):
            with pytest.raises(ConfigurationError, match="different universes"):
                call(b)


def _pairs(items: list) -> list[tuple]:
    padded = items + [None] * (len(items) % 2)
    return list(zip(padded[0::2], padded[1::2]))


# --------------------------------------------------------------------------- #
# LogLog kernels
# --------------------------------------------------------------------------- #
class TestLogLogKernels:
    @given(
        registers=st.sampled_from([1, 2, 16, 64]),
        salt=st.integers(min_value=0, max_value=2**48),
        left=st.lists(st.integers(min_value=0, max_value=10**6), max_size=80),
        right=st.lists(st.integers(min_value=0, max_value=10**6), max_size=80),
    )
    @_settings
    def test_merge_equals_reference(self, registers, salt, left, right):
        a = LogLogSketch(num_registers=registers, salt=salt)
        b = LogLogSketch(num_registers=registers, salt=salt)
        for value in left:
            a.add_item(value)
        for value in right:
            b.add_item(value)
        before = (list(a.registers), list(b.registers))
        merged, expected = a.merge(b), reference_loglog_merge(a, b)
        assert type(merged) is LogLogSketch
        assert merged == expected  # dataclass equality: shape, salt, registers
        assert (a.registers, b.registers) == before
        assert merged.registers is not a.registers
        assert merged.merge(merged.copy()) == expected
        assert merged.estimate() == expected.estimate()
        assert merged.delta_bits(a) == expected.delta_bits(a)
        a.merge_in_place(b)
        assert a == expected

    def test_copy_is_independent(self):
        sketch = LogLogSketch(num_registers=16, salt=7)
        sketch.add_item(11)
        twin = sketch.copy()
        assert twin == sketch and twin.registers is not sketch.registers
        twin.add_item(12345)
        assert twin != sketch

    def test_incompatible_sketches_still_refused(self):
        with pytest.raises(ValueError, match="register counts"):
            LogLogSketch(num_registers=16).merge(LogLogSketch(num_registers=32))
        with pytest.raises(ValueError, match="salts"):
            LogLogSketch(salt=1).merge(LogLogSketch(salt=2))


# --------------------------------------------------------------------------- #
# Validation and bit helpers: accept / reject matrix
# --------------------------------------------------------------------------- #
class Level(int):
    """An ``int`` subclass, as an enum-like caller might pass."""


def _matrix_values() -> list:
    values = [0, 1, 7, -1, -100, 2**70, True, False, 1.0, 1.5, float("nan"), "3", None,
              Level(5), Level(0), Level(-2)]
    if numpy is not None:
        values += [numpy.int64(9), numpy.int64(0), numpy.int64(-4), numpy.float64(2.0),
                   numpy.bool_(True)]
    return values


def _outcome(function, *args):
    """What a call does, in comparable form: its value and type, or its error."""
    try:
        result = function(*args)
    except Exception as error:  # noqa: BLE001 - the error *is* the outcome
        return ("raised", type(error), str(error))
    return ("returned", type(result), result)


@pytest.mark.parametrize("value", _matrix_values(), ids=repr)
def test_validation_matrix_equals_reference(value):
    for checked, reference in (
        (require_integer, reference_require_integer),
        (require_positive, reference_require_positive),
        (require_non_negative, reference_require_non_negative),
    ):
        assert _outcome(checked, value, "widget") == _outcome(reference, value, "widget")
    assert _outcome(bit_width, value) == _outcome(reference_bit_width, value)
    # fixed_width_bits names its argument ``max_value`` in errors.
    expected = _outcome(reference_bit_width, value)
    if expected[0] == "raised":
        expected = expected[:2] + (expected[2].replace("value must", "max_value must"),)
    assert _outcome(fixed_width_bits, value) == expected


def test_validation_messages_are_the_documented_ones():
    for value, message in (
        (True, "widget must be an integer, got True"),
        (1.5, "widget must be an integer, got 1.5"),
        ("3", "widget must be an integer, got '3'"),
    ):
        with pytest.raises(ConfigurationError) as caught:
            require_integer(value, "widget")
        assert str(caught.value) == message
    with pytest.raises(ConfigurationError) as caught:
        require_positive(0, "widget")
    assert str(caught.value) == "widget must be positive, got 0"
    with pytest.raises(ConfigurationError) as caught:
        bit_width(-3)
    assert str(caught.value) == "value must be non-negative, got -3"
    with pytest.raises(ConfigurationError) as caught:
        fixed_width_bits(-3)
    assert str(caught.value) == "max_value must be non-negative, got -3"
    with pytest.raises(ConfigurationError) as caught:
        signed_varint_bits(0.5)
    assert str(caught.value) == "value must be an integer, got 0.5"


def test_int_subclasses_come_back_as_plain_ints():
    assert type(require_integer(Level(5), "x")) is int
    assert type(require_positive(Level(5), "x")) is int
    if numpy is not None:
        assert type(require_non_negative(numpy.int64(9), "x")) is int
        assert bit_width(numpy.int64(255)) == 8
        assert signed_varint_bits(numpy.int64(-1)) == 1


@given(value=st.integers(min_value=0, max_value=2**80))
@_settings
def test_bit_helpers_equal_reference(value):
    width = reference_bit_width(value)
    assert bit_width(value) == width
    assert fixed_width_bits(value) == width
    assert varint_bits(value) == 2 * width - 1
    for signed in (value, -value):
        zigzag = 2 * signed if signed >= 0 else -2 * signed - 1
        assert signed_varint_bits(signed) == 2 * reference_bit_width(zigzag) - 1


# --------------------------------------------------------------------------- #
# Bugfix: the padded universe is computed in integers
# --------------------------------------------------------------------------- #
class TestPaddedUniverse:
    @pytest.mark.parametrize("exponent", [49, 53, 60])
    def test_universe_just_above_a_power_of_two_holds_its_largest_value(self, exponent):
        universe = 2**exponent + 1
        digest = QDigest.from_values([5, universe - 1], universe_size=universe)
        assert digest._levels == exponent + 1
        assert digest._padded_universe >= universe
        leaf = digest._leaf_id(universe - 1)
        assert digest._node_range(leaf) == (universe - 1, universe)
        assert digest.quantile(1.0) == universe - 1
        assert digest.quantile(0.0) == 5
        assert digest.merge(digest).quantile(1.0) == universe - 1

    def test_float_formula_agreed_up_to_2_to_48(self):
        def float_levels(universe: int) -> int:
            return max(1, math.ceil(math.log2(universe)))

        assert float_levels(2**60 + 1) == 60  # the bug
        universes_in_repo = [1 << 10, 1 << 16, (1 << 16) + 1, 50_001, 1 << 20, (1 << 20) + 1]
        around_powers = [
            2**k + offset for k in range(0, 49) for offset in (-1, 0, 1) if 2**k + offset >= 1
        ]
        for universe in [*range(1, 4098), *around_powers, *universes_in_repo]:
            assert dyadic_levels(universe) == float_levels(universe), universe
