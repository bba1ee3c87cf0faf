"""The array passes of ``SensorNetwork.assign_items`` and
``SweepKernel.refresh`` against the ordered loops they replace.

``reference_checked_items`` / ``reference_assign`` and
``reference_sweep_refresh`` are the per-entry bodies from before the batch
was checked and written as columns.  Each batch below mixes what an epoch
sends (exact ints, empty lists for offline nodes) with what a caller might:
numpy ints, tuples, generators, bools, floats, strings, negatives, 2**63 and
unknown ids.  The array pass must raise the loop's exception (type and
message) and then have written nothing, or leave exactly what the loop
leaves; the sweep's dirty set must also equal ``FoldKernel.refresh``'s.
A refresh key that is not an int64 node id is refused by both kernels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util.validation import require_non_negative
from repro.exceptions import ConfigurationError
from repro.faults import TreeRepair
from repro.network.links import LinkTable
from repro.network.node import INT64_MAX
from repro.network.simulator import SensorNetwork
from repro.network.topology import grid_links
from repro.streaming.kernels import FoldKernel, SweepKernel
from repro.streaming.queries import CountQuery, PredicateCountQuery

_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def reference_checked_items(values):
    items = list(values)
    for item in items:
        if type(item) is not int or not 0 <= item <= INT64_MAX:
            # Off the common case: name the bad item, convert numpy ints.
            items = [require_non_negative(item, "item") for item in items]
            if max(items) > INT64_MAX:
                raise ConfigurationError(f"items must be below 2**63, got {max(items)}")
            break
    return items


def reference_assign(network, per_node_items):
    """What the ordered loop leaves in every node (or the error it raises)."""
    ids = network.node_ids()
    written = {}
    for node_id, values in per_node_items.items():
        row = network.links.row_of(node_id)
        if row < 0:
            raise ConfigurationError(f"unknown node id {node_id}")
        written[ids[row]] = reference_checked_items(values)
    return {node: written.get(node, network.items_of(node)) for node in ids}


def reference_sweep_refresh(self, updates):
    self.realign()
    columns = self.columns
    if self.initialized:
        readings = updates.items()
    else:
        readings = [
            (node_id, self.network.items_of(node_id))
            for node_id in self.flat.ids_array[self.tracked].tolist()
        ]
        self.initialized = True
    dirty: set[int] = set()
    for node_id, items in readings:
        node_id = int(node_id)
        position = self._pos_of(node_id)
        if position < 0 or not self.tracked[position]:
            continue
        new_local = self.query.local_summary(items).count
        if not columns.has_local[position] or int(columns.local[position]) != int(
            new_local
        ):
            columns.local[position] = new_local
            columns.has_local[position] = True
            dirty.add(node_id)
    return dirty


# --------------------------------------------------------------------------- #
# Batches as recipes: each side gets its own copy (a generator is spent once)
# --------------------------------------------------------------------------- #
def _valid_ids(n):
    return st.integers(0, n - 1)


_good_items = st.lists(st.integers(0, 1 << 20), max_size=3)
_bad_keys = [True, False, 2.0, 2.5, -1, -(1 << 63), 1 << 63, "3"]
_bad_items = [-1, 1.5, True, 1 << 63, 1 << 70, np.int64(4), np.uint64(5), "7"]


@st.composite
def _batches(draw, ids):
    """An epoch's batch (exact ids, lists of exact items) with at most one
    odd entry at a random place: an id or an item the loop refuses or
    converts, or a tuple or an iterator for a list."""
    recipe = list(draw(st.dictionaries(st.sampled_from(ids), _good_items, max_size=8)).items())
    fault = draw(st.sampled_from(["none", "id", "item", "tuple", "iter"]))
    where = draw(st.integers(0, len(recipe)))
    if fault == "id":
        key = draw(st.sampled_from([*_bad_keys, ids[-1] + 1, np.int64(draw(st.sampled_from(ids)))]))
        recipe.insert(where, (key, draw(_good_items)))
    elif fault == "item":
        items = draw(_good_items)
        items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(_bad_items)))
        recipe.insert(where, (draw(st.sampled_from(ids)), items))
    elif fault != "none":
        recipe.insert(where, (draw(st.sampled_from(ids)), (fault, draw(_good_items))))
    return recipe


def _materialize(recipe):
    return {
        key: (
            tuple(value[1]) if value[0] == "tuple" else iter(value[1])
        ) if isinstance(value, tuple) else list(value)
        for key, value in recipe
    }


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except Exception as error:  # noqa: BLE001 - the type and text are compared
        return ("raised", type(error), str(error))


def _dense(n):
    return SensorNetwork.from_items(list(range(n)), topology="grid")


def _sparse(n):
    ids = [3 * node + 1 for node in range(n)]
    links = LinkTable(n, list(range(n - 1)), list(range(1, n)), ids=ids)
    return SensorNetwork.from_items(list(range(n)), topology=links, root=1)


@pytest.mark.parametrize("layout", [_dense, _sparse], ids=["dense", "sparse"])
@_settings
@given(data=st.data())
def test_assign_items_equals_the_ordered_loop(layout, data):
    network = layout(16)
    recipe = data.draw(_batches(network.node_ids()))
    before = {node: network.items_of(node) for node in network.node_ids()}
    expected = _outcome(reference_assign, network, _materialize(recipe))
    actual = _outcome(network.assign_items, _materialize(recipe))
    after = {node: network.items_of(node) for node in network.node_ids()}
    if expected[0] == "raised":
        assert actual == expected
        assert after == before
    else:
        assert actual[0] == "ok" and after == expected[1]


# --------------------------------------------------------------------------- #
# SweepKernel.refresh
# --------------------------------------------------------------------------- #
def _queries():
    return [CountQuery(), PredicateCountQuery(lambda item: item % 2 == 0, "even")]


def _kernels(network):
    """Per query: the array sweep, the loop on a twin sweep, the fold."""
    return [
        (SweepKernel(network, query), SweepKernel(network, query), FoldKernel(network, query))
        for query in _queries()
    ]


def _columns(kernel):
    return kernel.columns.local.tolist(), kernel.columns.has_local.tolist()


def _fold_locals(fold):
    return {
        node: state.local.count for node, state in fold.nodes.items() if state.local is not None
    }


def _sweep_locals(sweep):
    ids = sweep.flat.ids_array.tolist()
    local, has = _columns(sweep)
    return {ids[pos]: local[pos] for pos in range(len(ids)) if has[pos] and sweep.tracked[pos]}


def _is_node_id(key):
    return (
        not isinstance(key, bool)
        and isinstance(key, (int, np.integer))
        and -(1 << 63) <= key <= INT64_MAX
    )


def _check_refresh(kernels, updates):
    refused = not all(map(_is_node_id, updates))
    for sweep, loop, fold in kernels:
        sweep.realign()  # re-keying to a new tree is not a write of the batch
        before, fold_before = _columns(sweep), _fold_locals(fold)
        if refused:
            for kernel in (sweep, fold):
                with pytest.raises(ConfigurationError):
                    kernel.refresh(dict(updates))
            assert _columns(sweep) == before and _fold_locals(fold) == fold_before
            continue
        expected = _outcome(reference_sweep_refresh, loop, dict(updates))
        actual = _outcome(sweep.refresh, dict(updates))
        assert actual == expected and _columns(sweep) == _columns(loop)
        assert actual[1] == fold.refresh(dict(updates))
        assert _sweep_locals(sweep) == _fold_locals(fold)


@_settings
@given(data=st.data(), crash=st.booleans())
def test_sweep_refresh_equals_the_loop_and_the_fold(data, crash):
    n = 25
    network = SensorNetwork(grid_links(5), degree_bound=None)
    network.assign_items({node: [node] for node in range(n)})
    kernels = _kernels(network)
    _check_refresh(kernels, {})  # the first pass reads every node
    if crash:
        # A crash and its repair reach the kernels; the node's revival and
        # re-attachment do not, so its row is fresh and untracked (the fold
        # holds no state for it) until the next repair.
        victim = data.draw(st.integers(1, n - 1))
        network.kill_node(victim)
        result = TreeRepair().repair(network)
        for sweep, loop, fold in kernels:
            for kernel in (sweep, loop, fold):
                kernel.repair(result, set())
        network.revive_node(victim)
        TreeRepair().repair(network)
    for _ in range(3):
        valid = data.draw(
            st.dictionaries(
                st.one_of(_valid_ids(n), _valid_ids(n).map(np.int64)),
                st.lists(st.integers(0, 9), max_size=3),
                max_size=8,
            )
        )
        network.assign_items(valid)
        extra = data.draw(
            st.dictionaries(
                st.sampled_from([True, -1, 1 << 63, -(1 << 64), n + 3, 4.0, 4.5, "5", "x", None]),
                st.lists(st.integers(0, 9), max_size=2),
                max_size=3,
            )
        )
        _check_refresh(kernels, {**valid, **extra})


def test_a_refused_summary_writes_nothing():
    network = SensorNetwork(grid_links(3), degree_bound=None)
    network.assign_items({node: [node] for node in range(9)})
    query = PredicateCountQuery(lambda item: item.bit_length() > 1, "wide")
    sweep = SweepKernel(network, query)
    sweep.refresh({})
    before = _columns(sweep)
    with pytest.raises(AttributeError):
        sweep.refresh({1: [5], 2: [1.5]})
    assert _columns(sweep) == before


@pytest.mark.parametrize(
    "batch",
    [{4.5: [1, 2, 3], "5": [7, 7]}, {4: [1], 4.5: [2, 3]}, {3.0: [1]}, {True: [1]},
     {2: [1], 1 << 63: [1]}, {np.uint64(1 << 63): [1]}],
)
def test_keys_that_are_not_node_ids_are_refused_by_both_kernels(batch):
    """``4.5``, ``"5"``, ``3.0``, ``True`` and ids past int64 name no node in
    either kernel: both refuse the batch and write nothing, and the next
    valid batch leaves them with the same dirty sets and locals."""
    network = SensorNetwork(grid_links(3), degree_bound=None)
    network.assign_items({node: [node, node] for node in range(9)})
    for query in _queries():
        sweep, fold = SweepKernel(network, query), FoldKernel(network, query)
        assert sweep.refresh({}) == fold.refresh({})
        before = _columns(sweep), _fold_locals(fold)
        for kernel in (sweep, fold):
            with pytest.raises(ConfigurationError):
                kernel.refresh(batch)
        assert (_columns(sweep), _fold_locals(fold)) == before
        valid = {1: [2], 4: [], 5: [3, 4, 6]}
        assert sweep.refresh(valid) == fold.refresh(valid)
        assert _sweep_locals(sweep) == _fold_locals(fold)
