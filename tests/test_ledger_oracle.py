"""The one ledger against the retired dict ledger it replaced.

``CommunicationLedger`` keeps per-node counters as int64 columns and
enforces budgets as an array prefix; ``tests/ledger_oracle.py`` keeps the
dict ledger it replaced, which charged one ``NodeTraffic`` record at a time
and checked the budget after every transmission.  One hypothesis program
interleaves every operation of the ledger on a twin of each and, after
every step, holds the one ledger to the oracle: the snapshot and counters,
each live mark's per-node deltas and largest delta, every node's traffic,
the touched node set, and the type and text of any exception.

The program covers scalar charges, tuple batches below and above
``SMALL_BATCH`` (and above a shrunk ``_BATCH_CHUNK``), array batches whose
``copies`` include 0, self-pairs, marks taken, released and spanning
resets and merges, an unsized ledger growing under a live mark, and all of
it with and without a per-node budget.  An unsized ledger grows by doubling,
so its growth stops at ``MAX_ROWS`` rows, and the invariant reads the
touched rows and the rows at the edge of the columns, not every row: a draw
with many growth steps would otherwise walk millions of rows.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.exceptions import ReproError
from repro.network import accounting
from repro.network.accounting import SMALL_BATCH, CommunicationLedger

from ledger_oracle import DictLedger

#: A sized ledger holds ids ``0..SIZED-1``.
SIZED = 12
#: No rule draws an id past an unsized ledger's columns once they hold this
#: many rows.
MAX_ROWS = 1024

sizes = st.integers(min_value=-1, max_value=90)
copies = st.integers(min_value=0, max_value=3)


def outcome(call):
    """``None``, or the type and text of the named error ``call`` raised."""
    try:
        call()
    except ReproError as error:
        return type(error), str(error)
    return None


class LedgerAgainstOracle(RuleBasedStateMachine):
    @initialize(
        sized=st.booleans(),
        budget=st.none() | st.integers(min_value=0, max_value=400),
    )
    def build(self, sized, budget):
        self.sized = sized
        self.ledger = CommunicationLedger(SIZED if sized else None, budget)
        self.oracle = DictLedger(per_node_budget_bits=budget)
        #: ``(mark, oracle mark)`` pairs still compared.
        self.marks = []

    def growing(self) -> bool:
        """Whether rules may still grow the columns: unsized, below
        ``MAX_ROWS`` rows."""
        return not self.sized and self.ledger.num_nodes < MAX_ROWS

    def nodes(self):
        """Ids a sized ledger holds; on an unsized one, the ids its columns
        hold and, while :meth:`growing`, the first past them, so it keeps
        growing under live marks."""
        if self.sized:
            high = SIZED - 1
        else:
            high = self.ledger.num_nodes - (not self.growing())
        return st.integers(min_value=0, max_value=high)

    def both(self, act):
        """Apply ``act(ledger)`` to the ledger and the oracle alike."""
        assert outcome(lambda: act(self.ledger)) == outcome(lambda: act(self.oracle))

    @rule(data=st.data(), size=sizes)
    def charge(self, data, size):
        sender, receiver = data.draw(self.nodes()), data.draw(self.nodes())
        self.both(lambda ledger: ledger.charge(sender, receiver, size, protocol="c"))

    @rule(data=st.data(), size=sizes)
    def grow(self, data, size):
        """Charge the first id past an unsized ledger's columns, while
        :meth:`growing`."""
        node = self.ledger.num_nodes
        if self.growing():
            sender = data.draw(self.nodes())
            self.both(lambda ledger: ledger.charge(sender, node, size, protocol="g"))

    @rule(data=st.data(), size=sizes)
    def charge_self_pair(self, data, size):
        node = data.draw(self.nodes())
        self.both(lambda ledger: ledger.charge_batch([(node, node)] * 2, [size, 1]))

    @rule(
        data=st.data(),
        length=st.sampled_from([1, SMALL_BATCH, SMALL_BATCH + 1, 3 * SMALL_BATCH]),
        repeated=st.booleans(),
        chunk=st.sampled_from([None, 7]),
    )
    def charge_batch(self, data, length, repeated, chunk):
        link = st.tuples(self.nodes(), self.nodes())
        links = data.draw(st.lists(link, min_size=length, max_size=length))
        batch_sizes = data.draw(st.lists(sizes, min_size=length, max_size=length))
        counts = (
            data.draw(st.lists(copies, min_size=length, max_size=length))
            if repeated
            else None
        )
        protocol = data.draw(st.sampled_from(["p", "q"]))
        with mock.patch.object(accounting, "_BATCH_CHUNK", chunk or accounting._BATCH_CHUNK):
            self.both(
                lambda ledger: ledger.charge_batch(links, batch_sizes, counts, protocol)
            )

    @rule(data=st.data(), as_array=st.booleans(), repeated=st.booleans())
    def charge_array(self, data, as_array, repeated):
        length = data.draw(st.integers(min_value=0, max_value=2 * SMALL_BATCH))
        columns = [
            data.draw(st.lists(strategy, min_size=length, max_size=length))
            for strategy in (self.nodes(), self.nodes(), sizes, copies)
        ]
        if not repeated:
            columns[3] = None
        if as_array:
            columns = [
                None if column is None else np.asarray(column, dtype=np.int64)
                for column in columns
            ]
        senders, receivers, batch_sizes, counts = columns
        self.both(
            lambda ledger: ledger.charge_array(
                senders, receivers, batch_sizes, protocol="a", copies=counts
            )
        )

    @rule()
    def mark(self):
        self.marks.append((self.ledger.mark(), self.oracle.mark()))

    @rule(data=st.data())
    def release(self, data):
        if self.marks:
            index = data.draw(st.integers(min_value=0, max_value=len(self.marks) - 1))
            mark, oracle_mark = self.marks.pop(index)
            self.ledger.release(mark)
            self.oracle.release(oracle_mark)
            # The dict mark stops recording baselines for nodes it has not
            # seen yet; from here on the two define different intervals.
            assert self.ledger.max_node_delta_since(mark) == (
                self.oracle.max_node_delta_since(oracle_mark)
            )

    @rule(rounds=st.integers(min_value=0, max_value=3))
    def advance_round(self, rounds):
        self.both(lambda ledger: ledger.advance_round(rounds))

    @rule()
    def reset(self):
        self.both(lambda ledger: ledger.reset())

    @rule(data=st.data())
    def merge(self, data):
        charges = data.draw(
            st.lists(st.tuples(self.nodes(), self.nodes(), sizes.filter(lambda s: s >= 0)))
        )
        other, oracle_other = CommunicationLedger(), DictLedger()
        for sender, receiver, size in charges:
            other.charge(sender, receiver, size, protocol="m")
            oracle_other.charge(sender, receiver, size, protocol="m")
        other.advance_round(2)
        oracle_other.advance_round(2)
        self.ledger.merge(other)
        self.oracle.merge(oracle_other)

    @invariant()
    def agrees_with_the_oracle(self):
        ledger, oracle = self.ledger, self.oracle
        assert ledger.snapshot() == oracle.snapshot()
        assert ledger.counters_snapshot() == oracle.counters_snapshot()
        touched = set(ledger.nodes())
        assert touched == set(oracle.nodes())
        if self.sized:
            rows = range(SIZED)
        else:
            # The touched rows, the first and last row, the first id past.
            edge = {0, ledger.num_nodes - 1, ledger.num_nodes}
            rows = sorted(touched | {row for row in edge if row >= 0})
        for node in rows:
            assert ledger.traffic(node) == oracle.traffic(node)
        for mark, oracle_mark in self.marks:
            # The dict mark also lists touched nodes whose delta is 0.
            assert ledger.node_deltas_since(mark) == {
                node: bits
                for node, bits in oracle.node_deltas_since(oracle_mark).items()
                if bits
            }
            assert ledger.max_node_delta_since(mark) == (
                oracle.max_node_delta_since(oracle_mark)
            )
            assert ledger.total_bits - mark.total_bits == (
                oracle.total_bits - oracle_mark.total_bits
            )


LedgerAgainstOracle.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestLedgerAgainstOracle = LedgerAgainstOracle.TestCase
