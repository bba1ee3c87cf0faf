"""Self-healing spanning trees: incremental re-attachment of orphaned subtrees.

When a node crashes (or a tree link drops), each of its surviving child
subtrees becomes an *orphan unit*: an intact tree fragment with no route to
the root.  Rebuilding the whole BFS tree from scratch costs a flood over
every alive graph edge plus a full summary recompute — :class:`TreeRepair`
instead re-attaches each unit through a local adoption handshake:

1. compute the *attached* set — alive nodes still connected to the root via
   surviving tree edges — and group the remaining alive nodes into orphan
   units (maximal fragments of surviving tree edges; a rejoining node is a
   singleton unit);
2. grow an adoption frontier outward from the attached region: when an
   attached node ``a`` hears an orphaned graph-neighbour ``x``, ``x`` adopts
   ``a`` as its parent (one request + one ack on the graph edge) and the
   unit re-roots itself at ``x`` by reversing the parent pointers along the
   path from ``x`` to the fragment's old top — one small pointer-flip
   message per reversed edge.  Every other member keeps its parent and
   children untouched, which is what lets the streaming layer re-synchronise
   only along repaired paths.  A handshake whose radio delivery *permanently*
   fails does not kill the epoch: the unit falls back to its next candidate
   attachment point, and the repair aborts only when every candidate of an
   orphan unit has been exhausted;
3. repeat wave by wave until no orphan is adjacent to the attached region;
   whatever remains is *detached* (physically cut off) and rejoins
   automatically once connectivity returns.

Two implementations of the sweep exist, selected by ``network.execution``
exactly as the protocol traversals are:

* *per-edge* — the reference: the attached set is a walk down the old tree
  (node by node, through ``children_of``), the adoption frontier scans
  every attached node's neighbourhood wave by wave, and the repaired tree is
  rebuilt from its full parent map.  O(alive graph edges) per fault epoch.
* *arrays* (every other mode) — the attached set is a handful of boolean
  masks over the :class:`~repro.network.FlatTree` arrays (alive gather, the
  tree edges whose link is in ``network.links.dropped`` cleared, one ``&=``
  per level), adoption candidates are enumerated from the (small) orphan side
  through a priority queue that reproduces the reference scan order
  exactly, the rebuild-vs-incremental estimate short-circuits without
  touching the edge set, and the repaired tree is one
  :meth:`~repro.network.FlatTree.rewire` of the old one, installed through
  :meth:`~repro.network.SensorNetwork.set_tree` — no dictionary tree is
  kept in step.  O(damage)
  in Python where the reference is O(alive edges).
  It needs the dense ids ``0..n-1`` behind ``network.alive_mask``; a
  network with other ids is repaired by the reference.

Both attempt the same adoptions in the same order and push every control
message through :meth:`~repro.network.SensorNetwork.send_batch`, so their
ledgers — including lossy-radio retries — are bit-for-bit identical
(enforced by the differential oracle, ``tests/test_oracle.py``).

When the *estimated* incremental cost exceeds ``rebuild_threshold`` times
the estimated flood cost — or when ``strategy="rebuild"`` pins the naive
policy for baselines — the repair falls back to rebuilding the BFS tree of
the alive root-component from scratch, charging the flood (two tokens per
alive edge in ascending ``(min, max)`` edge order, one parent-ack per node)
that a distributed BFS construction costs.  The fault benchmarks measure
exactly this trade.

Even the root may die.  A repair that finds the root dead defers to its
configured :class:`~repro.faults.RootElection` (raising
:class:`~repro.exceptions.ConfigurationError` when none is wired up): the
election charges a leader handover under its own ``faults:election`` ledger
key and re-roots the network's identity at the highest surviving id, after
which the repair pass runs *seeded* — the winner's surviving fragment,
re-rooted along the election's reversed root path, plays the role of the
attached region, and every other fragment re-attaches through the ordinary
adoption cascade.  The seeded pass materialises the re-rooted tree through
:meth:`~repro.network.FlatTree.from_parents` in both implementations (a
root change moves every depth, so the O(damage)
:meth:`~repro.network.FlatTree.rewire` has no edge to offer), and the
resulting :class:`RepairResult` carries the
:class:`~repro.faults.ElectionResult` so stream recovery can migrate its
caches along the reversed path.

**Ledger keys.**  All repair control traffic — adoption request/ack pairs,
pointer flips, rebuild flood tokens and parent acks — is charged under
``faults:repair`` (:attr:`TreeRepair.protocol`); a root fail-over's
election traffic lands under ``faults:election`` and heartbeat sweeps
under ``faults:heartbeat``, so per-protocol ledger snapshots decompose the
resilience bill exactly.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.exceptions import ConfigurationError, DeliveryError
from repro.faults.election import (
    ElectionResult,
    RootElection,
    surviving_edge_mask,
    tree_fragments,
    use_arrays,
)
from repro.network.flat_tree import FlatTree
from repro.network.radio import ReliableRadio
from repro.network.simulator import SensorNetwork
from repro.network.spanning_tree import spanning_parents

#: Valid values of :attr:`TreeRepair.strategy`.
REPAIR_STRATEGIES = ("incremental", "rebuild")

#: Adoption request an orphan sends to an attached graph-neighbour
#: (type + epoch tag + fragment size estimate).
ATTACH_REQUEST_BITS = 32
#: The adopter's acknowledgement (type + its own level).
ATTACH_ACK_BITS = 16
#: Pointer-flip notification along the re-rooting path inside a unit.
REVERSAL_BITS = 16
#: One BFS-construction token, flooded over every alive edge (both
#: directions) by the rebuild-from-scratch fallback.
REBUILD_TOKEN_BITS = 16
#: Parent-choice acknowledgement each node sends once during a rebuild.
REBUILD_ACK_BITS = 16


@dataclass(frozen=True)
class RepairResult:
    """What one repair pass did to the spanning tree.

    ``parent_changed`` lists the nodes (attached in the new tree) whose
    parent pointer changed — exactly the nodes whose next transmission must
    be a full summary, since their new parent caches nothing for them.
    ``child_losses`` lists ``(parent, lost_child)`` pairs for parents that
    remain attached — the cache entries the streaming layer must evict.
    ``removed`` are previously-spanned nodes no longer in the tree (crashed
    or cut off); ``detached`` are alive nodes left without a route to the
    root.  On a full rebuild both patch lists are empty and consumers reset
    everything instead.

    ``election`` is set when this repair pass began with a root fail-over:
    the attached :class:`~repro.faults.ElectionResult` carries the handover
    (old/new root, reversed root path, election bits); ``control_bits``
    still counts the repair's own traffic only, so the two cost streams
    stay separable.
    """

    strategy: str
    rebuilt: bool
    parent_changed: tuple[int, ...]
    child_losses: tuple[tuple[int, int], ...]
    removed: tuple[int, ...]
    detached: tuple[int, ...]
    control_bits: int
    control_messages: int
    rounds: int
    election: ElectionResult | None = None

    @property
    def changed_anything(self) -> bool:
        return self.strategy != "noop"


_NOOP = RepairResult(
    strategy="noop",
    rebuilt=False,
    parent_changed=(),
    child_losses=(),
    removed=(),
    detached=(),
    control_bits=0,
    control_messages=0,
    rounds=0,
)


@dataclass
class _Cascade:
    """Mutable bookkeeping shared by one adoption sweep.

    Both implementations feed the same fields in the same order, so the
    results they materialise afterwards are identical.  ``deferred_links`` /
    ``deferred_sizes`` buffer the control traffic when the radio is the
    perfect-delivery singleton: no handshake can fail, so charging the whole
    cascade in one ledger batch is bit-for-bit the same as charging each
    adoption as it happens — minus thousands of tiny batch calls.  Under
    any other radio a handshake's delivery decides whether its unit
    attaches, which the next adoption reads, so each is sent on the spot.
    """

    attached: set
    parent_overrides: dict[int, int] = field(default_factory=dict)
    parent_changed: list[int] = field(default_factory=list)
    adopted_units: list[tuple[int, int, int]] = field(default_factory=list)
    attach_log: list[int] = field(default_factory=list)
    failed_units: set[int] = field(default_factory=set)
    waves: int = 0
    deferred_links: list[tuple[int, int]] | None = None
    deferred_sizes: list[int] | None = None


class TreeRepair:
    """Incremental spanning-tree repair with a rebuild-from-scratch fallback."""

    def __init__(
        self,
        strategy: str = "incremental",
        rebuild_threshold: float = 1.0,
        protocol: str = "faults:repair",
        election: RootElection | None = None,
    ) -> None:
        if strategy not in REPAIR_STRATEGIES:
            raise ConfigurationError(
                f"unknown repair strategy {strategy!r}; known: {REPAIR_STRATEGIES}"
            )
        if rebuild_threshold <= 0:
            raise ConfigurationError(
                f"rebuild_threshold must be positive, got {rebuild_threshold}"
            )
        self.strategy = strategy
        self.rebuild_threshold = rebuild_threshold
        self.protocol = protocol
        #: How to replace a dead root.  ``None`` means a dead root is an
        #: error at repair time; :class:`~repro.faults.FaultEngine` installs
        #: a default :class:`~repro.faults.RootElection` here so scripted
        #: :class:`~repro.faults.RootCrash` events fail over out of the box.
        self.election = election

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def repair(
        self, network: SensorNetwork, election: RootElection | None = None
    ) -> RepairResult:
        """Re-span the alive, root-connected population; return what changed.

        Reads the network's links, spanning tree and alive-mask; installs the
        repaired :class:`~repro.network.FlatTree` on the network and
        charges every control message to the ledger under :attr:`protocol`.
        Returns a no-op result when the existing tree already spans exactly
        the attachable population.  Follows ``network.execution``; the two
        implementations are ledger-identical and produce identical trees.

        A dead root defers to ``election`` (falling back to
        :attr:`election`): the handover is charged and the repair runs
        seeded with the winner's re-rooted fragment — see the module
        docstring.  With no election configured a dead root raises
        :class:`~repro.exceptions.ConfigurationError`.

        Raises :class:`~repro.exceptions.DeliveryError` when an orphan unit
        with at least one permanently-failed adoption handshake exhausted
        every candidate attachment point; the partially repaired tree (with
        such units detached) is installed first, and the completed
        :class:`RepairResult` rides on the exception as ``repair_result``.
        """
        telemetry = network.telemetry
        with telemetry.span("repair", strategy=self.strategy) as span:
            result = self._repair_impl(network, election)
            if telemetry.enabled:
                span.annotate(
                    rebuilt=result.rebuilt,
                    reparented=len(result.parent_changed),
                    detached=len(result.detached),
                )
                telemetry.count("repair.passes", 1)
                if result.rebuilt:
                    telemetry.count("repair.fallbacks", 1)
        return result

    def _repair_impl(
        self, network: SensorNetwork, election: RootElection | None
    ) -> RepairResult:
        elected: ElectionResult | None = None
        if not network.is_alive(network.root_id):
            chooser = election if election is not None else self.election
            if chooser is None:
                raise ConfigurationError(
                    "cannot repair a network whose root is dead without an "
                    "election; configure TreeRepair(election=RootElection()) "
                    "or drive repairs through FaultEngine, which wires one up"
                )
            elected = chooser.elect(network)
        if use_arrays(network):
            return self._repair_arrays(network, elected)
        return self._repair_per_edge(network, elected)

    # ------------------------------------------------------------------ #
    # Per-edge reference
    # ------------------------------------------------------------------ #
    def _repair_per_edge(
        self, network: SensorNetwork, elected: ElectionResult | None = None
    ) -> RepairResult:
        flat = network.flat_tree
        node_ids, index = flat.node_ids, flat.index
        links = network.links
        old_parent = flat.parent_map()
        has_edge = links.has
        is_alive = network.is_alive

        if elected is not None:
            # Root fail-over: the election already decided the attached
            # region — the winner's surviving fragment, re-rooted along the
            # charged reversed root path.  Everything else cascades as usual.
            attached = set(elected.winner_fragment)
        else:
            # Survivors: BFS from the root over tree edges whose child end
            # is alive and whose link is still up.
            attached = {network.root_id}
            stack = [network.root_id]
            while stack:
                node = stack.pop()
                for position in flat.children_of(index[node]):
                    child = node_ids[position]
                    if is_alive(child) and has_edge(child, node):
                        attached.add(child)
                        stack.append(child)

        unattached = [
            node for node in network.alive_node_ids() if node not in attached
        ]
        old_nodes = set(old_parent)
        if not unattached and attached == old_nodes:
            return _NOOP

        if self.strategy == "rebuild":
            return self._rebuild(network, old_nodes, elected)

        units, unit_id, unit_parent = tree_fragments(network, unattached)
        if units and self._should_rebuild(network, units, unattached):
            return self._rebuild(network, old_nodes, elected)

        before = network.ledger.counters_snapshot()
        cascade = _Cascade(attached=attached)
        new_parent = self._seed_parents(old_parent, attached, elected, cascade)
        frontier = sorted(attached)
        while frontier:
            wave_added: list[int] = []
            for adopter in frontier:
                for orphan in links.neighbors(adopter):
                    if orphan in attached or not is_alive(orphan):
                        continue
                    self._adopt_unit(
                        network,
                        orphan,
                        adopter,
                        units,
                        unit_id,
                        unit_parent,
                        cascade,
                        wave_added,
                    )
            if wave_added:
                cascade.waves += 1
            frontier = wave_added

        removed, child_losses = self._install_from_parents(
            network, old_parent, new_parent, cascade, unit_parent
        )
        return self._finish(
            network, before, cascade, units, unit_id, removed, child_losses, elected
        )

    @staticmethod
    def _seed_parents(
        old_parent: dict[int, int | None],
        attached: set[int],
        elected: ElectionResult | None,
        cascade: _Cascade,
    ) -> dict[int, int | None]:
        """Parent pointers of the attached region before any adoption; a
        fail-over's flips are applied (and logged as parent changes) here."""
        # ``get``: a seeded fragment may contain the winner as a node an
        # earlier repair left outside the tree (a detached survivor), which
        # has no old parent to inherit.
        new_parent = {node: old_parent.get(node) for node in attached}
        if elected is not None:
            new_parent[elected.new_root] = None
            new_parent.update(elected.flips)
            cascade.parent_changed.extend(node for node, _ in elected.flips)
        return new_parent

    @staticmethod
    def _install_from_parents(
        network: SensorNetwork,
        old_parent: Mapping[int, int | None],
        new_parent: dict[int, int | None],
        cascade: _Cascade,
        unit_parent: dict[int, int | None],
    ) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
        """Build and install the repaired tree from a full parent map.

        O(network): the reference does this every pass, the array
        implementation only after a root change.  ``old_parent`` is the
        replaced tree's parent map.  Returns ``(removed, child_losses)``.
        """
        attached = cascade.attached
        for member in cascade.attach_log:
            new_parent[member] = cascade.parent_overrides.get(
                member, unit_parent[member]
            )
        child_losses = sorted(
            (parent, child)
            for child, parent in old_parent.items()
            if parent is not None
            and parent in attached
            and new_parent.get(child) != parent
        )
        removed = tuple(sorted(set(old_parent) - attached))
        network.set_tree(
            FlatTree.from_parents(
                network.root_id, {node: new_parent[node] for node in attached}
            )
        )
        return removed, child_losses

    def _finish(
        self,
        network: SensorNetwork,
        before,
        cascade: _Cascade,
        units: list[list[int]],
        unit_id: dict[int, int],
        removed: tuple[int, ...],
        child_losses: list[tuple[int, int]],
        elected: ElectionResult | None,
    ) -> RepairResult:
        """Close an incremental pass: rounds, the result, exhausted units."""
        network.ledger.advance_round(cascade.waves)
        after = network.ledger.counters_snapshot()
        result = RepairResult(
            strategy="incremental",
            rebuilt=False,
            parent_changed=tuple(cascade.parent_changed),
            child_losses=tuple(child_losses),
            removed=removed,
            detached=tuple(
                node for node in sorted(unit_id) if node not in cascade.attached
            ),
            control_bits=after.total_bits - before.total_bits,
            control_messages=after.messages - before.messages,
            rounds=cascade.waves,
            election=elected,
        )
        self._raise_if_exhausted(cascade, units, result)
        return result

    # ------------------------------------------------------------------ #
    # Array implementation: masks, orphan-side candidates, one rewire
    # ------------------------------------------------------------------ #
    def _repair_arrays(
        self, network: SensorNetwork, elected: ElectionResult | None = None
    ) -> RepairResult:
        """One pass for every radio and for fail-over alike.

        A fail-over differs at the two ends only: its attached seed is the
        election's winner fragment instead of a sweep of the flat arrays
        (which are rooted at the dead root), and its tree is materialised
        from the parent map because a root change moves every depth.
        """
        flat = network.flat_tree
        ids = flat.ids_array
        neighbors = network.links.neighbors
        alive = network.alive_mask
        if elected is None:
            # Attached = alive, tree edge to the parent still up, parent
            # attached — settled level by level, top down.
            attached_mask = attached_mask_vectorized(
                flat, alive[ids] & surviving_edge_mask(flat, network.links.dropped)
            )
            attached_ids = ids[attached_mask]
        else:
            attached_ids = np.asarray(elected.winner_fragment, dtype=np.int64)
        # Every other alive node is an orphan, whether it fell off the old
        # tree or was never in it (rejoined, or detached by an earlier pass).
        orphaned = alive.copy()
        orphaned[attached_ids] = False
        unattached = np.flatnonzero(orphaned).tolist()
        attached = set(attached_ids.tolist())
        if elected is None and not unattached and len(attached) == flat.num_nodes:
            return _NOOP

        if self.strategy == "rebuild":
            return self._rebuild(network, set(flat.node_ids), elected)

        units, unit_id, unit_parent = tree_fragments(network, unattached)
        if units and self._should_rebuild_batched(
            network, units, unattached, len(attached)
        ):
            return self._rebuild(network, set(flat.node_ids), elected)

        before = network.ledger.counters_snapshot()
        cascade = _Cascade(attached=attached)
        if elected is not None:
            # A root change moves every depth: O(network) either way.
            old_parent = flat.parent_map()
            new_parent = self._seed_parents(old_parent, attached, elected, cascade)
        if type(network.radio) is ReliableRadio:
            # Delivery, not draw order: only perfect links guarantee every
            # handshake lands, so only they may charge the cascade at the end.
            cascade.deferred_links = []
            cascade.deferred_sizes = []
        self._adoption_cascade_batched(
            network, neighbors, units, unit_id, unit_parent, cascade, set(unattached)
        )
        if cascade.deferred_links:
            network.send_batch(
                cascade.deferred_links,
                cascade.deferred_sizes,
                protocol=self.protocol,
                require_edge=False,
            )

        if elected is not None:
            removed, child_losses = self._install_from_parents(
                network, old_parent, new_parent, cascade, unit_parent
            )
        else:
            # O(damage) bookkeeping: the only candidates for a removal are
            # the old-tree nodes the sweep dropped, and for a cache eviction
            # those plus the reparented nodes.
            removed = tuple(
                node
                for node in np.sort(ids[~attached_mask]).tolist()
                if node not in attached
            )
            parent_overrides = cascade.parent_overrides
            nodes = [*cascade.parent_changed, *removed]
            # Their old parent ids, read off the flat arrays (-1 for none).
            positions = flat.positions_of(np.array(nodes, dtype=np.int64))
            ups = np.where(positions >= 0, flat.parent[positions], -1)
            old_parents = np.where(ups >= 0, ids[ups], -1).tolist()
            child_losses = sorted(
                (old, child)
                for child, old in zip(nodes, old_parents)
                if old in attached and parent_overrides.get(child) != old
            )
            self._install_rewired(
                network, flat, cascade, units, unit_parent, removed
            )
        return self._finish(
            network, before, cascade, units, unit_id, removed, child_losses, elected
        )

    def _adoption_cascade_batched(
        self,
        network: SensorNetwork,
        neighbors: Callable[[int], list[int]],
        units: list[list[int]],
        unit_id: dict[int, int],
        unit_parent: dict[int, int | None],
        cascade: _Cascade,
        remaining: set[int],
    ) -> None:
        """Run the adoption waves from the orphan side.

        The reference scan attempts candidate ``(adopter, orphan)`` pairs in
        ascending ``(adopter rank, orphan id)`` order within a wave, where
        rank is the adopter's id in wave one and its position in the
        previous wave's attach order afterwards; a pair is only *attempted*
        while its orphan's unit is unattached.  The globally next attempted
        pair is therefore the minimum over units of each unit's cheapest
        untried candidate — a priority queue over per-unit minima reproduces
        the exact sequence while only ever touching the orphan side's
        adjacency, which is what makes the pass O(damage).
        """
        attached = cascade.attached
        added_in_cascade: set[int] = set()
        wave_members: list[int] | None = None  # None = wave one (original attached)
        while remaining:
            if wave_members is None:
                # Wave one: the original attached set adopts and an
                # adopter's rank is its id, so ids compare as they are.
                adopters = adopter_set = attached
                rank_key = None

                def rank_of(
                    neighbor: int, _attached=attached, _added=added_in_cascade
                ) -> int | None:
                    if neighbor in _attached and neighbor not in _added:
                        return neighbor
                    return None

                def adopter_of(rank: int) -> int:
                    return rank
            else:
                position_of = {
                    member: position for position, member in enumerate(wave_members)
                }
                adopters = wave_members
                adopter_set = set(position_of)
                rank_key = rank_of = position_of.get
                adopter_of = wave_members.__getitem__

            # Candidate pairs across the attached/orphan boundary, scanned
            # from whichever side has fewer nodes — both scans visit the
            # same boundary edges, and the minimum per unit is the same.
            # C-level set intersections against the cached neighbour lists
            # do the scanning.
            if len(adopters) < len(remaining):
                pairs = (
                    (rank_of(adopter), orphan)
                    for adopter in adopters
                    for orphan in remaining.intersection(neighbors(adopter))
                )
            else:
                pairs = (
                    (rank_of(min(hits, key=rank_key)), orphan)
                    for orphan in remaining
                    if (hits := adopter_set.intersection(neighbors(orphan)))
                )
            best: dict[int, tuple[int, int]] = {}
            for pair in pairs:
                unit = unit_id[pair[1]]
                if unit not in best or pair < best[unit]:
                    best[unit] = pair

            wave_added = self._run_wave(
                network,
                neighbors,
                units,
                unit_id,
                unit_parent,
                cascade,
                remaining,
                added_in_cascade,
                best,
                rank_of,
                adopter_of,
            )
            if not wave_added:
                break
            cascade.waves += 1
            wave_members = wave_added

    def _run_wave(
        self,
        network: SensorNetwork,
        neighbors: Callable[[int], list[int]],
        units: list[list[int]],
        unit_id: dict[int, int],
        unit_parent: dict[int, int | None],
        cascade: _Cascade,
        remaining: set[int],
        added_in_cascade: set[int],
        best: dict[int, tuple[int, int]],
        rank_of: Callable[[int], int | None],
        adopter_of: Callable[[int], int],
    ) -> list[int]:
        heap = [(rank, orphan, unit) for unit, (rank, orphan) in best.items()]
        heapq.heapify(heap)

        # Full per-unit candidate lists are materialised only after a failed
        # handshake (rare), to find the unit's next attachment point.
        fallback: dict[int, tuple[list[tuple[int, int]], int]] = {}
        wave_added: list[int] = []
        while heap:
            rank, orphan, unit = heapq.heappop(heap)
            if units[unit][0] in cascade.attached:
                continue  # defensive: the unit was adopted already
            adopter = adopter_of(rank)
            adopted = self._adopt_unit(
                network,
                orphan,
                adopter,
                units,
                unit_id,
                unit_parent,
                cascade,
                wave_added,
            )
            if adopted:
                for member in units[unit]:
                    remaining.discard(member)
                    added_in_cascade.add(member)
                continue
            entry = fallback.get(unit)
            if entry is None:
                pairs: list[tuple[int, int]] = []
                for member in units[unit]:
                    for neighbor in neighbors(member):
                        neighbor_rank = rank_of(neighbor)
                        if neighbor_rank is not None:
                            pairs.append((neighbor_rank, member))
                pairs.sort()
                entry = (pairs, bisect_right(pairs, (rank, orphan)))
            pairs, cursor = entry
            if cursor < len(pairs):
                next_rank, next_orphan = pairs[cursor]
                fallback[unit] = (pairs, cursor + 1)
                heapq.heappush(heap, (next_rank, next_orphan, unit))
        return wave_added

    def _install_rewired(
        self,
        network: SensorNetwork,
        flat: FlatTree,
        cascade: _Cascade,
        units: list[list[int]],
        unit_parent: dict[int, int | None],
        removed: tuple[int, ...],
    ) -> None:
        """Install the cascade's tree: one :meth:`FlatTree.rewire` of ``flat``.

        Only the re-attached unit members get a new depth; every other node
        — and its position in the canonical order — is untouched, which is
        what keeps the pass O(damage) instead of O(network).
        """
        overrides = cascade.parent_overrides
        new_depths: dict[int, int] = {}
        table = flat.position_table
        old_depth = flat.depth

        def depth_of(node: int) -> int:
            # An adopter attached earlier in this cascade has its new depth;
            # any other adopter kept the one it had.
            level = new_depths.get(node)
            return int(old_depth[table[node]]) if level is None else level

        for unit, contact, adopter in cascade.adopted_units:
            members = units[unit]
            if len(members) == 1:
                # Singleton fast path: one pointer, one depth, no re-rooting
                # (the common case under churn and every rejoin).
                new_depths[contact] = depth_of(adopter) + 1
                continue
            # Fresh depths ripple out from the contact point; the adopter's
            # depth is final because units are processed in adoption order.
            kids_within: dict[int, list[int]] = {}
            for member in members:
                kids_within.setdefault(
                    overrides.get(member, unit_parent[member]), []
                ).append(member)
            queue = deque([(contact, depth_of(adopter) + 1)])
            while queue:
                member, level = queue.popleft()
                new_depths[member] = level
                for child in kids_within.get(member, ()):
                    queue.append((child, level + 1))

        network.set_tree(
            flat.rewire(removed=removed, reparented=overrides, depths=new_depths)
        )

    # ------------------------------------------------------------------ #
    # Shared adoption transaction
    # ------------------------------------------------------------------ #
    def _adopt_unit(
        self,
        network: SensorNetwork,
        orphan: int,
        adopter: int,
        units: list[list[int]],
        unit_id: dict[int, int],
        unit_parent: dict[int, int | None],
        cascade: _Cascade,
        wave_added: list[int],
    ) -> bool:
        """Attempt one adoption handshake; on success re-root the unit.

        The request/ack pair and the pointer-flip chain are charged through
        the radio models *at adoption time*, so a permanent delivery failure
        of the handshake leaves the unit unattached (the caller falls back
        to its next candidate) instead of aborting the repair.  A failure
        inside the pointer-flip chain still propagates: the unit is already
        committed to its new attachment point at that stage.
        """
        links = [(orphan, adopter), (adopter, orphan)]
        sizes = [ATTACH_REQUEST_BITS, ATTACH_ACK_BITS]
        reversal_path: list[int] = []
        child = orphan
        ancestor = unit_parent[orphan]
        while ancestor is not None:
            links.append((child, ancestor))
            sizes.append(REVERSAL_BITS)
            reversal_path.append(ancestor)
            child = ancestor
            ancestor = unit_parent[ancestor]
        if cascade.deferred_links is not None:
            # Perfect radio: no handshake can fail, charge the cascade in
            # one batch at the end (identical ledger, far fewer calls).
            cascade.deferred_links.extend(links)
            cascade.deferred_sizes.extend(sizes)
        else:
            try:
                network.send_batch(
                    links, sizes, protocol=self.protocol, require_edge=False
                )
            except DeliveryError as error:
                if error.index < 2:
                    # The handshake itself never completed: nothing was
                    # committed, the caller may try another attachment point.
                    cascade.failed_units.add(unit_id[orphan])
                    return False
                raise  # a pointer flip failed after the unit committed
        unit = unit_id[orphan]
        cascade.adopted_units.append((unit, orphan, adopter))
        telemetry = network.telemetry
        if telemetry.enabled:
            telemetry.event(
                "repair.adoption",
                node=orphan,
                adopter=adopter,
                unit_size=len(units[unit]),
            )
        overrides = cascade.parent_overrides
        changed = cascade.parent_changed
        overrides[orphan] = adopter
        changed.append(orphan)
        child = orphan
        for ancestor in reversal_path:
            overrides[ancestor] = child
            changed.append(ancestor)
            child = ancestor
        attached = cascade.attached
        attach_log = cascade.attach_log
        for member in units[unit]:
            attached.add(member)
            attach_log.append(member)
            wave_added.append(member)
        return True

    def _raise_if_exhausted(
        self,
        cascade: _Cascade,
        units: list[list[int]],
        result: RepairResult,
    ) -> None:
        exhausted = sorted(
            unit
            for unit in cascade.failed_units
            if units[unit][0] not in cascade.attached
        )
        if exhausted:
            members = [tuple(units[unit]) for unit in exhausted]
            error = DeliveryError(
                f"adoption exhausted every candidate attachment point for "
                f"orphan unit(s) {members}; the repaired tree (with those "
                "units detached) was installed before raising"
            )
            error.repair_result = result
            raise error

    # ------------------------------------------------------------------ #
    # Rebuild-vs-incremental estimate
    # ------------------------------------------------------------------ #
    def _should_rebuild(
        self,
        network: SensorNetwork,
        units: list[list[int]],
        unattached: list[int],
    ) -> bool:
        """Compare the incremental cost upper bound against the flood estimate.

        The reference computation: the alive edges are counted with one
        mask reduction over the whole edge table.
        """
        estimated_incremental = len(units) * (
            ATTACH_REQUEST_BITS + ATTACH_ACK_BITS
        ) + len(unattached) * REVERSAL_BITS
        links = network.links
        alive = links.row_mask(network.alive_node_ids())
        low, high = links.edge_rows()
        alive_edges = int(np.count_nonzero(alive[low] & alive[high]))
        estimated_rebuild = (
            2 * alive_edges + network.num_alive
        ) * REBUILD_TOKEN_BITS
        return estimated_incremental > self.rebuild_threshold * estimated_rebuild

    def _should_rebuild_batched(
        self,
        network: SensorNetwork,
        units: list[list[int]],
        unattached: list[int],
        num_attached: int,
    ) -> bool:
        """Same decision as :meth:`_should_rebuild` without the edge scan.

        The surviving tree edges alone bound the alive edge count from
        below — the attached region is connected (``num_attached - 1``
        edges) and every orphan unit is a surviving fragment (``size - 1``
        edges each) — which bounds the flood estimate from below and settles
        the comparison whenever the incremental estimate is already cheaper
        than that, the common case by orders of magnitude.  Only near the
        boundary does the reference count the edges.
        """
        estimated_incremental = len(units) * (
            ATTACH_REQUEST_BITS + ATTACH_ACK_BITS
        ) + len(unattached) * REVERSAL_BITS
        surviving_tree_edges = (
            max(0, num_attached - 1) + len(unattached) - len(units)
        )
        lower_bound = (
            2 * surviving_tree_edges + network.num_alive
        ) * REBUILD_TOKEN_BITS
        if estimated_incremental <= self.rebuild_threshold * lower_bound:
            return False
        return self._should_rebuild(network, units, unattached)

    # ------------------------------------------------------------------ #
    # Rebuild-from-scratch fallback (shared)
    # ------------------------------------------------------------------ #
    def _rebuild(
        self,
        network: SensorNetwork,
        old_nodes: set[int],
        elected: ElectionResult | None = None,
    ) -> RepairResult:
        table = network.links
        root = network.root_id
        alive_ids = network.alive_node_ids()
        # The tree of the root's alive component: the array BFS restricted
        # to the alive nodes finds the component and the tree at once.
        node_ids, parent_ids = spanning_parents(
            table, root, network.degree_bound, table.row_mask(alive_ids)
        )
        flat = FlatTree.from_arrays(parent_ids, root, node_ids=node_ids)
        component_ids = node_ids.tolist()
        component = set(component_ids)
        # A distributed BFS construction floods a token over every usable
        # edge in both directions, in ascending (min, max) edge order, then
        # every node acks its chosen parent, in BFS discovery order.
        inside = table.row_mask(component_ids)
        low, high = table.edge_rows()
        usable = inside[low] & inside[high]
        flood_edges = list(
            zip(
                table.ids_of(low[usable]).tolist(),
                table.ids_of(high[usable]).tolist(),
            )
        )
        links: list[tuple[int, int]] = []
        sizes: list[int] = []
        for u, v in flood_edges:
            links.append((u, v))
            sizes.append(REBUILD_TOKEN_BITS)
            links.append((v, u))
            sizes.append(REBUILD_TOKEN_BITS)
        links.extend(zip(component_ids[1:], parent_ids[1:].tolist()))
        sizes.extend([REBUILD_ACK_BITS] * (len(component_ids) - 1))
        network.set_tree(flat)
        rounds = flat.height + 1
        before = network.ledger.counters_snapshot()
        if links:
            network.send_batch(links, sizes, protocol=self.protocol, require_edge=False)
        network.ledger.advance_round(rounds)
        after = network.ledger.counters_snapshot()
        telemetry = network.telemetry
        if telemetry.enabled:
            telemetry.event(
                "repair.rebuild",
                node=root,
                component_size=len(component),
                edges=len(flood_edges),
            )
        return RepairResult(
            strategy="rebuild",
            rebuilt=True,
            parent_changed=(),
            child_losses=(),
            removed=tuple(sorted(old_nodes - component)),
            detached=tuple(node for node in alive_ids if node not in component),
            control_bits=after.total_bits - before.total_bits,
            control_messages=after.messages - before.messages,
            rounds=rounds,
            election=elected,
        )


def attached_mask_vectorized(flat, alive):
    """Root-connectivity as one top-down array sweep over a flat tree.

    ``alive`` is a boolean mask over the canonical positions of ``flat`` —
    for the in-tree repair already and-ed with "the edge to my parent
    survives" — and a node is attached iff it is alive and its parent is
    attached, seeded at the root.  One whole-array pass per tree level, O(n)
    total, no per-node Python.  Shared by :class:`TreeRepair`'s array
    implementation and the standalone
    :class:`~repro.network.vector_field.VectorField`.

    Returns a new boolean mask; ``alive`` is not modified.
    """
    attached = alive.copy()
    parent = flat.parent
    for start, end in flat.level_spans[1:]:
        attached[start:end] &= attached[parent[start:end]]
    return attached
