"""Charged root fail-over: leader election and tree re-rooting.

Until now the query root was the one node the simulator refused to kill —
real deployments of Patt-Shamir-style aggregate computation must survive
the query node too.  Chlebus–Kowalski–Olkowski ("Deterministic
Fault-Tolerant Distributed Computing in Linear Time and Communication")
make the case that surviving a crash must be paid for in the same
communication currency as the computation itself, and the tree-based
leader elections of the distributed-systems literature (Aspnes's notes,
Ch. 6) give the standard cost shape: candidate ids converge up surviving
structure, the winner floods back down.  :class:`RootElection` implements
that model as a *charged* protocol rather than a free oracle handover.

When the root dies, the old spanning tree decomposes into *surviving
fragments* — maximal connected pieces of tree edges whose endpoints are
alive and whose graph edge still exists.  The election runs over the
*electorate*: the connected component of the alive graph containing the
highest surviving node id, which wins (deterministic, and every node can
verify it locally once the flood reaches it).  Three phases, each billed
message by message through the radio models under the ``faults:election``
ledger key (:attr:`RootElection.protocol`):

1. **candidate convergecast** — within every electorate fragment each
   member forwards the best id it has seen to its surviving parent, one
   :data:`CANDIDATE_BITS` frame per surviving tree edge, in the canonical
   bottom-up order (deepest level first, ascending id within a level);
2. **winner flood** — the fragment tops compete by flooding, and the
   winning announcement crosses every alive graph edge of the electorate
   in both directions: two :data:`WINNER_BITS` tokens per edge, in
   ascending ``(min, max)`` edge order;
3. **re-rooting flips** — the winner claims the root role by reversing
   the parent pointers along the path from itself to its fragment's old
   top, one :data:`REROOT_FLIP_BITS` notification per reversed edge
   (exactly the pointer-flip mechanism the adoption handshake uses).

Like every other protocol in the repository, the election follows
``network.execution``.  The link sequence above is built in one readable
place, :meth:`RootElection._plan_reference`, as a list of ``(sender,
receiver)`` tuples; ``"per-edge"`` networks charge it message by message
through :meth:`~repro.network.SensorNetwork.send`, every other mode ships
it through one :meth:`~repro.network.SensorNetwork.send_batch`.  With numpy
and the dense ids ``0..n-1`` behind ``network.alive_mask`` those other
modes build the *same* sequence as one ``(k, 2)`` link array instead
(:meth:`RootElection._plan_arrays`: the electorate BFS on a CSR cut from
the graph when the election starts — not cached, so nothing to invalidate
— fragments and convergecast senders as masks over the
:class:`~repro.network.FlatTree`, the flood as one edge-table filter), so
an election over a 20,000-node field builds no million-tuple list.  Radio
draws, the :class:`~repro.exceptions.DeliveryError` prefix charge and the
ledger are those of the reference either way (enforced by the
election-equivalence suites); a network without numpy (one-time
:class:`~repro._util.fastpath.FallbackWarning`) or with other ids uses
the reference builder.

:meth:`RootElection.elect` only *decides and charges*: it re-roots the
network's identity (:meth:`~repro.network.SensorNetwork.set_root`) and
returns an :class:`ElectionResult`, leaving the tree untouched.
Installing the re-rooted tree — and re-attaching the fragments that did
not contain the winner — is :class:`~repro.faults.TreeRepair`'s job: a
repair finding a dead root defers to its configured election and then
runs a repair pass *seeded* with the winner's re-rooted fragment, so the
other fragments re-attach as units through ordinary charged adoption
handshakes.  The streaming layer migrates its summary caches along the
reversed root path (:meth:`~repro.streaming.ContinuousQueryEngine.\
apply_root_change`) instead of cold-resyncing the field.

Nodes outside the electorate (alive but cut off from the winner) take no
part and stay detached, exactly like survivors of a partition — they are
re-adopted by a later repair once connectivity returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from operator import contains
from typing import Any

from repro._util.fastpath import np, warn_fallback
from repro.exceptions import ConfigurationError
from repro.network.simulator import SensorNetwork

#: Candidate-id frame forwarded up a surviving fragment during the
#: convergecast phase (type tag + the best node id seen so far).
CANDIDATE_BITS = 32
#: Winner-announcement token flooded over every alive electorate edge.
WINNER_BITS = 16
#: Pointer-flip notification along the winner's reversed root path.
REROOT_FLIP_BITS = 16


@dataclass(frozen=True)
class ElectionResult:
    """What one charged root election decided, and what it cost.

    ``reversed_path`` lists the winner's old ancestor chain inside its
    fragment, winner first; ``flips`` holds the resulting ``(node, new
    parent)`` pointer reversals (one per reversed edge — the winner itself
    simply drops its parent).  ``winner_fragment`` is the sorted member
    list of the winner's surviving fragment: the already-spanned seed the
    follow-up repair grows its adoption cascade from.  ``participants``
    counts the electorate (alive nodes graph-connected to the winner) and
    ``fragments`` its surviving-fragment count.  All cost fields cover the
    election only — the follow-up repair bills separately under its own
    ledger key.
    """

    old_root: int
    new_root: int
    participants: int
    fragments: int
    reversed_path: tuple[int, ...]
    flips: tuple[tuple[int, int], ...]
    winner_fragment: tuple[int, ...]
    election_bits: int
    election_messages: int
    rounds: int


@dataclass
class _Plan:
    """What one election will send and decide, before anything is charged.

    ``links`` / ``sizes`` are a tuple list and an int list from the
    reference builder, a ``(k, 2)`` and a ``(k,)`` int64 array from the
    array builder; the sequence is the same.
    """

    links: Any
    sizes: Any
    participants: int
    fragments: int
    convergecast_rounds: int
    flood_rounds: int
    reversed_path: list[int]
    winner_fragment: list[int]


def use_arrays(network: SensorNetwork, feature: str) -> bool:
    """Whether the array implementation of ``feature`` serves ``network``.

    It needs numpy and the dense ids ``0..n-1`` behind
    ``network.alive_mask``; a ``"per-edge"`` network always runs the
    reference.  Missing numpy is loud (once per feature), other ids are not:
    they are a property of the input, not of the installation.
    """
    if network.execution == "per-edge":
        return False
    if np is None:
        warn_fallback(feature)
        return False
    return network.alive_mask is not None


def surviving_edge_mask(flat, adjacency):
    """Per canonical position of ``flat``: does the graph still carry the
    tree edge to the parent?  (``True`` at the root, which has none.)

    The graph is the one owner of link state and keeps no change log, so a
    :class:`~repro.faults.LinkDrop` — or a direct ``graph.remove_edge`` —
    under a live tree edge is only visible by looking: one C-level dict
    probe per tree edge.
    """
    mask = np.ones(flat.num_nodes, dtype=bool)
    if flat.num_nodes > 1:
        parents = flat.ids_array[flat.parent[1:]].tolist()
        mask[1:] = np.fromiter(
            map(
                contains,
                map(adjacency.__getitem__, parents),
                islice(flat.node_ids, 1, None),
            ),
            dtype=bool,
            count=len(parents),
        )
    return mask


def tree_fragments(
    network: SensorNetwork, members: list[int]
) -> tuple[list[list[int]], dict[int, int], dict[int, int | None]]:
    """Group ``members`` into maximal fragments of surviving tree edges.

    A surviving tree edge has both endpoints in ``members`` (ascending ids)
    and its graph edge intact.  Returns ``(fragments, frag_id,
    frag_parent)``: member lists per fragment, the node → fragment index,
    and each node's surviving old parent *within its fragment* (``None`` at
    the fragment top).  A fragment is a subtree of the old tree, so exactly
    one member has no in-fragment parent; nodes outside the old tree (alive
    but detached, or rejoining) come out as singletons.  O(members): the
    repair calls it on the orphaned nodes (its *orphan units*), the
    reference election on the electorate.
    """
    tree = network.tree
    get_parent = tree.parent.get
    get_children = tree.children.get
    adjacency = network.graph._adj
    member_set = set(members)
    frag_id: dict[int, int] = {}
    frag_parent: dict[int, int | None] = {}
    fragments: list[list[int]] = []
    for start in members:  # ascending ids: deterministic numbering
        if start in frag_id:
            continue
        # ``collected`` doubles as the BFS queue: the cursor walks it while
        # discovery appends, which fixes the breadth-first member order the
        # repair's adoption waves follow.
        collected = [start]
        fragment = len(fragments)
        frag_id[start] = fragment
        cursor = 0
        while cursor < len(collected):
            node = collected[cursor]
            cursor += 1
            parent = get_parent(node)
            neighbors = adjacency[node]
            if (
                parent is not None
                and parent in member_set
                and parent in neighbors
            ):
                frag_parent[node] = parent
                if parent not in frag_id:
                    frag_id[parent] = fragment
                    collected.append(parent)
            else:
                frag_parent[node] = None
            for child in get_children(node, ()):
                if (
                    child in member_set
                    and child in neighbors
                    and child not in frag_id
                ):
                    frag_id[child] = fragment
                    collected.append(child)
        fragments.append(collected)
    return fragments, frag_id, frag_parent


class RootElection:
    """Highest-surviving-id election over the alive component, charged."""

    def __init__(self, protocol: str = "faults:election") -> None:
        #: Ledger key every election message is charged under.
        self.protocol = protocol

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def elect(self, network: SensorNetwork) -> ElectionResult:
        """Elect the highest surviving id reachable from it; charge the bill.

        Requires the current root to be dead (a live root needs no
        successor).  On return the network's *identity* is re-rooted —
        ``network.root_id`` is the winner, the node flags updated via
        :meth:`~repro.network.SensorNetwork.set_root` — but the spanning
        tree is untouched: the caller (normally
        :meth:`~repro.faults.TreeRepair.repair`) installs the re-rooted
        tree and re-attaches the remaining fragments as one seeded repair
        pass.  Raises :class:`~repro.exceptions.ConfigurationError` when
        no node survives to elect, and propagates
        :class:`~repro.exceptions.DeliveryError` if an election message
        permanently fails (the delivered prefix stays charged, identically
        under every execution mode).
        """
        telemetry = network.telemetry
        with telemetry.span("election") as span:
            result = self._elect_impl(network)
            if telemetry.enabled:
                span.annotate(
                    old_root=result.old_root,
                    new_root=result.new_root,
                    participants=result.participants,
                    fragments=result.fragments,
                )
                telemetry.count("election.runs", 1)
                telemetry.event(
                    "election",
                    node=result.new_root,
                    old_root=result.old_root,
                    new_root=result.new_root,
                    participants=result.participants,
                )
        return result

    def _elect_impl(self, network: SensorNetwork) -> ElectionResult:
        old_root = network.root_id
        if network.is_alive(old_root):
            raise ConfigurationError(
                f"root {old_root} is alive; an election needs a dead root"
            )
        alive = network.alive_node_ids()
        if not alive:
            raise ConfigurationError(
                "no surviving node to elect; the whole field is dead"
            )
        winner = alive[-1]  # ids ascend: the highest surviving id
        if use_arrays(network, "array root election"):
            plan = self._plan_arrays(network, winner)
        else:
            plan = self._plan_reference(network, winner)

        before = network.ledger.counters_snapshot()
        if len(plan.links):
            if network.execution == "per-edge":
                for link, size in zip(plan.links, plan.sizes):
                    network.send(
                        link[0],
                        link[1],
                        ("election", winner),
                        size,
                        protocol=self.protocol,
                        require_edge=False,
                    )
            else:
                network.send_batch(
                    plan.links, plan.sizes, protocol=self.protocol, require_edge=False
                )
        # One pointer flip per reversed edge: each old ancestor now answers
        # to the path member below it.
        path = plan.reversed_path
        flips = tuple(zip(path[1:], path))
        rounds = plan.convergecast_rounds + plan.flood_rounds + len(flips)
        network.ledger.advance_round(rounds)
        after = network.ledger.counters_snapshot()

        network.set_root(winner)
        return ElectionResult(
            old_root=old_root,
            new_root=winner,
            participants=plan.participants,
            fragments=plan.fragments,
            reversed_path=tuple(path),
            flips=flips,
            winner_fragment=tuple(plan.winner_fragment),
            election_bits=after.total_bits - before.total_bits,
            election_messages=after.messages - before.messages,
            rounds=rounds,
        )

    # ------------------------------------------------------------------ #
    # The reference builder: one tuple per message, readable end to end
    # ------------------------------------------------------------------ #
    def _plan_reference(self, network: SensorNetwork, winner: int) -> _Plan:
        # The electorate: alive nodes graph-connected to the winner.  BFS
        # depth doubles as the winner flood's round count.
        adjacency = network.graph._adj
        is_alive = network.is_alive
        depth_from_winner = {winner: 0}
        frontier = [winner]
        flood_rounds = 0
        while frontier:
            next_frontier: list[int] = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if neighbor not in depth_from_winner and is_alive(neighbor):
                        depth_from_winner[neighbor] = flood_rounds + 1
                        next_frontier.append(neighbor)
            if next_frontier:
                flood_rounds += 1
            frontier = next_frontier
        electorate = sorted(depth_from_winner)

        fragments, frag_id, frag_parent = tree_fragments(network, electorate)
        old_depth = network.tree.depth

        # Phase 1 — candidate convergecast: one frame per surviving tree
        # edge, canonical bottom-up order across all fragments at once.
        senders = [node for node in electorate if frag_parent[node] is not None]
        senders.sort(key=lambda node: (-old_depth[node], node))
        links = [(node, frag_parent[node]) for node in senders]
        sizes = [CANDIDATE_BITS] * len(links)
        convergecast_rounds = 0
        for members in fragments:
            if len(members) > 1:
                depths = [old_depth[member] for member in members]
                convergecast_rounds = max(
                    convergecast_rounds, max(depths) - min(depths)
                )

        # Phase 2 — winner flood: both directions of every alive electorate
        # edge, ascending (min, max) edge order.
        for u in electorate:
            for v in sorted(adjacency[u]):
                if u < v and v in depth_from_winner:
                    links.append((u, v))
                    sizes.append(WINNER_BITS)
                    links.append((v, u))
                    sizes.append(WINNER_BITS)

        # Phase 3 — the winner claims the root role: pointer flips up its
        # old ancestor chain inside its own fragment.
        reversed_path = [winner]
        while (parent := frag_parent[reversed_path[-1]]) is not None:
            links.append((reversed_path[-1], parent))
            sizes.append(REROOT_FLIP_BITS)
            reversed_path.append(parent)

        return _Plan(
            links=links,
            sizes=sizes,
            participants=len(electorate),
            fragments=len(fragments),
            convergecast_rounds=convergecast_rounds,
            flood_rounds=flood_rounds,
            reversed_path=reversed_path,
            winner_fragment=sorted(fragments[frag_id[winner]]),
        )

    # ------------------------------------------------------------------ #
    # The array builder: the same plan from masks and one edge table
    # ------------------------------------------------------------------ #
    def _plan_arrays(self, network: SensorNetwork, winner: int) -> _Plan:
        adjacency = network.graph._adj
        alive = network.alive_mask
        num_ids = alive.size

        # The graph as it is right now, as a CSR edge table (``heads`` of
        # node u are ``heads[offsets[u]:offsets[u + 1]]``).
        rows = [adjacency[node] for node in range(num_ids)]
        degree = np.fromiter(map(len, rows), dtype=np.int64, count=num_ids)
        heads = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(degree.sum())
        )
        offsets = np.concatenate(([0], np.cumsum(degree)))

        # The electorate: BFS from the winner, one whole frontier per round
        # (the round count is the winner flood's).  The dead start out
        # "seen", so the search never enters them.
        seen = ~alive
        seen[winner] = True
        frontier = np.array([winner], dtype=np.int64)
        flood_rounds = 0
        while True:
            counts = degree[frontier]
            ends = np.cumsum(counts)
            reached = heads[
                np.arange(int(ends[-1]), dtype=np.int64)
                + np.repeat(offsets[frontier] - ends + counts, counts)
            ]
            reached = reached[~seen[reached]]
            if not reached.size:
                break
            seen[reached] = True
            frontier = np.unique(reached)
            flood_rounds += 1
        voting = seen & alive

        # Surviving tree edges, by the child's position in the old tree:
        # both ends vote and the graph still carries the edge.  The old
        # root is dead, so nothing hangs from position 0.
        flat = network.flat_tree
        ids = flat.ids_array
        parent = flat.parent
        votes = voting[ids]
        survives = votes & surviving_edge_mask(flat, adjacency)
        survives[0] = False
        survives[1:] &= votes[parent[1:]]
        # Fragment top of every position, settled level by level.
        top = np.arange(flat.num_nodes, dtype=np.int64)
        for start, end in flat.level_spans[1:]:
            window = slice(start, end)
            top[window] = np.where(survives[window], top[parent[window]], top[window])

        # Phase 1 — one candidate frame per surviving tree edge, bottom up.
        senders = flat.bottom_up[survives[flat.bottom_up]]
        # Phase 2 — the flood: every electorate edge once, as (min, max).
        tails = np.repeat(np.arange(num_ids, dtype=np.int64), degree)
        crossing = (tails < heads) & voting[tails] & voting[heads]
        edge_keys = np.sort(tails[crossing] * num_ids + heads[crossing])
        low, high = np.divmod(edge_keys, num_ids)
        # Phase 3 — the winner's old ancestor chain inside its fragment.
        reversed_path = [winner]
        position = int(flat.positions_of(np.array([winner]))[0])
        if position < 0:  # a detached survivor: no old tree around it
            winner_fragment = [winner]
        else:
            winner_fragment = np.sort(ids[top == top[position]]).tolist()
            while survives[position]:
                position = int(parent[position])
                reversed_path.append(int(ids[position]))

        flood_start = senders.size
        flood_end = flood_start + 2 * low.size
        links = np.empty((flood_end + len(reversed_path) - 1, 2), dtype=np.int64)
        sizes = np.empty(len(links), dtype=np.int64)
        links[:flood_start, 0] = ids[senders]
        links[:flood_start, 1] = ids[parent[senders]]
        sizes[:flood_start] = CANDIDATE_BITS
        flood = links[flood_start:flood_end].reshape(-1, 2, 2)  # edge, direction, end
        flood[:, 0, 0] = flood[:, 1, 1] = low
        flood[:, 0, 1] = flood[:, 1, 0] = high
        sizes[flood_start:flood_end] = WINNER_BITS
        links[flood_end:, 0] = reversed_path[:-1]
        links[flood_end:, 1] = reversed_path[1:]
        sizes[flood_end:] = REROOT_FLIP_BITS

        participants = int(voting.sum())
        return _Plan(
            links=links,
            sizes=sizes,
            participants=participants,
            fragments=participants - int(senders.size),
            convergecast_rounds=int((flat.depth - flat.depth[top]).max()),
            flood_rounds=flood_rounds,
            reversed_path=reversed_path,
            winner_fragment=winner_fragment,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"RootElection(protocol={self.protocol!r})"
