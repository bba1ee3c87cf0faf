"""Sensor node state.

A node holds a multiset of non-negative integer *input items* (Section 2.1 of
the paper).  Most experiments use exactly one item per node, but the model —
and Theorem 5.1's reduction — allows several, so items are stored as a list.

Nodes also carry a small ``scratch`` dictionary used by protocols for the
per-node state that the paper charges against *space complexity* (e.g. the
active/passive flag and scaled values of Algorithm ``APX_MEDIAN2``).  The
scratch space never leaks into the communication accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro._util.validation import require_non_negative
from repro.exceptions import ConfigurationError


@dataclass
class SensorNode:
    """A single sensor holding zero or more integer items."""

    node_id: int
    items: list[int] = field(default_factory=list)
    is_root: bool = False
    scratch: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_non_negative(self.node_id, "node_id")
        validated: list[int] = []
        for item in self.items:
            validated.append(require_non_negative(item, "item"))
        self.items = validated

    # ------------------------------------------------------------------ #
    # Item management
    # ------------------------------------------------------------------ #
    def add_item(self, value: int) -> None:
        """Append one input item to this node's local multiset."""
        self.items.append(require_non_negative(value, "value"))

    def add_items(self, values: Iterable[int]) -> None:
        """Append several input items."""
        for value in values:
            self.add_item(value)

    def clear_items(self) -> None:
        """Remove all input items (used when re-seeding a reused network)."""
        self.items.clear()

    @property
    def item_count(self) -> int:
        """Number of items held locally, counting multiplicities."""
        return len(self.items)

    def single_item(self) -> int:
        """Return the node's item when it holds exactly one, else raise.

        The single-item case is the paper's default (Section 2.1); protocols
        that assume it call this accessor so a violated assumption fails loudly
        instead of silently dropping data.
        """
        if len(self.items) != 1:
            raise ConfigurationError(
                f"node {self.node_id} holds {len(self.items)} items; "
                "expected exactly one"
            )
        return self.items[0]

    # ------------------------------------------------------------------ #
    # Scratch state
    # ------------------------------------------------------------------ #
    def reset_scratch(self) -> None:
        """Drop all per-protocol scratch state."""
        self.scratch.clear()
