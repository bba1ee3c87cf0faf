"""Message objects exchanged between sensor nodes.

A :class:`Message` carries an opaque payload plus an explicit size in bits.
The size is declared by the sending protocol (using the helpers in
``repro._util.bits``) rather than derived from the Python object, because the
communication-complexity accounting must reflect the encoding a real
implementation would use, not Python's in-memory representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro._util.validation import require_non_negative
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Message:
    """A single transmission from ``sender`` to ``receiver``.

    Attributes:
        sender: node id of the transmitting node.
        receiver: node id of the receiving node.
        payload: protocol-defined content (kept opaque by the network layer).
        size_bits: number of bits charged for this transmission.
        protocol: label of the protocol that produced the message; used only
            for per-protocol breakdowns in the accounting layer.
        round_index: synchronous round in which the message was sent, when the
            sending protocol is round-based (otherwise ``None``).
    """

    sender: int
    receiver: int
    payload: Any
    size_bits: int
    protocol: str = "unknown"
    round_index: int | None = None
    metadata: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        require_non_negative(self.size_bits, "size_bits")
        if self.sender == self.receiver:
            raise ConfigurationError(
                f"a node cannot send a message to itself (node {self.sender})"
            )
