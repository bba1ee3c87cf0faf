"""Radio (link-layer) models.

The paper abstracts the communication mechanism away entirely, but follow-up
work it cites (Considine et al., Nath et al.) is motivated by lossy and
duplicating links.  The simulator therefore exposes a pluggable link model:

``ReliableRadio``
    Every transmission is delivered exactly once (the paper's implicit model).

``LossyRadio``
    Each transmission is lost with probability ``loss_rate``.  Tree
    protocols retransmit up to ``max_retries`` times; every attempt is
    charged to the ledger, so unreliable links inflate the measured
    communication complexity exactly as they would inflate energy use.

``DuplicatingRadio``
    Each transmission is delivered, and with probability ``duplicate_rate`` it
    is delivered twice.  Order-and-duplicate-insensitive sketches (LogLog and
    friends) are unaffected; naive SUM/COUNT aggregation is not, which the
    robustness tests demonstrate.

A radio draws through one method, :meth:`RadioModel.filter_batch`, over a
whole batch of links (:meth:`RadioModel.unsend` takes back the sends a budget
stopped).  The seeded radios hold no random stream: every decision is a hash of
the seed, the link and a counter.  The ``k``-th logical send over the
directed link ``sender -> receiver`` since :meth:`RadioModel.reset` draws
``h = hash64(k, salt=hash64(receiver, salt=hash64(sender, salt=seed)))`` for
its first attempt and ``hash64(a, salt=h)`` for retry ``a``; a draw below
``rate * 2**64`` is a loss (or a duplicate).  So what a synchronous round
delivers cannot depend on the order its links are listed in or on how its
sends are split into batches: every execution path may send the links in
whatever shape it holds them.
"""

from __future__ import annotations

import abc
import os

import numpy as np

from repro._util.validation import require_non_negative, require_probability
from repro.exceptions import DeliveryError
from repro.network.accounting import SMALL_BATCH, link_pairs
from repro.sketches.hashing import hash64, hash64_array


class RadioModel(abc.ABC):
    """Interface for link models used by :class:`~repro.network.SensorNetwork`."""

    @abc.abstractmethod
    def filter_batch(self, links) -> tuple[np.ndarray, np.ndarray, int | None]:
        """Send one logical message per ``(sender, receiver)`` link.

        ``links`` is a tuple list or a ``(k, 2)`` integer array.  Returns
        ``(attempts, copies, failed)``: int64 arrays of the transmissions
        each send made (every one is charged) and of the copies it delivered
        (at most ``attempts``), and the index of the first link whose send
        failed for good, or ``None``.  The links after ``failed`` are not
        sent: the caller charges the ``[:failed]`` prefix and raises
        :class:`~repro.exceptions.DeliveryError`.
        """

    def unsend(self, links) -> None:
        """Take back the sends of ``links``, the tail of the last batch that
        was drawn but never made (a per-node budget stopped the round first).
        A radio that counts nothing has nothing to take back."""

    def reset(self) -> None:
        """Forget the per-experiment state (a seeded radio's send counts)."""


class ReliableRadio(RadioModel):
    """Perfect links: one attempt, one delivered copy."""

    def filter_batch(self, links):
        once = np.ones(len(links), dtype=np.int64)
        return once, once, None


class _HashedRadio(RadioModel):
    """A radio whose draws are hashes of the seed, the link, the link's send
    count and the attempt (see the module docstring).  ``seed=None`` draws a
    fresh seed at every :meth:`reset`."""

    def __init__(self, rate: float, seed: int | None) -> None:
        #: A draw below this happens with probability ``rate``.
        self._threshold = int(rate * 2.0**64)
        self._seed = seed
        self.reset()

    def reset(self) -> None:
        #: Logical sends per directed link so far: the ``k`` of its next send.
        self._sends: dict[tuple[int, int], int] = {}
        #: Each link's ``hash64(receiver, salt=hash64(sender, salt=seed))``,
        #: as the scalar path has hashed it.
        self._link_salts: dict[tuple[int, int], int] = {}
        self._salt = int.from_bytes(os.urandom(8), "big") if self._seed is None else self._seed

    def filter_batch(self, links):
        if isinstance(links, np.ndarray) or len(links) > SMALL_BATCH:
            pairs = links if isinstance(links, np.ndarray) else link_pairs(links)
            senders, receivers = pairs[:, 0], pairs[:, 1]
            counts = self._count(zip(senders.tolist(), receivers.tolist()))
            link_salts = hash64_array(receivers, salt=hash64_array(senders, salt=self._salt))
            first = hash64_array(counts, salt=link_salts)
        else:
            # A few sends: the scalar hash64 (the same bits as hash64_array),
            # with each link's salt kept, where numpy's per-call cost would
            # dominate the small batches of a multi-tenant epoch.
            salt, link_salts = self._salt, self._link_salts
            draws = []
            for key, k in zip(links, self._count(links)):
                link_salt = link_salts.get(key)
                if link_salt is None:
                    link_salt = link_salts[key] = hash64(key[1], salt=hash64(key[0], salt=salt))
                draws.append(hash64(k, salt=link_salt))
            first = np.array(draws, dtype=np.uint64)
        attempts, copies, failed = self._outcomes(first)
        if failed is not None:
            self.unsend(links[failed + 1 :])  # never sent: the round stops at the failure
        return attempts, copies, failed

    def _count(self, keys) -> list[int]:
        """Each ``(sender, receiver)`` key's ``k``, counting the sends as made."""
        sends = self._sends
        counts = []
        for key in keys:
            k = sends.get(key, 0)
            sends[key] = k + 1
            counts.append(k)
        return counts

    def unsend(self, links) -> None:
        sends = self._sends
        for sender, receiver in links.tolist() if isinstance(links, np.ndarray) else links:
            sends[sender, receiver] -= 1

    @abc.abstractmethod
    def _outcomes(self, first) -> tuple[np.ndarray, np.ndarray, int | None]:
        """:meth:`filter_batch`'s result from each send's first draw (a
        ``uint64`` array)."""


class LossyRadio(_HashedRadio):
    """Links that drop each transmission independently with ``loss_rate``.

    A logical send is retried until it succeeds or ``max_retries`` attempts
    have been made; a permanent failure makes the sender raise
    :class:`DeliveryError` so protocols never silently compute on partial
    data.
    """

    def __init__(
        self,
        loss_rate: float,
        seed: int | None = 0,
        max_retries: int = 16,
    ) -> None:
        self.loss_rate = require_probability(loss_rate, "loss_rate")
        if self.loss_rate >= 1.0:
            raise DeliveryError("loss_rate of 1.0 makes delivery impossible")
        self.max_retries = require_non_negative(max_retries, "max_retries")
        super().__init__(self.loss_rate, seed)

    def _outcomes(self, first):
        threshold = np.uint64(self._threshold)
        lost = (first < threshold).nonzero()[0]
        attempts = np.ones(first.size, dtype=np.int64)
        if not lost.size:
            return attempts, attempts, None  # the common case: every first try arrived
        for retry in range(1, self.max_retries + 1):
            attempts[lost] += 1
            draws = hash64_array(np.full(lost.size, retry), salt=first[lost])
            lost = lost[draws < threshold]
            if not lost.size:
                break
        copies = np.ones(first.size, dtype=np.int64)
        copies[lost] = 0
        return attempts, copies, int(lost[0]) if lost.size else None


class DuplicatingRadio(_HashedRadio):
    """Links that occasionally deliver an extra copy of each message."""

    def __init__(self, duplicate_rate: float, seed: int | None = 0) -> None:
        self.duplicate_rate = require_probability(duplicate_rate, "duplicate_rate")
        super().__init__(self.duplicate_rate, seed)

    def _outcomes(self, first):
        threshold = self._threshold
        if threshold >> 64:  # a rate of 1.0: every draw is below it
            copies = np.full(first.size, 2, dtype=np.int64)
        else:
            copies = 1 + (first < np.uint64(threshold)).astype(np.int64)
        return copies, copies, None

