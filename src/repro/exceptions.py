"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration problems from protocol failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class TopologyError(ConfigurationError):
    """Raised when a requested topology cannot be built (e.g. disconnected)."""


class DuplicateAxisValueError(ConfigurationError, ValueError):
    """Raised when a sweep axis repeats a value (the seed-reuse footgun).

    A repeated axis value would collapse two intended cells into one cache
    key — ``seeds=(0, 1, 1)`` silently runs two cells where the author
    budgeted three, and every downstream average is computed over fewer
    independent samples than reported.  Also a :class:`ValueError`, so
    generic callers that validate argument values catch it naturally.
    """


class EmptyNetworkError(ReproError):
    """Raised when a query is issued against a network holding no items."""


class ProtocolError(ReproError):
    """Raised when a protocol is invoked in an invalid state."""


class PredicateError(ProtocolError):
    """Raised when a predicate cannot be encoded or evaluated locally."""


class DeliveryError(ProtocolError):
    """Raised when the radio model permanently fails to deliver a message."""

    #: The failed link's position in the batch it was sent in (0 for a
    #: single send): the links before it were delivered and charged, the
    #: links after it were not sent.
    index = 0


class DeadNodeError(ProtocolError):
    """Raised when a transmission involves a node that has crashed.

    Protocols never trigger this in normal operation — the self-healing tree
    spans only alive, root-connected nodes — so it firing means a traversal
    used stale topology state, which must fail loudly rather than charge
    phantom traffic to a dead radio.
    """


class BudgetExceededError(ReproError):
    """Raised when a protocol exceeds an explicitly configured bit budget."""

    #: The position, in the batch charged, of the link whose transmission
    #: crossed the budget (0 for a single charge): it was charged, the links
    #: after it were not.
    index = 0


class TraceFormatError(ReproError, ValueError):
    """Raised when a telemetry JSONL trace has a line that is not a JSON object.

    The message names the file and the 1-based line: a truncated write
    leaves invalid JSON on the last line, and a stray value such as ``[1, 2]``
    is valid JSON but no record.
    """


class SweepWorkerError(ReproError):
    """Raised when a sweep's worker process dies before its cells finish.

    The message names the unfinished cells; every cell that did finish is
    already in the cache, so a re-run executes only the named ones.
    """
