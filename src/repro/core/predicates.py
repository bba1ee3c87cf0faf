"""Re-export of the predicate types used by the core algorithms.

The predicate implementations live next to the COUNTP protocol in
:mod:`repro.protocols.predicates`; they are re-exported here because they are
part of the paper's core machinery (Section 3.1) and callers of the core API
frequently need to construct them.
"""

from repro.protocols.predicates import (
    AllItemsPredicate,
    LessThanPredicate,
    PowerThresholdPredicate,
    Predicate,
)

__all__ = [
    "AllItemsPredicate",
    "LessThanPredicate",
    "PowerThresholdPredicate",
    "Predicate",
]
