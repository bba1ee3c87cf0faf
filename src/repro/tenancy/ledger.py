"""The per-tenant split of the shared plan's charged bits.

The shared plan charges the network ledger once per leg — that is the
whole saving — but billing still has to be per tenant.
:class:`TenantLedgerSplit` keeps one **column** of bits per tenant, fed
from two sources:

* each leg's one-time registration broadcast is billed whole to the
  tenant whose admission created the leg (:meth:`charge_direct`);
* each epoch's per-leg traffic is divided over the leg's billing units —
  one ``(tenant, query_name)`` subscription each — by exact integer split
  (:meth:`split_epoch`): with ``B`` bits over ``k`` units, every unit is
  billed ``B // k`` and the first ``B % k`` units in sorted
  ``(tenant, query_name)`` order are billed one extra bit.

**The decomposition invariant**: because every remainder bit lands on
exactly one unit, each recorded amount is distributed *exactly* — no
rounding residue, ever — so the tenant columns always sum to precisely the
bits the shared plan charged the network ledger
(``sum(split.columns().values()) == split.total_bits`` and, through
:meth:`repro.tenancy.MultiTenantEngine.plan_bits`, to the engine's
``stream:*`` ledger keys).  The randomized suite in ``tests/test_tenancy.py``
asserts this equality per epoch under faults, losses and both execution
paths.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.exceptions import ConfigurationError


class TenantLedgerSplit:
    """Per-tenant bit columns that sum exactly to the shared plan's bits."""

    def __init__(self) -> None:
        self._columns: dict[str, int] = {}
        self._total = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def charge_direct(self, tenant: str, bits: int) -> None:
        """Bill ``bits`` of one leg's traffic entirely to one tenant.

        Used for the costs one registration *caused* rather than shares:
        the leg's announcement broadcast.
        """
        if bits < 0:
            raise ConfigurationError(f"bits must be non-negative, got {bits}")
        if bits == 0:
            return
        self._columns[tenant] = self._columns.get(tenant, 0) + bits
        self._total += bits

    def split_epoch(
        self,
        leg_bits: Mapping[str, int],
        subscriptions: Mapping[str, Sequence[tuple[str, str]]],
    ) -> dict[str, int]:
        """Divide one epoch's per-leg bits over each leg's billing units.

        Returns this epoch's per-tenant shares (tenants billed zero are
        omitted).  Every leg's bits are distributed exactly — see the
        module docstring for the quotient/remainder rule.
        """
        epoch_shares: dict[str, int] = {}
        for leg, bits in leg_bits.items():
            if bits < 0:
                raise ConfigurationError(
                    f"leg {leg!r} bits must be non-negative, got {bits}"
                )
            if bits == 0:
                continue
            units = sorted(subscriptions.get(leg, ()))
            if not units:
                raise ConfigurationError(
                    f"leg {leg!r} charged {bits} bits but has no subscribers"
                )
            share, remainder = divmod(bits, len(units))
            for index, (tenant, _query_name) in enumerate(units):
                billed = share + (1 if index < remainder else 0)
                if billed == 0:
                    continue
                epoch_shares[tenant] = epoch_shares.get(tenant, 0) + billed
                self._columns[tenant] = self._columns.get(tenant, 0) + billed
            self._total += bits
        return epoch_shares

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @property
    def total_bits(self) -> int:
        """Every bit recorded so far (equals the column sum, always)."""
        return self._total

    def columns(self) -> dict[str, int]:
        """Tenant -> total billed bits."""
        return dict(self._columns)

    def column(self, tenant: str) -> int:
        """One tenant's total billed bits (zero if never billed)."""
        return self._columns.get(tenant, 0)

    def decomposition_holds(self) -> bool:
        """The invariant itself: columns sum exactly to the recorded total."""
        return sum(self._columns.values()) == self._total
