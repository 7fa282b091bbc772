"""Payment routing and royalty splits.

All money is integer micro-credits; shares are four-digit decimals, so
one whole share is exactly 10000 units. Splits merge obligations per
beneficiary before flooring and hand the rounding residue to the
provider, which keeps every split conserving the price to the unit.
"""

from dataclasses import dataclass
from decimal import Decimal

from .canon import INT_MAX, fixed4
from .errors import BalanceOverflow, InsufficientFunds, OverSubscribed, UnknownAccount

SHARE_UNITS = 10_000

ROYALTY_EVENTS = ("sublicense", "downstream_sale")


@dataclass(frozen=True)
class RoyaltyObligation:
    beneficiary: str
    share: Decimal  # fraction of the price, four-digit fixed point

    def __post_init__(self):
        object.__setattr__(self, "share", fixed4(self.share))
        if self.share < 0 or self.share > 1:
            raise OverSubscribed(f"share out of range [0,1]: {self.share}")


@dataclass(frozen=True)
class SplitPlan:
    """Exact payout lines for one price; the provider line absorbs
    whatever flooring left over and always comes last."""

    price: int
    lines: tuple  # ((recipient_id, amount), ...)

    def to_value(self):
        return {
            "amount": self.price,
            "split": [{"to": rid, "amount": amount} for rid, amount in self.lines],
        }


def share_units(share):
    """Whole 1/10000 units in a four-digit share; exact by construction."""
    return int(fixed4(share).scaleb(4))


def compute_split(price, provider_id, obligations=()):
    """Deterministic split of an integer price across royalty holders.

    Same-beneficiary obligations merge before flooring (one payout line
    per beneficiary). Each line gets floor(price * units / 10000); the
    provider takes the remainder. Shares summing past 1 raise.
    """
    if isinstance(price, bool) or not isinstance(price, int) or price < 0:
        raise ValueError(f"price must be a non-negative integer, got {price!r}")
    merged = {}
    order = []
    for obligation in obligations:
        if obligation.beneficiary not in merged:
            merged[obligation.beneficiary] = 0
            order.append(obligation.beneficiary)
        merged[obligation.beneficiary] += share_units(obligation.share)
    total_units = sum(merged.values())
    if total_units > SHARE_UNITS:
        raise OverSubscribed(
            f"royalty shares sum to {total_units} units, past the whole price"
        )
    lines = []
    paid = 0
    for beneficiary in order:
        amount = price * merged[beneficiary] // SHARE_UNITS
        paid += amount
        lines.append((beneficiary, amount))
    lines.append((provider_id, price - paid))
    return SplitPlan(price=price, lines=tuple(lines))


def aggregate_obligations(lineage, event):
    """Obligations owed along an ownership chain, root first.

    ``sublicense`` draws on royalty_rate, ``downstream_sale`` on
    rev_share; each ancestor's issuer is the beneficiary. Zero-rate
    links drop out.
    """
    if event not in ROYALTY_EVENTS:
        raise ValueError(f"unknown royalty event {event!r}")
    field = "royalty_rate" if event == "sublicense" else "rev_share"
    obligations = []
    for token in lineage:
        share = getattr(token.terms, field)
        if share > 0:
            obligations.append(RoyaltyObligation(beneficiary=token.metadata.issuer_id, share=share))
    if sum(share_units(o.share) for o in obligations) > SHARE_UNITS:
        raise OverSubscribed("lineage royalties exceed the whole price")
    return obligations


class WalletSystem:
    """Integer balances with every movement recorded as a ledger payment."""

    def __init__(self, ledger):
        self._ledger = ledger
        self._balances = {}
        self.on_transfer = None  # hook(from_id, to_id, amount, purpose)

    def open_account(self, agent_id, balance=0):
        if agent_id in self._balances:
            raise UnknownAccount(f"account {agent_id!r} already open")
        if isinstance(balance, bool) or not isinstance(balance, int) or not 0 <= balance <= INT_MAX:
            raise ValueError("opening balance must be a non-negative 64-bit integer")
        self._balances[agent_id] = balance

    def balance(self, agent_id):
        self._require(agent_id)
        return self._balances[agent_id]

    def balances(self):
        return dict(self._balances)

    def _require(self, agent_id):
        if agent_id not in self._balances:
            raise UnknownAccount(f"no account for {agent_id!r}")

    def _record(self, from_id, to_id, amount, purpose, session_id):
        payload = {"from": from_id, "to": to_id, "amount": amount, "purpose": purpose}
        if session_id:
            payload["session_id"] = session_id
        entry = self._ledger.append("payment", payload)
        if self.on_transfer is not None:
            self.on_transfer(from_id, to_id, amount, purpose)
        return entry

    def settle(self, payer_id, plan, purpose="settlement", session_id=""):
        """Pay out a whole split or nothing.

        The balances after the split are worked out first. A split that
        would leave a balance past the 64-bit range, which no ledger or
        transcript line can carry, raises before anything moves; then
        the new balances are stored in one update and the ledger entries
        written, so a failed settle leaves neither balances nor chain
        touched.
        """
        self._require(payer_id)
        for recipient_id, _ in plan.lines:
            self._require(recipient_id)
        if self._balances[payer_id] < plan.price:
            raise InsufficientFunds(
                f"{payer_id!r} holds {self._balances[payer_id]}, needs {plan.price}"
            )
        after = {payer_id: self._balances[payer_id]}
        for recipient_id, _ in plan.lines:
            after.setdefault(recipient_id, self._balances[recipient_id])
        for recipient_id, amount in plan.lines:
            after[payer_id] -= amount
            after[recipient_id] += amount
        for agent_id, balance in after.items():
            if balance > INT_MAX:
                raise BalanceOverflow(f"{agent_id!r} would hold {balance}, past the 64-bit range")
        self._balances.update(after)
        return [
            self._record(payer_id, recipient_id, amount, purpose, session_id)
            for recipient_id, amount in plan.lines
        ]
