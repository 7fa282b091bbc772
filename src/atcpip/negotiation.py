"""Term negotiation: policy evaluation, counters, concessions, arbitration.

Policies bound what an agent will sign. ``evaluate_offer`` answers with
accept, a counter delta that sets each out-of-bounds field to a value
inside the evaluator's own bounds, or a rejection when a non-negotiable
field is out of bounds. ``revise_terms`` is the other side of the loop:
given the countered terms, it takes in-bound counter values verbatim
and otherwise concedes partway toward them. When both parties' numeric
bounds overlap, a counter always lands inside the proposer's bounds as
well, which is what makes the loop converge instead of oscillating.

Risk tiers give providers a cheaper path: counters whose differences
stay within the tier's thresholds are auto-accepted without another
revision round.
"""

from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal

from .canon import fixed4
from .errors import InvalidTerms, UnknownPath
from .terms import FIELD_ORDER, TAG_FIELDS, TermsDelta

NUMERIC_PATHS = ("royalty_rate", "rev_share", "upfront_fee")
CHOICE_PATHS = ("transferability", "dispute_resolution", "duration", "jurisdiction", "governing_law")


@dataclass(frozen=True)
class NumericBound:
    minimum: object
    maximum: object

    def __post_init__(self):
        if isinstance(self.minimum, (str, Decimal)) or isinstance(self.maximum, (str, Decimal)):
            object.__setattr__(self, "minimum", fixed4(self.minimum))
            object.__setattr__(self, "maximum", fixed4(self.maximum))
        if self.minimum > self.maximum:
            raise ValueError(f"empty bound: [{self.minimum}, {self.maximum}]")

    def contains(self, value):
        return self.minimum <= value <= self.maximum

    def clamp(self, value):
        return min(max(value, self.minimum), self.maximum)


@dataclass(frozen=True)
class ChoiceBound:
    """Allowed values in preference order; first entry is what counters propose."""

    allowed: tuple

    def __post_init__(self):
        if not self.allowed:
            raise ValueError("choice bound needs at least one allowed value")
        object.__setattr__(self, "allowed", tuple(self.allowed))


@dataclass(frozen=True)
class SetBound:
    """Tag fields: offered tags must be a subset of allowed."""

    allowed: frozenset

    def __post_init__(self):
        if not self.allowed:
            raise ValueError("set bound needs at least one allowed tag")
        object.__setattr__(self, "allowed", frozenset(self.allowed))


@dataclass(frozen=True)
class NegotiationPolicy:
    bounds: dict = field(default_factory=dict)
    non_negotiable: frozenset = frozenset()
    max_rounds: int = 4
    concession_step: Decimal = Decimal("0.5000")

    def __post_init__(self):
        object.__setattr__(self, "non_negotiable", frozenset(self.non_negotiable))
        object.__setattr__(self, "concession_step", fixed4(self.concession_step))
        if not Decimal(0) < self.concession_step <= 1:
            raise ValueError("concession_step must be in (0, 1]")
        rounds = self.max_rounds
        if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 0:
            raise ValueError("max_rounds must be a non-negative integer")
        for path, bound in self.bounds.items():
            if path not in FIELD_ORDER:
                raise UnknownPath(f"policy bounds unknown field {path!r}")
            if path in NUMERIC_PATHS:
                if not isinstance(bound, NumericBound):
                    raise TypeError(f"{path} takes a NumericBound")
                if path == "upfront_fee" and not all(
                    type(edge) is int for edge in (bound.minimum, bound.maximum)
                ):
                    raise ValueError("upfront_fee bound edges must be whole numbers")
            elif path in TAG_FIELDS:
                if not isinstance(bound, SetBound):
                    raise TypeError(f"{path} takes a SetBound")
            elif path in CHOICE_PATHS:
                if not isinstance(bound, ChoiceBound):
                    raise TypeError(f"{path} takes a ChoiceBound")
            else:
                raise UnknownPath(f"field {path!r} is not negotiable by bounds")
        unknown = self.non_negotiable - set(FIELD_ORDER)
        if unknown:
            raise UnknownPath(f"non_negotiable names unknown field {sorted(unknown)[0]!r}")


def _bound_violations(policy, terms):
    """(path, target_value) for every bounded path that is out of bounds."""
    violations = []
    for path in FIELD_ORDER:
        bound = policy.bounds.get(path)
        if bound is None:
            continue
        value = getattr(terms, path)
        if isinstance(bound, NumericBound):
            if not bound.contains(value):
                violations.append((path, bound.clamp(value)))
        elif isinstance(bound, SetBound):
            tags = set(value)
            if not tags <= bound.allowed:
                violations.append((path, sorted(tags & bound.allowed)))
        else:
            if value not in bound.allowed:
                violations.append((path, bound.allowed[0]))
    return violations


@dataclass(frozen=True)
class Accept:
    pass


@dataclass(frozen=True)
class Counter:
    delta: TermsDelta


@dataclass(frozen=True)
class Reject:
    reason: str


def evaluate_offer(policy, terms):
    """Decide on offered terms against the policy's own bounds."""
    violations = _bound_violations(policy, terms)
    for path, _ in violations:
        if path in policy.non_negotiable:
            return Reject(f"{path} is out of bounds and not negotiable")
    if not violations:
        return Accept()
    return Counter(TermsDelta(tuple(violations)))


def _concede(own, proposed, step):
    """Move from own toward proposed by the concession fraction."""
    if isinstance(own, Decimal) or isinstance(proposed, Decimal):
        moved = Decimal(own) + (Decimal(proposed) - Decimal(own)) * step
        return moved.quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN)
    moved = Decimal(proposed - own) * step
    return own + int(moved.to_integral_value(rounding=ROUND_HALF_EVEN))


def _changed_fields(old, new):
    """Names of the fields whose values differ, in schema order."""
    return [name for name in FIELD_ORDER if getattr(old, name) != getattr(new, name)]


def revise_terms(policy, own_terms, countered):
    """Fold the countered terms into the standing offer under the policy.

    In-bound counter values are taken verbatim; out-of-bound numerics
    move by concession_step toward the counter, clamped to the bound;
    non-negotiable and unacceptable enum values keep their own value.
    Falls back to the standing offer if the blend fails validation.
    """
    changes = {}
    for path in _changed_fields(own_terms, countered):
        proposed = getattr(countered, path)
        own = getattr(own_terms, path)
        if path in policy.non_negotiable:
            changes[path] = own
            continue
        bound = policy.bounds.get(path)
        if bound is None:
            changes[path] = proposed
        elif isinstance(bound, NumericBound):
            if bound.contains(proposed):
                changes[path] = proposed
            else:
                changes[path] = bound.clamp(_concede(own, proposed, policy.concession_step))
        elif isinstance(bound, SetBound):
            tags = set(proposed)
            changes[path] = proposed if tags <= bound.allowed else own
        else:
            changes[path] = proposed if proposed in bound.allowed else own
    if not changes:
        return own_terms
    try:
        return own_terms.replace(**changes)
    except InvalidTerms:
        # Cross-field constraints can break even though each change was
        # individually in bounds; hold the standing offer instead.
        return own_terms


# -- risk tiers ------------------------------------------------------------------


@dataclass(frozen=True)
class RiskTier:
    max_price_delta_fraction: Decimal
    max_royalty_delta: Decimal

    def __post_init__(self):
        object.__setattr__(self, "max_price_delta_fraction", fixed4(self.max_price_delta_fraction))
        object.__setattr__(self, "max_royalty_delta", fixed4(self.max_royalty_delta))


RISK_TIERS = {
    "conservative": RiskTier(Decimal("0.0000"), Decimal("0.0000")),
    "standard": RiskTier(Decimal("0.0500"), Decimal("0.0100")),
    "permissive": RiskTier(Decimal("0.2000"), Decimal("0.0500")),
}


def auto_accepts(tier, proposed, countered):
    """Whether the tier takes a counter as it stands: every difference
    sits inside the tier, and only the numeric paths can settle
    automatically."""
    changed = set(_changed_fields(proposed, countered))
    if not changed.issubset(NUMERIC_PATHS):
        return False
    for path in ("royalty_rate", "rev_share"):
        if path in changed:
            moved = abs(getattr(countered, path) - getattr(proposed, path))
            if moved > tier.max_royalty_delta:
                return False
    if "upfront_fee" in changed:
        moved = abs(countered.upfront_fee - proposed.upfront_fee)
        base = max(proposed.upfront_fee, 1)
        # moved / base > fraction, compared in exact integer units
        if moved * 10_000 > int(tier.max_price_delta_fraction.scaleb(4)) * base:
            return False
    return True

