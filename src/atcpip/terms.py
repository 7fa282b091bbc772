"""Programmable license terms.

The terms document is the unit that gets negotiated, hashed, and bound
into tokens, so everything here is geared toward one property: equal
terms always produce equal canonical bytes. Construction normalizes
representation (tag lists become sorted unique tuples, rates become
four-digit decimals); ``validate`` flags domain problems; ``diff`` and
``apply_delta`` give negotiation a structural edit language.
"""

from dataclasses import dataclass, fields, replace
from datetime import date
from decimal import Decimal
from functools import cached_property

from . import canon
from .canon import fixed4
from .errors import InvalidResult, InvalidTerms, ParseError, UnknownPath

PERPETUAL = "perpetual"

SCOPE_TAGS = frozenset({"personal", "commercial", "sublicensable"})
TRANSFERABILITY_MODES = (
    "non_transferable",
    "transferable",
    "transferable_with_approval",
)
DISPUTE_RESOLUTION_MODES = (
    "onchain_arbitration",
    "offchain_arbitration",
    "court",
)

# Codes a terms document may name. The jurisdiction profiles that gate
# agent pairs live in the trust module and do not change this set.
JURISDICTIONS = frozenset(
    {
        "AE", "AT", "AU", "BE", "BR", "CA", "CH", "CN", "CZ", "DE",
        "DK", "EE", "ES", "FI", "FR", "GB", "IE", "IN", "IT", "JP",
        "KR", "MX", "NL", "NO", "NZ", "PL", "PT", "SE", "SG", "US",
    }
)

TAG_FIELDS = ("scope", "revocation_conditions", "compliance_requirements", "ip_restrictions")
DECIMAL_FIELDS = ("royalty_rate", "rev_share")
BOOL_FIELDS = ("onchain_enforcement", "offchain_enforcement", "chain_of_ownership")


def is_iso_date(text):
    """True for a plain YYYY-MM-DD calendar date."""
    if not isinstance(text, str) or len(text) != 10:
        return False
    try:
        date.fromisoformat(text)
    except ValueError:
        return False
    return True


def _normalize_tags(name, value):
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise TypeError(f"{name} takes a collection of tags, got {value!r}")
    tags = list(value)
    for tag in tags:
        if not isinstance(tag, str):
            raise TypeError(f"{name} tags must be strings, got {tag!r}")
    return tuple(sorted(set(tags)))


@dataclass(frozen=True)
class LicenseTerms:
    """A complete machine-readable license offer.

    Defaults give a conservative read-only grant so call sites only
    spell out what they mean to change.
    """

    name: str = "license"
    description: str = ""
    scope: tuple = ("personal",)
    duration: str = "2025-01-01"
    jurisdiction: str = "US"
    governing_law: str = "US"
    royalty_rate: Decimal = Decimal("0.0500")
    transferability: str = "non_transferable"
    revocation_conditions: tuple = ()
    dispute_resolution: str = "onchain_arbitration"
    onchain_enforcement: bool = True
    offchain_enforcement: bool = False
    compliance_requirements: tuple = ()
    ip_restrictions: tuple = ("read_only",)
    chain_of_ownership: bool = True
    rev_share: Decimal = Decimal("0.0000")
    upfront_fee: int = 0

    def __post_init__(self):
        for name in TAG_FIELDS:
            object.__setattr__(self, name, _normalize_tags(name, getattr(self, name)))
        for name in DECIMAL_FIELDS:
            object.__setattr__(self, name, fixed4(getattr(self, name)))
        for name in ("name", "description", "duration", "jurisdiction", "governing_law",
                     "transferability", "dispute_resolution"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a string")
        for name in BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a bool")
        if isinstance(self.upfront_fee, bool) or not isinstance(self.upfront_fee, int):
            raise TypeError("upfront_fee must be an integer micro-credit amount")

    def to_value(self):
        """Canonical map form (tag tuples become lists)."""
        out = {name: getattr(self, name) for name in FIELD_ORDER}
        for name in TAG_FIELDS:
            out[name] = list(out[name])
        return out

    def replace(self, **changes):
        return replace(self, **changes)

    @cached_property
    def _digest(self):
        # Kept in the instance __dict__, outside the dataclass fields, so
        # it takes no part in ==, hash() or to_value(). The fields are
        # frozen, and replace() builds a new instance, which hashes its
        # own fields.
        return canon.hash_value(self.to_value())


FIELD_ORDER = tuple(spec.name for spec in fields(LicenseTerms))


def terms_from_value(value):
    """Rebuild LicenseTerms from a canonical map; closed-world keys."""
    if not isinstance(value, dict):
        raise ParseError("terms document must be a map")
    unknown = set(value) - set(FIELD_ORDER)
    if unknown:
        raise ParseError(f"unknown terms field {sorted(unknown)[0]!r}")
    missing = set(FIELD_ORDER) - set(value)
    if missing:
        raise ParseError(f"missing terms field {sorted(missing)[0]!r}")
    kwargs = {}
    for name in FIELD_ORDER:
        item = value[name]
        if name in DECIMAL_FIELDS:
            if isinstance(item, bool) or not isinstance(item, (int, Decimal)):
                raise ParseError(f"{name} must be a number, got {item!r}")
            item = fixed4(item)
        kwargs[name] = item
    try:
        return LicenseTerms(**kwargs)
    except TypeError as exc:
        raise ParseError(f"bad terms document: {exc}") from None


@dataclass(frozen=True)
class Violation:
    path: tuple
    reason: str


def validate(terms):
    """Return a tuple of violations; empty means the terms are valid."""
    report = []

    def flag(path, reason):
        report.append(Violation(path, reason))

    for tag in terms.scope:
        if tag not in SCOPE_TAGS:
            flag(("scope", tag), "unknown scope tag")
    if terms.duration != PERPETUAL and not is_iso_date(terms.duration):
        flag(("duration",), "neither 'perpetual' nor a calendar date")
    if terms.jurisdiction not in JURISDICTIONS:
        flag(("jurisdiction",), "not a recognized jurisdiction code")
    for name in DECIMAL_FIELDS:
        rate = getattr(terms, name)
        if rate < 0 or rate > 1:
            flag((name,), "out of range [0,1]")
    if Decimal(0) <= terms.royalty_rate <= 1 and Decimal(0) <= terms.rev_share <= 1:
        if terms.royalty_rate + terms.rev_share > 1:
            flag((), "royalty_rate + rev_share > 1")
    if terms.transferability not in TRANSFERABILITY_MODES:
        flag(("transferability",), "unknown transferability mode")
    if terms.dispute_resolution not in DISPUTE_RESOLUTION_MODES:
        flag(("dispute_resolution",), "unknown dispute resolution mode")
    if terms.upfront_fee < 0:
        flag(("upfront_fee",), "negative fee")
    elif terms.upfront_fee > canon.INT_MAX:
        flag(("upfront_fee",), "out of 64-bit range")
    for name in ("revocation_conditions", "compliance_requirements", "ip_restrictions"):
        for tag in getattr(terms, name):
            if not tag:
                flag((name, tag), "empty tag")
    return tuple(report)


def terms_hash(terms):
    """Hash of the canonical terms map. Raises InvalidTerms on violations.

    Validation runs on every call; the digest is computed once per
    instance."""
    report = validate(terms)
    if report:
        raise InvalidTerms(report)
    return terms._digest


# -- structural diffs --------------------------------------------------------


@dataclass(frozen=True)
class TermsEdit:
    path: tuple
    op: str  # "set" | "remove"
    value: object = None


@dataclass(frozen=True)
class TermsDelta:
    edits: tuple = ()

    def __bool__(self):
        return bool(self.edits)

    def to_value(self):
        out = []
        for edit in self.edits:
            item = {"path": list(edit.path), "op": edit.op}
            if edit.op == "set":
                item["value"] = edit.value
            out.append(item)
        return out


def delta_from_value(value):
    if not isinstance(value, list):
        raise ParseError("delta must be a list of edits")
    edits = []
    for item in value:
        if not isinstance(item, dict) or "path" not in item or "op" not in item:
            raise ParseError("each edit needs 'path' and 'op'")
        path = item["path"]
        if not isinstance(path, list) or not all(isinstance(p, str) for p in path):
            raise ParseError("edit path must be a list of strings")
        op = item["op"]
        if op not in ("set", "remove"):
            raise ParseError(f"unknown edit op {op!r}")
        if op == "set" and "value" not in item:
            raise ParseError("set edit needs a value")
        edits.append(TermsEdit(tuple(path), op, item.get("value")))
    return TermsDelta(tuple(edits))


def diff(old, new):
    """Minimal edit list turning old into new, in schema order.

    Tag collections diff per element (depth-2 paths), scalars as one
    depth-1 set. ``apply_delta(old, diff(old, new)) == new`` always.
    """
    edits = []
    for name in FIELD_ORDER:
        ours, theirs = getattr(old, name), getattr(new, name)
        if name in TAG_FIELDS:
            removed = sorted(set(ours) - set(theirs))
            added = sorted(set(theirs) - set(ours))
            edits.extend(TermsEdit((name, tag), "remove") for tag in removed)
            edits.extend(TermsEdit((name, tag), "set", True) for tag in added)
        elif ours != theirs:
            edits.append(TermsEdit((name,), "set", theirs))
    return TermsDelta(tuple(edits))


def apply_delta(terms, delta):
    """Apply every edit or raise; the result must re-validate."""
    doc = terms.to_value()
    for edit in delta.edits:
        if not edit.path or edit.path[0] not in FIELD_ORDER:
            raise UnknownPath(f"no such terms field: {list(edit.path)}")
        name = edit.path[0]
        if len(edit.path) == 1:
            if edit.op == "remove":
                raise InvalidResult(f"{name} is required and cannot be removed")
            doc[name] = list(edit.value) if isinstance(edit.value, tuple) else edit.value
        elif len(edit.path) == 2 and name in TAG_FIELDS:
            tag = edit.path[1]
            current = set(doc[name])
            if edit.op == "set":
                current.add(tag)
            elif tag in current:
                current.remove(tag)
            else:
                raise UnknownPath(f"tag {tag!r} not present in {name}")
            doc[name] = sorted(current)
        else:
            raise UnknownPath(f"path too deep for {name}: {list(edit.path)}")
    try:
        result = terms_from_value(doc)
    except ParseError as exc:
        raise InvalidResult(f"edited terms do not parse: {exc}") from None
    report = validate(result)
    if report:
        raise InvalidResult(
            "edited terms fail validation: "
            + "; ".join(f"{'.'.join(v.path) or '<terms>'}: {v.reason}" for v in report)
        )
    return result

