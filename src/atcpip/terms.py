"""Programmable license terms.

The terms document is the unit that gets negotiated, hashed, and bound
into tokens, so everything here is geared toward one property: equal
terms always produce equal canonical bytes. Construction normalizes
representation (tag lists become sorted unique tuples, rates become
four-digit decimals) and validates in two steps. First each field
passes its one check, its row of ``FIELD_CHECKS``: the string fields,
every tag and the fee take the exact ``str`` and ``int`` types (so a
``canon.Canonical`` or an ``IntEnum`` is refused), the flags take
``bool``, and a wrong type raises TypeError. Then the whole document
passes the domain check (tags, dates, jurisdictions, modes, ranges),
and a value outside the domain raises InvalidTerms with the whole
violation report. The constructor, ``terms_from_value`` and
``dataclasses.replace`` run both steps on every field. A derived value,
``LicenseTerms.replace`` (which ``apply_delta`` and every counter and
revision go through), takes its parent's fields as they were checked,
runs the field checks of the changed fields only, and then the whole
domain check; it raises what the constructor would for the same
fields. So a ``LicenseTerms`` that exists is valid and there is no
separate ``validate``.

A ``LicenseTerms`` is encoded once: it keeps its own canonical text,
and its digest is the sha256 of that text. The text is one fixed
template, ``TEXT_TEMPLATE``, filled field by field from the types
construction checked, without the generic encoder's walk.
``canon.dumps(terms.to_value())`` defines the bytes, and tests hold the
template to it; exact types make the two agree on every terms object
that can exist. Frames and ledger payloads carry the text (a
``canon.Canonical``), not a map, and a receiver handed text equal to
that of a terms object it already holds takes that object instead of
building another. Text is compared, never maps:
``1 == True`` and ``1 == Decimal(1)`` hold for values that encode
apart.

Negotiation edits terms in one form only: a ``TermsDelta`` of
whole-field sets, which is what a counter carries on the wire.
``delta_from_value`` refuses any other edit, and ``apply_delta``
replaces the named fields and builds the result.
"""

from dataclasses import dataclass, fields, replace
from datetime import date
from decimal import Decimal
from functools import cached_property

from . import canon
from .canon import encode_str, fixed4
from .errors import CanonicalizationError, InvalidResult, InvalidTerms, ParseError

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

STR_FIELDS = (
    "name", "description", "duration", "jurisdiction", "governing_law",
    "transferability", "dispute_resolution",
)
TAG_FIELDS = ("scope", "revocation_conditions", "compliance_requirements", "ip_restrictions")
DECIMAL_FIELDS = ("royalty_rate", "rev_share")
BOOL_FIELDS = ("onchain_enforcement", "offchain_enforcement", "chain_of_ownership")


def is_iso_date(text):
    """True for a plain YYYY-MM-DD calendar date (not an ISO week date
    such as 2025-W01-1, which ``date.fromisoformat`` also takes)."""
    if not isinstance(text, str) or len(text) != 10 or text[4] != "-" or text[7] != "-":
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
        if type(tag) is not str:
            raise TypeError(f"{name} tags must be exact strings, got {tag!r}")
    return tuple(sorted(set(tags)))


def _rate(name, value):
    return fixed4(value)


def _exact_str(name, value):
    if type(value) is not str:
        raise TypeError(f"{name} must be an exact string")
    return value


def _flag(name, value):
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be a bool")
    return value


def _fee(name, value):
    if type(value) is not int:
        raise TypeError(f"{name} must be an exact integer micro-credit amount")
    return value


# Each field's one check: it takes the field's name and value and
# returns the value as stored, or raises TypeError (a rate, what
# ``fixed4`` raises). Rows are in the order construction checks them,
# so the first field to fail is the same on every route.
FIELD_CHECKS = {
    **{name: _normalize_tags for name in TAG_FIELDS},
    **{name: _rate for name in DECIMAL_FIELDS},
    **{name: _exact_str for name in STR_FIELDS},
    **{name: _flag for name in BOOL_FIELDS},
    "upfront_fee": _fee,
}


@dataclass(frozen=True)
class LicenseTerms:
    """A complete machine-readable license offer.

    Defaults give a conservative read-only grant so call sites only
    spell out what they mean to change. The object keeps its own bytes:
    ``canonical`` is its canonical text, filled into ``TEXT_TEMPLATE``
    on first use and kept; it takes no part in ==, hash() or
    ``to_value()``. It raises CanonicalizationError for a string with
    no UTF-8 form.
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
        checked = self.__dict__
        for name, check in FIELD_CHECKS.items():
            checked[name] = check(name, checked[name])
        report = _violations(self)
        if report:
            raise InvalidTerms(report)

    def to_value(self):
        """Canonical map form (tag tuples become lists)."""
        out = {name: getattr(self, name) for name in FIELD_ORDER}
        for name in TAG_FIELDS:
            out[name] = list(out[name])
        return out

    def replace(self, **changes):
        """These terms with ``changes`` applied. Only the changed fields
        pass their field checks, in construction's order, and then the
        result passes the whole domain check, so the error is the one
        the constructor raises for the same fields. An unknown field
        name is the constructor's TypeError."""
        if not changes.keys() <= FIELD_CHECKS.keys():
            return replace(self, **changes)
        derived = object.__new__(LicenseTerms)
        values = derived.__dict__
        values.update(self.__dict__)
        values.pop("canonical", None)  # the parent's text, not this value's
        for name, check in FIELD_CHECKS.items():
            if name in changes:
                values[name] = check(name, changes[name])
        report = _violations(derived)
        if report:
            raise InvalidTerms(report)
        return derived

    @cached_property
    def canonical(self):
        # Kept in the instance __dict__, outside the dataclass fields. The
        # fields are frozen, and replace() builds a new instance, which
        # encodes its own fields. Each field is written by the exact type
        # construction checked; tests hold the text to
        # canon.dumps(self.to_value()).
        text = TEXT_TEMPLATE % (
            "true" if self.chain_of_ownership else "false",
            ",".join(map(encode_str, self.compliance_requirements)),
            encode_str(self.description),
            encode_str(self.dispute_resolution),
            encode_str(self.duration),
            encode_str(self.governing_law),
            ",".join(map(encode_str, self.ip_restrictions)),
            encode_str(self.jurisdiction),
            encode_str(self.name),
            "true" if self.offchain_enforcement else "false",
            "true" if self.onchain_enforcement else "false",
            format(self.rev_share, "f"),
            ",".join(map(encode_str, self.revocation_conditions)),
            format(self.royalty_rate, "f"),
            ",".join(map(encode_str, self.scope)),
            encode_str(self.transferability),
            self.upfront_fee,
        )
        if not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise CanonicalizationError(f"string not encodable as UTF-8: {exc}") from None
        return canon.Canonical(text)


FIELD_ORDER = tuple(spec.name for spec in fields(LicenseTerms))

# The canonical text of a terms object: its 17 keys in code point order,
# tag lists bracketed around their joined encoded strings.
TEXT_TEMPLATE = (
    '{"chain_of_ownership":%s,"compliance_requirements":[%s],"description":%s,'
    '"dispute_resolution":%s,"duration":%s,"governing_law":%s,"ip_restrictions":[%s],'
    '"jurisdiction":%s,"name":%s,"offchain_enforcement":%s,"onchain_enforcement":%s,'
    '"rev_share":%s,"revocation_conditions":[%s],"royalty_rate":%s,"scope":[%s],'
    '"transferability":%s,"upfront_fee":%d}'
)


def terms_from_value(value, held=()):
    """Rebuild LicenseTerms from a canonical map, or from canonical text
    (a ``canon.Canonical``), which is parsed first; closed-world keys.

    Text equal to the ``canonical`` text of a terms object in ``held``
    (None entries are skipped) returns that object as it is.
    """
    if type(value) is canon.Canonical:
        for terms in held:
            if terms is not None and terms.canonical == value:
                return terms
        value = canon.loads(value)
    if not isinstance(value, dict):
        raise ParseError("terms document must be a map")
    unknown = set(value) - set(FIELD_ORDER)
    if unknown:
        raise ParseError(f"unknown terms field {sorted(unknown)[0]!r}")
    missing = set(FIELD_ORDER) - set(value)
    if missing:
        raise ParseError(f"missing terms field {sorted(missing)[0]!r}")
    for name in DECIMAL_FIELDS:
        _wire_number(name, value[name])
    try:
        return LicenseTerms(**value)
    except TypeError as exc:
        raise ParseError(f"bad terms document: {exc}") from None


def _wire_number(name, value):
    """A rate as the canonical format carries it: a non-bool integer or
    a decimal; a string is not a number there."""
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise ParseError(f"{name} must be an integer or a decimal, got {value!r}")
    return value


def wire_decimal(name, value):
    """A rate off the wire (see ``_wire_number``), to four digits."""
    return fixed4(_wire_number(name, value))


@dataclass(frozen=True)
class Violation:
    path: tuple
    reason: str


def _violations(terms):
    """Domain violations of type-checked terms; empty means valid."""
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
    """Hash of the terms' canonical bytes."""
    return canon.sha256_hex(terms.canonical.encode("utf-8"))


# -- counter edits -------------------------------------------------------------


@dataclass(frozen=True)
class TermsDelta:
    """Whole-field replacements, ``((field, value), ...)`` in send order."""

    changes: tuple = ()

    def to_value(self):
        return [{"path": [name], "op": "set", "value": value} for name, value in self.changes]


_EDIT_KEYS = frozenset({"op", "path", "value"})


def delta_from_value(value):
    """Parse counter suggestions; closed-world.

    Each edit is exactly ``{"op": "set", "path": [field], "value": v}``
    for one terms field, and a rate value must be a number.
    """
    if not isinstance(value, list):
        raise ParseError("delta must be a list of edits")
    changes = []
    for item in value:
        if not isinstance(item, dict) or item.keys() != _EDIT_KEYS:
            raise ParseError("each edit has exactly 'op', 'path' and 'value'")
        if item["op"] != "set":
            raise ParseError(f"unknown edit op {item['op']!r}")
        path = item["path"]
        if not isinstance(path, list) or len(path) != 1 or path[0] not in FIELD_ORDER:
            raise ParseError(f"edit path must name one terms field, got {path!r}")
        name, new = path[0], item["value"]
        if name in DECIMAL_FIELDS:
            new = wire_decimal(name, new)
        changes.append((name, new))
    return TermsDelta(tuple(changes))


def apply_delta(terms, delta):
    """The terms with every change applied; InvalidResult when they
    cannot be built."""
    try:
        return terms.replace(**dict(delta.changes))
    except TypeError as exc:
        raise InvalidResult(f"edited terms do not build: {exc}") from None
    except InvalidTerms as exc:
        raise InvalidResult(f"edited terms fail validation: {exc.detail}") from None
