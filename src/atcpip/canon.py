"""Canonical JSON codec: the one byte form, project wide.

``dumps`` is the single source of bytes for every hash, signature,
ledger entry, wire frame, and transcript line in the package. Rules:

- maps sort keys by code point (equals UTF-8 byte order), no whitespace
- strings are UTF-8 with the minimal escape set below; every other
  code point stays raw, never \\uXXXX-escaped; a lone surrogate
  (U+D800..U+DFFF) has no UTF-8 form and raises
- integers are 64-bit signed
- decimals are fixed-point with exactly four fractional digits and no
  exponent; negative zero normalizes to 0.0000
- floats and nulls are not values; encoding them raises, parsing null raises
- only the exact types str, int, bool, Decimal, dict, list and tuple
  encode, and ``Canonical`` (below); any other subclass of one (an
  IntEnum, an OrderedDict) raises

String escapes, the whole set:

    code point                  bytes
    U+0022 quotation mark       \\"
    U+005C reverse solidus      \\\\
    U+0008 backspace            \\b
    U+000C form feed            \\f
    U+000A line feed            \\n
    U+000D carriage return      \\r
    U+0009 tab                  \\t
    any other U+0000..U+001F    \\u00xx, two lowercase hex digits

That set is exactly what the stdlib's C escaper
``json.encoder.encode_basestring`` (the one behind
``json.dumps(..., ensure_ascii=False)``) produces, so strings go through
it.

A value encoded once is not walked again. Its canonical text, wrapped
as a ``Canonical``, is a value of its own: ``dumps`` appends it as it
is, so a document that holds one is spliced around those bytes.
``LicenseTerms`` keeps its text this way, and every frame and ledger
payload that carries terms holds it; a ledger export splices each
entry's stored payload bytes. The text is trusted, not checked: it must
be what ``dumps`` gives for some value, and equal text means equal
bytes, which is how a receiver knows a terms object it already holds.
``loads`` reads a ``Canonical`` like any other text. The simulator
builds its transcript lines the same way, as templates around encoded
strings and the bytes the ledger hashed.
"""

import hashlib
import json
import re
from decimal import Context, Decimal, InvalidOperation
from json.encoder import encode_basestring as encode_str

from .errors import CanonicalizationError, ParseError

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

QUANTUM = Decimal("0.0001")
ZERO4 = Decimal("0.0000")
# One 60-digit context for every quantize, built once rather than per
# call; a value that needs more digits is out of range.
_QUANTIZE_CONTEXT = Context(prec=60)


class Canonical(str):
    """The canonical text of a value already encoded; ``dumps`` splices
    it unchanged."""

    __slots__ = ()


def fixed4(value):
    """Coerce str/int/Decimal to a four-digit fixed-point Decimal.

    Floats are rejected outright: their base-2 representation has no
    place in a byte-exact format. Values with more than four fractional
    digits are rejected rather than silently rounded.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise CanonicalizationError(f"not a decimal value: {value!r}")
    if isinstance(value, Decimal):
        dec = value
    elif isinstance(value, (int, str)):
        try:
            dec = Decimal(value)
        except InvalidOperation:
            raise CanonicalizationError(f"not a decimal literal: {value!r}") from None
    else:
        raise CanonicalizationError(f"not a decimal value: {value!r}")
    return _quantize4(dec)


def _quantize4(dec):
    if not dec.is_finite():
        raise CanonicalizationError(f"decimal must be finite, got {dec}")
    try:
        quantized = dec.quantize(QUANTUM, context=_QUANTIZE_CONTEXT)
    except InvalidOperation:
        raise CanonicalizationError(f"decimal out of range: {dec}") from None
    if quantized != dec:
        raise CanonicalizationError(f"more than four fractional digits: {dec}")
    if quantized == 0:
        return ZERO4
    return quantized


def format_decimal(dec):
    """Render a Decimal in canonical fixed-point form (exactly 4 digits)."""
    return format(_quantize4(dec), "f")


def _encode(value, parts):
    kind = type(value)
    if kind is str:
        parts.append(encode_str(value))
    elif kind is dict:
        _encode_map(value, parts)
    elif kind is Canonical:
        parts.append(value)
    elif kind is int:
        if value < INT_MIN or value > INT_MAX:
            raise CanonicalizationError(f"integer out of 64-bit range: {value}")
        parts.append(str(value))
    elif kind is bool:
        parts.append("true" if value else "false")
    elif kind is list or kind is tuple:
        _encode_list(value, parts)
    elif kind is Decimal:
        parts.append(format_decimal(value))
    else:
        _refuse(value)


def _refuse(value):
    if value is None:
        raise CanonicalizationError("null is not a canonical value; omit the key instead")
    if isinstance(value, float):
        raise CanonicalizationError(f"floats are not canonical values: {value!r}")
    raise CanonicalizationError(f"unencodable type {type(value).__name__}")


def _encode_list(value, parts):
    if not value:
        parts.append("[]")
        return
    separator = "["
    for item in value:
        parts.append(separator)
        separator = ","
        _encode(item, parts)
    parts.append("]")


def _encode_map(value, parts):
    for key in value:
        if not isinstance(key, str):
            raise CanonicalizationError(f"map keys must be strings, got {type(key).__name__}")
    if not value:
        parts.append("{}")
        return
    separator = "{"
    for key in sorted(value):
        item = value[key]
        if type(item) is str:
            parts.append(separator + encode_str(key) + ":" + encode_str(item))
        else:
            parts.append(separator + encode_str(key) + ":")
            _encode(item, parts)
        separator = ","
    parts.append("}")


def dumps(value):
    """Encode a value to canonical bytes."""
    parts = []
    _encode(value, parts)
    try:
        return "".join(parts).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CanonicalizationError(f"string not encodable as UTF-8: {exc}") from None


_DECIMAL_TOKEN_RE = re.compile(r"-?(?:0|[1-9][0-9]*)\.[0-9]{1,4}")


def _parse_decimal_token(token):
    if not _DECIMAL_TOKEN_RE.fullmatch(token):
        raise ParseError(
            f"number token {token!r} is not canonical: decimals carry one to four "
            "fractional digits and no exponent"
        )
    try:
        dec = Decimal(token).quantize(QUANTUM, context=_QUANTIZE_CONTEXT)
    except InvalidOperation:
        raise ParseError(f"decimal out of range: {token}") from None
    return ZERO4 if dec == 0 else dec


def _parse_int_token(token):
    value = int(token)
    if value < INT_MIN or value > INT_MAX:
        raise ParseError(f"integer out of 64-bit range: {token}")
    return value


def _reject_constant(token):
    raise ParseError(f"non-finite number token {token!r} is not canonical")


def _pairs_hook(pairs):
    # Maps are built innermost first, so every map inside a value here
    # has already passed this hook; only lists still need walking.
    result = dict(pairs)
    if len(result) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate map key {key!r}")
            seen.add(key)
    for value in result.values():
        if value is None:
            raise ParseError("null is not a canonical value")
        if type(value) is list:
            _reject_null_items(value)
    return result


def _reject_null_items(items):
    for item in items:
        if item is None:
            raise ParseError("null is not a canonical value")
        if type(item) is list:
            _reject_null_items(item)


def loads(data):
    """Parse canonical bytes (or str) back into values.

    Accepts any insignificant whitespace the stdlib parser accepts; use
    dumps round-trip comparison where byte-strictness matters (the wire
    codec does exactly that).
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from None
    elif isinstance(data, str):
        text = data
    else:
        raise ParseError(f"expected bytes or str, got {type(data).__name__}")
    try:
        value = json.loads(
            text,
            parse_float=_parse_decimal_token,
            parse_int=_parse_int_token,
            parse_constant=_reject_constant,
            object_pairs_hook=_pairs_hook,
        )
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if value is None:
        raise ParseError("null is not a canonical value")
    if type(value) is list:
        _reject_null_items(value)
    return value


def sha256_hex(data):
    """Hex digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()


# One encoder ships; the name stays because perfbench prints it with
# every result.
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "Canonical",
    "INT_MAX",
    "INT_MIN",
    "QUANTUM",
    "ZERO4",
    "dumps",
    "fixed4",
    "format_decimal",
    "loads",
    "sha256_hex",
]
