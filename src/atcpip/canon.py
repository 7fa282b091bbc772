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
entry's stored payload bytes. The terms write their text from a fixed
template, not through ``dumps``, and tests hold that text to ``dumps``
of the terms' map. The text is trusted, not checked: it must
be what ``dumps`` gives for some value, and equal text means equal
bytes, which is how a receiver knows a terms object it already holds.
``loads`` reads a ``Canonical`` like any other text. The simulator
builds its transcript lines the same way, as templates around encoded
strings and the bytes the ledger hashed.

A map's keys are sorted and encoded once per shape, not once per map.
The shape table, ``_shape``, is keyed by the map's keys in insertion
order and holds them in code-point order, each with its prefix: the
separator, the encoded key and the colon. Maps repeat a few shapes
(frames, ledger payloads, terms), so nearly every map is a hit. The
table holds at most ``_SHAPES_HELD`` shapes, least recently used out
first. That bound is a constant, not a setting: it is a few times the
shapes the package writes, and it keeps the encoding of arbitrary maps
(an imported export) from growing the table. The key rule is checked
on every map, hit or miss: a key that is not a string raises, even one
that hashes and compares equal to a string key the table holds.

Each number is checked once, where it is read or written:

- ``loads`` lets the stdlib scanner build ints as it does, and checks
  their 64-bit range in the one pass ``_check_items`` makes over each
  map's values (from ``_pairs_hook``), over the items of each list in
  them and over the top-level value: strings are skipped first, and
  nulls are refused in the same pass. An int token past the
  interpreter's digit limit fails in the scanner and is refused as out
  of range.
- A decimal token is matched against the canonical token pattern in
  ``_parse_decimal_token``. One with four fractional digits and at most
  60 digits in all becomes a ``Decimal`` as it is; any other is
  quantized to four places, which refuses more than 60 digits.
- ``format_decimal`` writes a finite ``Decimal`` already at four places
  (and within 60 digits, and not negative zero) as it is, and passes
  any other through the quantize check. ``fixed4`` returns such a
  ``Decimal`` as it is too (zero as ``ZERO4``), so a rate ``loads``
  has just read is not quantized again.
- Input nested deeper than the interpreter's recursion limit is refused
  by both ``loads`` and ``dumps``.
"""

import functools
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
# Map shapes whose sorted, encoded keys are held (see the module
# docstring). A constant: a round of the benchmark writes about 60.
_SHAPES_HELD = 256


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
    if type(value) is Decimal:
        # Written plainly with four fractional digits, and within 60
        # digits in all: the value the quantize would give, so it is
        # kept as it is. Any other Decimal goes through _quantize4.
        text = str(value)
        if text[-5:-4] == "." and text[-4:].isdigit() and len(text) <= 61:
            return value if value else ZERO4
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
    text = format(dec, "f")
    # Already at four places, within 60 digits and not negative zero: the
    # text is final. Anything else goes through _quantize4.
    if text[-5:-4] == "." and len(text) <= 61 and text != "-0.0000":
        return text
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
    if not value:
        parts.append("{}")
        return
    keys = tuple(value)
    try:
        "".join(keys)
    except TypeError:
        for key in keys:
            if not isinstance(key, str):
                kind = type(key).__name__
                raise CanonicalizationError(f"map keys must be strings, got {kind}") from None
    for key, prefix in _shape(keys):
        item = value[key]
        if type(item) is str:
            parts.append(prefix + encode_str(item))
        else:
            parts.append(prefix)
            _encode(item, parts)
    parts.append("}")


@functools.lru_cache(maxsize=_SHAPES_HELD)
def _shape(keys):
    """``(key, prefix)`` for each key of a map, in code-point order;
    ``prefix`` is the separator, the encoded key and the colon."""
    return tuple(
        (key, ("{" if index == 0 else ",") + encode_str(key) + ":")
        for index, key in enumerate(sorted(keys))
    )


def dumps(value):
    """Encode a value to canonical bytes."""
    parts = []
    try:
        _encode(value, parts)
    except RecursionError:
        raise CanonicalizationError("value nested too deep") from None
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
    if token[-5:-4] == "." and len(token) <= 61:
        # Four fractional digits and at most 60 digits in all: the value
        # the quantize below would give, without the quantize.
        dec = Decimal(token)
    else:
        try:
            dec = Decimal(token).quantize(QUANTUM, context=_QUANTIZE_CONTEXT)
        except InvalidOperation:
            raise ParseError(f"decimal out of range: {token}") from None
    return dec if dec else ZERO4


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
    _check_items(result.values())
    return result


def _check_items(items):
    """Refuse a null or an int outside 64 bits among ``items``, and in
    the lists among them; strings, the most common items, go first."""
    for item in items:
        kind = type(item)
        if kind is str:
            continue
        if kind is int:
            if item < INT_MIN or item > INT_MAX:
                raise ParseError(f"integer out of 64-bit range: {item}")
        elif kind is list:
            _check_items(item)
        elif item is None:
            raise ParseError("null is not a canonical value")


def loads(data):
    """Parse canonical bytes (or str) back into values.

    Accepts any insignificant whitespace the stdlib parser accepts; use
    dumps round-trip comparison where byte-strictness matters (the wire
    codec does exactly that). Input nested deeper than the interpreter's
    recursion limit raises ParseError.
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
            parse_constant=_reject_constant,
            object_pairs_hook=_pairs_hook,
        )
        _check_items((value,))
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    except ValueError:
        # The scanner's own int() of a token longer than the interpreter's
        # digit limit (4,300 by default), far outside 64 bits.
        raise ParseError("integer out of 64-bit range") from None
    except RecursionError:
        raise ParseError("input nested too deep") from None
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
