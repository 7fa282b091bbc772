"""Canonical codec: byte oracles and round trips."""

import collections
import enum
import json
import re
from decimal import Context, Decimal, InvalidOperation

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from atcpip import canon
from atcpip.errors import AtcpipError, CanonicalizationError, ParseError


# The encoder tests keep one parameter, named by canon.BACKEND, so that
# their ids (test_...[pure]) stay the ones the suite has always printed.
@pytest.fixture(params=[canon.dumps], ids=[canon.BACKEND])
def dumps(request):
    return request.param


def test_key_order_is_insertion_independent(dumps):
    assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1}) == b'{"a":2,"b":1}'


def test_empty_containers(dumps):
    assert dumps({}) == b"{}"
    assert dumps([]) == b"[]"


def test_decimal_renders_four_digits(dumps):
    assert dumps(Decimal("0.05")) == b"0.0500"
    assert dumps({"rate": Decimal("0.05")}) == b'{"rate":0.0500}'
    assert dumps(Decimal("-1.25")) == b"-1.2500"
    assert dumps(Decimal("3")) == b"3.0000"


def test_negative_zero_decimal_normalizes(dumps):
    assert dumps(Decimal("-0.0000")) == b"0.0000"


def test_decimal_with_excess_digits_rejected(dumps):
    with pytest.raises(CanonicalizationError):
        dumps(Decimal("0.00005"))


def test_non_finite_decimal_rejected(dumps):
    for bad in (Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity")):
        with pytest.raises(CanonicalizationError):
            dumps(bad)


def test_floats_rejected(dumps):
    with pytest.raises(CanonicalizationError):
        dumps(0.05)
    with pytest.raises(CanonicalizationError):
        dumps({"x": [1.0]})


def test_none_rejected(dumps):
    with pytest.raises(CanonicalizationError):
        dumps(None)
    with pytest.raises(CanonicalizationError):
        dumps({"x": None})


def test_int_bounds(dumps):
    assert dumps(2**63 - 1) == str(2**63 - 1).encode()
    assert dumps(-(2**63)) == str(-(2**63)).encode()
    with pytest.raises(CanonicalizationError):
        dumps(2**63)
    with pytest.raises(CanonicalizationError):
        dumps(-(2**63) - 1)


def test_bool_not_conflated_with_int(dumps):
    assert dumps(True) == b"true"
    assert dumps(False) == b"false"
    assert dumps([True, 1]) == b"[true,1]"


def test_string_escapes(dumps):
    assert dumps("a\nb") == b'"a\\nb"'
    assert dumps("\x01") == b'"\\u0001"'
    assert dumps('quote " and \\ slash') == b'"quote \\" and \\\\ slash"'
    assert dumps("café") == "\"café\"".encode("utf-8")


# The escape table of the canon module docstring, written out as the spec:
# these code points, and no others, are escaped.
NAMED_ESCAPES = {
    0x22: b'\\"',
    0x5C: b"\\\\",
    0x08: b"\\b",
    0x0C: b"\\f",
    0x0A: b"\\n",
    0x0D: b"\\r",
    0x09: b"\\t",
}
SURROGATES = range(0xD800, 0xE000)


def spec_bytes(code_point):
    if code_point in NAMED_ESCAPES:
        return NAMED_ESCAPES[code_point]
    if code_point < 0x20:
        return b"\\u%04x" % code_point
    return chr(code_point).encode("utf-8")


def test_every_code_point_encodes_per_the_escape_table(dumps):
    code_points = [cp for cp in range(0x110000) if cp not in SURROGATES]
    expected = b'"' + b"".join(map(spec_bytes, code_points)) + b'"'
    assert dumps("".join(map(chr, code_points))) == expected


def test_every_lone_surrogate_raises(dumps):
    for code_point in SURROGATES:
        with pytest.raises(CanonicalizationError):
            dumps(chr(code_point))
        with pytest.raises(CanonicalizationError):
            dumps({"k": ["a" + chr(code_point)]})


def test_tuple_encodes_as_list(dumps):
    assert dumps((1, 2)) == b"[1,2]"


class LooksLikeA:
    """Hashes and compares equal to the string "a", and is not one."""

    def __hash__(self):
        return hash("a")

    def __eq__(self, other):
        return other == "a"


def test_non_string_keys_rejected(dumps):
    with pytest.raises(CanonicalizationError):
        dumps({1: "x"})
    with pytest.raises(CanonicalizationError):
        dumps([{1: "x"}])
    # The shape table now holds ("a",); a key equal to it is still no string.
    assert dumps({"a": 1}) == b'{"a":1}'
    assert ("a",) == (LooksLikeA(),)
    with pytest.raises(CanonicalizationError, match="map keys must be strings"):
        dumps({LooksLikeA(): 1})


def test_unencodable_type_rejected(dumps):
    with pytest.raises(CanonicalizationError):
        dumps(object())


class Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize(
    "value",
    [Level.LOW, collections.OrderedDict(a=1), {"k": [Level.LOW]}],
    ids=["int_enum", "ordered_dict", "nested_int_enum"],
)
def test_subclasses_of_encodable_types_are_rejected(dumps, value):
    with pytest.raises(CanonicalizationError, match="unencodable type"):
        dumps(value)


class Text(canon.Canonical):
    pass


def test_canonical_text_is_spliced_as_it_is(dumps):
    inner = {"b": [1, Decimal("0.5")], "a": "caf\u00e9 \"q\"\n"}
    text = canon.Canonical(dumps(inner).decode("utf-8"))
    document = {"z": text, "list": [text, 2]}
    expected = {"z": inner, "list": [inner, 2]}
    assert dumps(document) == dumps(expected)
    assert dumps(text) == dumps(inner)
    assert canon.loads(text) == inner
    # Only the exact type splices; a subclass of it is refused like any other.
    with pytest.raises(CanonicalizationError, match="unencodable type"):
        dumps({"k": Text("{}")})


def test_canonical_text_with_a_lone_surrogate_raises(dumps):
    with pytest.raises(CanonicalizationError):
        dumps([canon.Canonical('"\ud800"')])


def test_surrogate_rejected(dumps):
    with pytest.raises(CanonicalizationError):
        dumps("\ud800")


def test_codepoint_key_order(dumps):
    # Multi-byte keys sort identically by code point and by UTF-8 bytes.
    doc = dumps({"é": 1, "z": 2, "ā": 3})
    assert doc == '{"z":2,"é":1,"ā":3}'.encode("utf-8")


# -- parsing ---------------------------------------------------------------


def test_loads_round_trip_basics():
    value = {"a": [1, Decimal("0.1000"), "x"], "b": {"c": True}}
    assert canon.loads(canon.dumps(value)) == value


@pytest.mark.parametrize(
    "text",
    [
        '{"a":1,"a":2}',
        "1e5",
        "0.12345",
        "null",
        '{"k":null}',
        "NaN",
        "Infinity",
        "01",
        '"unterminated',
        "",
        "92233720368547758080",
        "0.5e2",
        "[1,null]",
        "[[null]]",
        '{"a":[null]}',
        '{"a":[[1],[null]]}',
        '[{"a":null}]',
        '{"a":{"b":null}}',
    ],
)
def test_loads_rejects_non_canonical_tokens(text):
    with pytest.raises(ParseError):
        canon.loads(text)


def test_loads_rejects_bad_utf8():
    with pytest.raises(ParseError):
        canon.loads(b'"\xff"')


def test_loads_negative_zero_decimal():
    assert canon.loads("-0.0") == Decimal("0.0000")


def test_loads_int_stays_int():
    parsed = canon.loads(b'{"n":3,"d":3.0}')
    assert parsed["n"] == 3 and isinstance(parsed["n"], int)
    assert parsed["d"] == Decimal("3.0000") and isinstance(parsed["d"], Decimal)


INT_BOUND_SHAPES = [
    pytest.param("{}", id="top-level"),
    pytest.param('{{"n":{}}}', id="map-value"),
    pytest.param("[1,[[{}]]]", id="nested-list"),
    pytest.param('[[{{"a":[{}]}}]]', id="list-of-maps-in-a-list"),
]


@pytest.mark.parametrize("shape", INT_BOUND_SHAPES)
def test_loads_takes_both_int_bounds(shape):
    for bound in (canon.INT_MIN, canon.INT_MAX):
        text = shape.format(bound)
        assert canon.dumps(canon.loads(text)) == text.encode()


@pytest.mark.parametrize("shape", INT_BOUND_SHAPES)
def test_loads_refuses_ints_past_the_bounds(shape):
    for outside in (canon.INT_MAX + 1, canon.INT_MIN - 1):
        with pytest.raises(ParseError, match="64-bit range"):
            canon.loads(shape.format(outside))


@pytest.mark.parametrize("shape", INT_BOUND_SHAPES)
def test_loads_refuses_ints_past_the_digit_limit(shape):
    # Longer than the interpreter's 4,300-digit int conversion limit.
    for token in ("1" * 5000, "-" + "9" * 5000):
        with pytest.raises(ParseError, match="integer out of 64-bit range"):
            canon.loads(shape.format(token))


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a":', "}")])
def test_loads_refuses_input_nested_too_deep(opening, closing):
    with pytest.raises(ParseError, match="nested too deep"):
        canon.loads(opening * 5000 + "1" + closing * 5000)


def test_dumps_refuses_a_value_nested_too_deep(dumps):
    value = 1
    for _ in range(5000):
        value = [value]
    with pytest.raises(CanonicalizationError, match="nested too deep"):
        dumps(value)


# -- fixed4 ----------------------------------------------------------------


def test_fixed4_coercions():
    assert canon.fixed4("0.05") == Decimal("0.0500")
    assert canon.fixed4(2) == Decimal("2.0000")
    assert canon.fixed4(Decimal("1")) == Decimal("1.0000")


def test_fixed4_rejects_floats_and_excess_precision():
    with pytest.raises(CanonicalizationError):
        canon.fixed4(0.05)
    with pytest.raises(CanonicalizationError):
        canon.fixed4("0.00001")
    with pytest.raises(CanonicalizationError):
        canon.fixed4(True)
    with pytest.raises(CanonicalizationError):
        canon.fixed4("not a number")


# -- property tests --------------------------------------------------------

text_strategy = st.text(max_size=30)
decimal_strategy = st.integers(min_value=-(10**12), max_value=10**12).map(
    lambda units: Decimal(units).scaleb(-4).quantize(canon.QUANTUM)
)
scalar_strategy = (
    st.booleans()
    | st.integers(min_value=canon.INT_MIN, max_value=canon.INT_MAX)
    | decimal_strategy
    | text_strategy
)
value_strategy = st.recursive(
    scalar_strategy,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(text_strategy, children, max_size=4),
    max_leaves=12,
)
ascii_value_strategy = st.recursive(
    st.booleans() | st.integers(min_value=-(10**9), max_value=10**9) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(value_strategy)
def test_parse_inverts_encode(value):
    assert canon.loads(canon.dumps(value)) == value


@given(value_strategy)
def test_encode_is_stable_under_round_trip(value):
    encoded = canon.dumps(value)
    assert canon.dumps(canon.loads(encoded)) == encoded


@given(st.dictionaries(text_strategy, value_strategy, max_size=6))
def test_map_bytes_ignore_insertion_order(value):
    assert canon.dumps(value) == canon.dumps(dict(reversed(value.items())))


def stdlib_bytes(value):
    # For values without decimals the stdlib compact encoding is an
    # independent oracle: same escapes, same key order, same separators.
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


@given(ascii_value_strategy)
def test_matches_stdlib_json_on_shared_domain(value):
    assert canon.dumps(value) == stdlib_bytes(value)


def test_more_map_shapes_than_the_table_holds():
    maxsize = canon._shape.cache_info().maxsize
    assert maxsize == 256
    for count in range(maxsize + 44):
        value = {f"k{count}": count, "z": "\n", "\u00e9": [{"b": True, f"a{count}": "x"}]}
        assert canon.dumps(value) == stdlib_bytes(value)
        assert canon._shape.cache_info().currsize <= maxsize


@given(decimal_strategy)
def test_decimal_tokens_always_have_four_digits(value):
    token = canon.dumps(value).decode()
    integer_part, _, fraction = token.partition(".")
    assert len(fraction) == 4
    assert integer_part.lstrip("-").isdigit()
    assert not token.startswith("-0.0000") or value != 0


def test_digest_of_the_empty_map_is_pinned():
    digest = canon.sha256_hex(canon.dumps({}))
    assert digest == "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"


# -- decimal fast paths ----------------------------------------------------
#
# ``_parse_decimal_token`` and ``format_decimal`` skip the quantize for a
# value already at four places; each must agree with the route through
# the token regex and the 60-digit quantize on every input.

_REFERENCE_TOKEN_RE = re.compile(r"-?(?:0|[1-9][0-9]*)\.[0-9]{1,4}")
_REFERENCE_CONTEXT = Context(prec=60)


def _outcome(function, *args):
    try:
        return "value", str(function(*args))
    except AtcpipError as exc:
        return "error", type(exc)


def reference_parse_decimal_token(token):
    if not _REFERENCE_TOKEN_RE.fullmatch(token):
        raise ParseError(f"not canonical: {token!r}")
    try:
        dec = Decimal(token).quantize(canon.QUANTUM, context=_REFERENCE_CONTEXT)
    except InvalidOperation:
        raise ParseError(f"decimal out of range: {token}") from None
    return canon.ZERO4 if dec == 0 else dec


def reference_fixed4(dec):
    if not dec.is_finite():
        raise CanonicalizationError(f"not finite: {dec}")
    try:
        quantized = dec.quantize(canon.QUANTUM, context=_REFERENCE_CONTEXT)
    except InvalidOperation:
        raise CanonicalizationError(f"decimal out of range: {dec}") from None
    if quantized != dec:
        raise CanonicalizationError(f"more than four fractional digits: {dec}")
    return canon.ZERO4 if quantized == 0 else quantized


def reference_format_decimal(dec):
    return format(reference_fixed4(dec), "f")


def _digits(low, high):
    return st.integers(low, high).flatmap(
        lambda count: st.from_regex(rf"[1-9][0-9]{{{count - 1}}}", fullmatch=True)
    )


number_token_strategy = st.builds(
    lambda *parts: "".join(parts),
    st.sampled_from(["", "-", "+"]),
    st.one_of(st.just("0"), _digits(1, 20), _digits(54, 59), st.from_regex(r"0[0-9]{1,3}", fullmatch=True)),
    st.one_of(st.just(""), st.from_regex(r"\.[0-9]{0,6}", fullmatch=True)),
    st.one_of(st.just(""), st.from_regex(r"[eE][-+]?[0-9]{1,3}", fullmatch=True)),
)
special_token_strategy = st.sampled_from(
    ["NaN", "-NaN", "sNaN", "Infinity", "-Infinity", "0.0000", "-0.0000", "-0.0", "0.0", "-0.00001"]
)


@given(number_token_strategy | special_token_strategy | st.text("0123456789.-+eE_ ", max_size=14))
def test_parse_decimal_token_agrees_with_the_quantize_route(token):
    assert _outcome(canon._parse_decimal_token, token) == _outcome(
        reference_parse_decimal_token, token
    )


def test_parse_decimal_token_digit_bound():
    # Fifty-six integer digits and four fractional ones are 60 digits,
    # the most a decimal may carry; one more is out of range.
    for sign in ("", "-"):
        inside = sign + "9" * 56 + ".9999"
        assert str(canon._parse_decimal_token(inside)) == inside
        with pytest.raises(ParseError, match="out of range"):
            canon._parse_decimal_token(sign + "1" + "0" * 56 + ".0000")
    assert canon._parse_decimal_token("-0.0000") is canon.ZERO4


decimal_value_strategy = st.one_of(
    st.builds(
        lambda sign, digits, exponent: Decimal((sign, tuple(map(int, digits)), exponent)),
        st.integers(0, 1),
        _digits(1, 8) | _digits(58, 62) | st.just("0"),
        st.integers(-6, 3),
    ),
    st.sampled_from(
        [Decimal(text) for text in ("NaN", "-NaN", "sNaN", "Infinity", "-Infinity", "-0.0000", "0E-4", "-0E+2")]
    ),
)


@given(decimal_value_strategy)
def test_format_decimal_agrees_with_the_quantize_route(dec):
    assert _outcome(canon.format_decimal, dec) == _outcome(reference_format_decimal, dec)


# Four places, where ``fixed4`` keeps the value, at 59 to 62 digits,
# across the 60-digit bound.
four_places_strategy = st.builds(
    lambda sign, digits: Decimal((sign, tuple(map(int, digits)), -4)),
    st.integers(0, 1),
    _digits(1, 8) | _digits(59, 62),
)


class Rate(Decimal):
    pass


@given(decimal_value_strategy | four_places_strategy)
@example(Decimal("1.2E+4"))  # a point five from the end, in exponent form
@example(Rate("0.0500"))  # a subclass comes back a plain Decimal
def test_fixed4_agrees_with_the_quantize_route(dec):
    outcome = _outcome(canon.fixed4, dec)
    assert outcome == _outcome(reference_fixed4, dec)
    if outcome[0] == "value":
        assert type(canon.fixed4(dec)) is Decimal
        assert (canon.fixed4(dec) is canon.ZERO4) == (dec == 0)


def test_fixed4_keeps_a_decimal_already_at_four_places(monkeypatch):
    def refuse(dec):
        raise AssertionError(f"{dec} quantized again")

    monkeypatch.setattr(canon, "_quantize4", refuse)
    for text in ("0.0500", "-1.2500", "9" * 56 + ".9999"):
        rate = Decimal(text)
        assert canon.fixed4(rate) is rate
    assert canon.fixed4(Decimal("-0.0000")) is canon.ZERO4
    # Written in exponent form, at other places or past 60 digits: quantized.
    for text in ("1.2E+5", "0.05", "1" + "0" * 56 + ".0000"):
        with pytest.raises(AssertionError, match="quantized again"):
            canon.fixed4(Decimal(text))


def test_format_decimal_digit_bound():
    for sign in ("", "-"):
        inside = Decimal(sign + "9" * 56 + ".9999")
        assert canon.format_decimal(inside) == sign + "9" * 56 + ".9999"
        with pytest.raises(CanonicalizationError, match="out of range"):
            canon.format_decimal(Decimal(sign + "1" + "0" * 56 + ".0000"))
    assert canon.format_decimal(Decimal("-0.0000")) == "0.0000"
