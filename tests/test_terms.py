"""Terms schema: normalization, validation at construction, hashing, counter edits."""

import dataclasses
import enum
import re
from collections import Counter
from datetime import datetime
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from atcpip import canon
from atcpip.errors import (
    CanonicalizationError,
    InvalidResult,
    InvalidTerms,
    ParseError,
)
from atcpip.terms import (
    DISPUTE_RESOLUTION_MODES,
    FIELD_CHECKS,
    FIELD_ORDER,
    JURISDICTIONS,
    SCOPE_TAGS,
    TEXT_TEMPLATE,
    TRANSFERABILITY_MODES,
    LicenseTerms,
    TermsDelta,
    apply_delta,
    delta_from_value,
    terms_from_value,
    terms_hash,
)
from conftest import make_terms
from strategies import any_terms_fields, free_text, valid_terms


def test_tag_fields_normalize_to_sorted_unique_tuples():
    built = make_terms(scope=["commercial", "personal", "commercial"])
    assert built.scope == ("commercial", "personal")
    assert make_terms(scope=("personal", "commercial")) == built.replace(scope=built.scope)


def test_rates_coerce_to_four_digit_decimals():
    built = make_terms(royalty_rate="0.05", rev_share=0)
    assert built.royalty_rate == Decimal("0.0500")
    assert canon.dumps(built.royalty_rate) == b"0.0500"
    assert built.rev_share == Decimal("0.0000")


def test_float_rates_rejected():
    with pytest.raises(CanonicalizationError):
        make_terms(royalty_rate=0.05)


class Fee(enum.IntEnum):
    TEN = 10


def test_wrong_scalar_types_rejected():
    with pytest.raises(TypeError):
        make_terms(name=7)
    # Subclasses too: a str subclass spliced raw into the text would
    # write keys of its own there.
    with pytest.raises(TypeError, match="name must be an exact string"):
        make_terms(name=canon.Canonical('1,"upfront_fee":999'))
    with pytest.raises(TypeError, match="exact strings"):
        make_terms(ip_restrictions=[canon.Canonical('"x"')])
    with pytest.raises(TypeError, match="exact integer"):
        make_terms(upfront_fee=Fee.TEN)
    with pytest.raises(TypeError):
        make_terms(onchain_enforcement="yes")
    with pytest.raises(TypeError):
        make_terms(upfront_fee="10")
    with pytest.raises(TypeError):
        make_terms(upfront_fee=True)
    with pytest.raises(TypeError):
        make_terms(scope="personal")


def test_default_terms_are_valid():
    assert make_terms() == LicenseTerms()


def violations(**overrides):
    """(path, reason) pairs that refuse terms built with ``overrides``."""
    with pytest.raises(InvalidTerms) as exc:
        make_terms(**overrides)
    return [(v.path, v.reason) for v in exc.value.violations]


def test_equal_terms_hash_equal_regardless_of_input_order():
    one = make_terms(scope=["personal", "commercial"], royalty_rate="0.1")
    two = make_terms(scope=["commercial", "personal"], royalty_rate=Decimal("0.1000"))
    assert terms_hash(one) == terms_hash(two)
    assert re.fullmatch(r"[0-9a-f]{64}", terms_hash(one))


def test_validate_flags_out_of_range_royalty():
    assert violations(royalty_rate="1.5") == [(("royalty_rate",), "out of range [0,1]")]


def test_validate_flags_rate_sum_over_one():
    report = violations(royalty_rate="0.6", rev_share="0.6")
    assert any(reason == "royalty_rate + rev_share > 1" for _, reason in report)


def test_validate_flags_unknown_scope_tag():
    report = violations(scope=["personal", "resale"])
    assert (("scope", "resale"), "unknown scope tag") in report


@pytest.mark.parametrize(
    "duration", ["soon", "2025-13-40", "2025/01/01", "20250101", "", "2025-W01-1"]
)
def test_validate_flags_bad_duration(duration):
    assert any(path == ("duration",) for path, _ in violations(duration=duration))


def test_validate_accepts_perpetual_duration():
    assert make_terms(duration="perpetual").duration == "perpetual"


def test_validate_flags_unknown_jurisdiction():
    assert any(path == ("jurisdiction",) for path, _ in violations(jurisdiction="ZZ"))
    assert make_terms(jurisdiction="JP").jurisdiction == "JP"


def test_validate_flags_unknown_modes_and_negative_fee():
    assert any(path == ("transferability",) for path, _ in violations(transferability="maybe"))
    assert any(
        path == ("dispute_resolution",) for path, _ in violations(dispute_resolution="shouting")
    )
    assert any(path == ("upfront_fee",) for path, _ in violations(upfront_fee=-1))


def test_terms_hash_refuses_invalid_terms():
    with pytest.raises(InvalidTerms):
        terms_hash(make_terms(royalty_rate="1.5"))


def test_no_route_builds_invalid_terms():
    base = make_terms()
    bad_value = dict(base.to_value(), royalty_rate=Decimal("1.5000"))
    routes = [
        lambda: LicenseTerms(royalty_rate=Decimal("1.5")),
        lambda: base.replace(royalty_rate=Decimal("1.5")),
        lambda: dataclasses.replace(base, royalty_rate=Decimal("1.5")),
        lambda: terms_from_value(bad_value),
    ]
    for route in routes:
        with pytest.raises(InvalidTerms) as exc:
            route()
        assert [(v.path, v.reason) for v in exc.value.violations] == [
            (("royalty_rate",), "out of range [0,1]")
        ]
    edit = TermsDelta((("royalty_rate", Decimal("1.5000")),))
    with pytest.raises(InvalidResult, match=r"^edited terms fail validation: royalty_rate: out of"):
        apply_delta(base, edit)


def test_edited_and_rebuilt_terms_hash_their_own_fields():
    base = make_terms(upfront_fee=5)
    base_hash = terms_hash(base)
    edited = [
        base.replace(upfront_fee=6),
        dataclasses.replace(base, scope=["commercial"]),
        terms_from_value(dict(base.to_value(), royalty_rate=Decimal("0.2500"))),
    ]
    for terms in edited:
        assert terms_hash(terms) == canon.sha256_hex(canon.dumps(terms.to_value())) != base_hash
    assert terms_hash(terms_from_value(base.to_value())) == base_hash
    assert terms_hash(base) == canon.sha256_hex(canon.dumps(base.to_value()))


def test_cached_digest_stays_out_of_value_equality_and_hash():
    hashed, fresh = make_terms(upfront_fee=5), make_terms(upfront_fee=5)
    terms_hash(hashed)
    assert list(hashed.to_value()) == list(FIELD_ORDER)
    assert hashed.to_value() == fresh.to_value()
    assert hashed == fresh and hash(hashed) == hash(fresh)
    assert terms_from_value(hashed.to_value()) == hashed


@given(valid_terms())
def test_terms_rebuilt_from_their_text_are_equal_and_encode_identically(terms):
    # The soundness of reuse: a receiver that takes a held object for text
    # equal to its own gets what parsing that text would have built.
    rebuilt = terms_from_value(canon.loads(terms.canonical))
    assert rebuilt == terms
    assert rebuilt.canonical == terms.canonical
    assert canon.dumps(terms.canonical) == canon.dumps(terms.to_value())
    assert terms_hash(terms) == canon.sha256_hex(canon.dumps(terms.to_value()))
    assert terms_from_value(terms.canonical) == terms
    assert terms_from_value(terms.canonical, (None, terms)) is terms


def test_held_terms_are_matched_by_text_not_by_map():
    held = make_terms(upfront_fee=5)
    assert terms_from_value(held.to_value(), (held,)) is not held
    # A plain string is not taken for canonical text: it is no terms
    # document.
    with pytest.raises(ParseError, match="must be a map"):
        terms_from_value(str(held.canonical), (held,))


def test_terms_with_a_lone_surrogate_have_no_text_and_no_digest():
    terms = make_terms(description="\ud800")
    with pytest.raises(CanonicalizationError):
        terms.canonical
    with pytest.raises(CanonicalizationError):
        terms_hash(terms)


def test_template_keys_are_every_field_in_code_point_order():
    # A field added to LicenseTerms but not to the template fails here.
    assert re.findall(r'"(\w+)":', TEXT_TEMPLATE) == sorted(FIELD_ORDER)


@given(
    valid_terms(),
    free_text(),
    free_text(),
    st.lists(free_text(min_size=1), max_size=3),
    st.lists(free_text(min_size=1), max_size=3),
    st.lists(free_text(min_size=1), max_size=3),
)
def test_template_text_is_the_encoded_map(
    terms, name, description, revocation, compliance, restrictions
):
    terms = terms.replace(
        name=name,
        description=description,
        revocation_conditions=revocation,
        compliance_requirements=compliance,
        ip_restrictions=restrictions,
    )
    assert terms.canonical.encode("utf-8") == canon.dumps(terms.to_value())


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"royalty_rate": 0, "rev_share": "0"}, '"rev_share":0.0000,'),
        ({"royalty_rate": Decimal("-0"), "rev_share": 0}, '"royalty_rate":0.0000,'),
        ({"royalty_rate": 0, "rev_share": Decimal("-0.0000")}, '"rev_share":0.0000,'),
        ({"royalty_rate": 1}, '"royalty_rate":1.0000,'),
        ({"upfront_fee": 0}, '"upfront_fee":0}'),
        ({"upfront_fee": canon.INT_MAX}, '"upfront_fee":9223372036854775807}'),
        (
            {
                "scope": (),
                "revocation_conditions": (),
                "compliance_requirements": (),
                "ip_restrictions": (),
            },
            '"compliance_requirements":[],',
        ),
    ],
    ids=[
        "zero_rates",
        "negative_zero_royalty",
        "negative_zero_rev_share",
        "rate_one",
        "fee_zero",
        "fee_int_max",
        "no_tags",
    ],
)
def test_template_text_at_the_edges_is_the_encoded_map(overrides, fragment):
    terms = make_terms(**overrides)
    assert terms.canonical.encode("utf-8") == canon.dumps(terms.to_value())
    assert fragment in terms.canonical


def test_counter_carrying_canonical_text_in_a_field_does_not_build():
    edit = TermsDelta((("description", canon.Canonical('"x","upfront_fee":999')),))
    with pytest.raises(InvalidResult, match="do not build: description must be an exact"):
        apply_delta(make_terms(), edit)


def test_from_value_round_trip():
    original = make_terms(scope=["commercial"], upfront_fee=5, royalty_rate="0.25")
    assert terms_from_value(original.to_value()) == original


def test_from_value_rejects_unknown_and_missing_fields():
    doc = make_terms().to_value()
    doc["surprise"] = 1
    with pytest.raises(ParseError):
        terms_from_value(doc)
    doc = make_terms().to_value()
    del doc["royalty_rate"]
    with pytest.raises(ParseError):
        terms_from_value(doc)
    for name in ("royalty_rate", "rev_share"):
        doc = make_terms().to_value()
        doc[name] = "0.1"
        with pytest.raises(ParseError, match=name):
            terms_from_value(doc)


# -- counter edits -----------------------------------------------------------


def test_apply_sets_one_scalar_field():
    base = make_terms()
    raised = base.replace(royalty_rate=Decimal("0.1000"))
    delta = TermsDelta((("royalty_rate", Decimal("0.1000")),))
    assert delta.to_value() == [{"op": "set", "path": ["royalty_rate"], "value": Decimal("0.1000")}]
    assert apply_delta(base, delta) == raised


def test_empty_delta_changes_nothing():
    base = make_terms()
    assert apply_delta(base, TermsDelta(())) == base
    assert delta_from_value([]) == TermsDelta(())


def test_apply_rejects_unknown_paths():
    base = make_terms()
    with pytest.raises(InvalidResult):
        apply_delta(base, TermsDelta((("no_such_field", 1),)))


def test_apply_rejects_result_that_fails_validation():
    base = make_terms()
    with pytest.raises(InvalidResult):
        apply_delta(base, TermsDelta((("royalty_rate", Decimal("1.5000")),)))
    with pytest.raises(InvalidResult):
        apply_delta(base, TermsDelta((("duration", "whenever"),)))
    with pytest.raises(InvalidResult, match=r"^edited terms do not build: upfront_fee"):
        apply_delta(base, TermsDelta((("upfront_fee", "10"),)))
    with pytest.raises(InvalidResult):
        apply_delta(base, TermsDelta((("scope", "personal"),)))


def test_apply_whole_list_set_on_tag_field():
    base = make_terms(scope=["personal"])
    out = apply_delta(base, TermsDelta((("scope", ["commercial", "personal"]),)))
    assert out.scope == ("commercial", "personal")


def test_delta_from_value_reads_whole_field_sets():
    wire = [
        {"op": "set", "path": ["royalty_rate"], "value": 0},
        {"op": "set", "path": ["scope"], "value": ["commercial"]},
        {"op": "set", "path": ["upfront_fee"], "value": 7},
    ]
    delta = delta_from_value(wire)
    assert delta == TermsDelta(
        (("royalty_rate", Decimal("0.0000")), ("scope", ["commercial"]), ("upfront_fee", 7))
    )
    assert delta.to_value() == [dict(wire[0], value=Decimal("0.0000")), *wire[1:]]


SET_RATE = {"op": "set", "path": ["royalty_rate"], "value": Decimal("0.1000")}


@pytest.mark.parametrize(
    "suggestions",
    [
        {"edits": []},
        [["set", "royalty_rate", 0]],
        [{"op": "set", "path": ["no_such_field"], "value": 1}],
        [{"op": "set", "path": ["scope", "commercial"], "value": True}],
        [{"op": "set", "path": [], "value": 1}],
        [{"op": "set", "path": "royalty_rate", "value": 0}],
        [{"op": "remove", "path": ["scope", "personal"]}],
        [{"op": "remove", "path": ["name"], "value": None}],
        [dict(SET_RATE, value="0.1")],
        [dict(SET_RATE, value=True)],
        [{"op": "set", "path": ["rev_share"], "value": None}],
        [dict(SET_RATE, note="x")],
        [{"op": "set", "path": ["royalty_rate"]}],
        [SET_RATE, {"path": ["upfront_fee"], "value": 1}],
    ],
    ids=[
        "not_a_list", "not_a_map", "unknown_field", "deep_path", "empty_path", "string_path",
        "remove_tag", "remove_field", "string_rate", "bool_rate", "null_rate", "extra_key",
        "missing_value", "missing_op",
    ],
)
def test_delta_from_value_refuses_every_other_edit(suggestions):
    with pytest.raises(ParseError):
        delta_from_value(suggestions)


def every_field_of(b):
    """The delta that sets every field to its value in b."""
    return TermsDelta(tuple((name, getattr(b, name)) for name in FIELD_ORDER))


@given(valid_terms(), valid_terms())
def test_apply_diff_round_trips(a, b):
    delta = every_field_of(b)
    assert apply_delta(a, delta) == b
    wire = canon.loads(canon.dumps(delta.to_value()))
    assert apply_delta(a, delta_from_value(wire)) == b


@given(valid_terms(), valid_terms())
def test_diff_then_hash_matches_target(a, b):
    assert terms_hash(apply_delta(a, every_field_of(b))) == terms_hash(b)


# -- the domain rules, restated ------------------------------------------------


def oracle_paths(fields):
    """Paths a terms document with these well-typed field values breaks:
    scope tags come from a fixed set; other tags are non-empty; duration
    is 'perpetual' or a YYYY-MM-DD calendar date; the jurisdiction is a
    known code; both rates lie in [0, 1] and, when they do, sum to at
    most 1; the two modes are known; the fee fits a signed 64-bit int."""
    paths = [("scope", tag) for tag in set(fields["scope"]) if tag not in SCOPE_TAGS]
    for name in ("revocation_conditions", "compliance_requirements", "ip_restrictions"):
        paths += [(name, "") for tag in set(fields[name]) if tag == ""]
    duration = fields["duration"]
    if duration != "perpetual":
        try:
            if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", duration):
                raise ValueError(duration)
            datetime.strptime(duration, "%Y-%m-%d")
        except ValueError:
            paths.append(("duration",))
    if fields["jurisdiction"] not in JURISDICTIONS:
        paths.append(("jurisdiction",))
    rates = [Decimal(fields[name]) for name in ("royalty_rate", "rev_share")]
    for name, rate in zip(("royalty_rate", "rev_share"), rates):
        if not 0 <= rate <= 1:
            paths.append((name,))
    if all(0 <= rate <= 1 for rate in rates) and sum(rates) > 1:
        paths.append(())
    if fields["transferability"] not in TRANSFERABILITY_MODES:
        paths.append(("transferability",))
    if fields["dispute_resolution"] not in DISPUTE_RESOLUTION_MODES:
        paths.append(("dispute_resolution",))
    if not 0 <= fields["upfront_fee"] < 2**63:
        paths.append(("upfront_fee",))
    return Counter(paths)


def test_oracle_flags_what_it_states():
    assert oracle_paths(make_terms().to_value()) == Counter()
    fields = dict(make_terms().to_value(), scope=["personal", "resale", ""], duration="2025-02-29",
                  royalty_rate=Decimal("0.7"), rev_share=Decimal("0.4"), upfront_fee=2**63)
    assert oracle_paths(fields) == Counter(
        [("scope", "resale"), ("scope", ""), ("duration",), (), ("upfront_fee",)]
    )


@given(any_terms_fields())
def test_construction_refuses_exactly_what_the_oracle_flags(fields):
    expected = oracle_paths(fields)
    try:
        built = LicenseTerms(**fields)
    except InvalidTerms as exc:
        assert Counter(v.path for v in exc.violations) == expected
    else:
        assert not expected
        assert oracle_paths(built.to_value()) == Counter()


@st.composite
def edit_lists(draw):
    values = draw(any_terms_fields())
    edits = []
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(FIELD_ORDER))
        edits.append((name, values[name]))
    return TermsDelta(tuple(edits))


@given(valid_terms(), edit_lists())
def test_apply_delta_never_returns_terms_the_oracle_rejects(base, delta):
    try:
        edited = apply_delta(base, delta)
    except InvalidResult:
        return
    assert oracle_paths(edited.to_value()) == Counter()


# Values no field's check takes, or that only some fields' checks take.
WRONG_TYPES = [
    7, -1, True, None, 0.25, "personal", "", Decimal("0.1"), Decimal("0.00001"),
    Decimal("NaN"), Fee.TEN, canon.Canonical('"x"'), ["personal", 3], ("read_only",), b"US",
]


@st.composite
def edits_of_any_type(draw):
    """Changes to any fields: values in and out of the domain, and of the
    wrong type."""
    values = draw(any_terms_fields())
    changes = {}
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(FIELD_ORDER))
        changes[name] = draw(st.one_of(st.just(values[name]), st.sampled_from(WRONG_TYPES)))
    return changes


def outcome(build):
    try:
        return build()
    except (TypeError, InvalidTerms, CanonicalizationError) as exc:
        return type(exc), str(exc)


@given(valid_terms(), edits_of_any_type())
def test_derived_terms_are_what_the_constructor_builds(base, changes):
    derived = outcome(lambda: base.replace(**changes))
    built = outcome(lambda: LicenseTerms(**{**base.to_value(), **changes}))
    assert derived == built
    if isinstance(built, LicenseTerms):
        assert derived.canonical == built.canonical


def test_every_field_has_one_check():
    assert FIELD_CHECKS.keys() == set(FIELD_ORDER)


def test_an_unknown_field_is_the_constructors_type_error():
    with pytest.raises(TypeError) as derived:
        make_terms().replace(fee=1)
    with pytest.raises(TypeError) as built:
        LicenseTerms(fee=1)
    assert str(derived.value) == str(built.value)
