"""Terms schema: normalization, validation, hashing, diff/apply."""

import dataclasses
import re
from decimal import Decimal

import pytest
from hypothesis import given

from atcpip import canon
from atcpip.errors import (
    CanonicalizationError,
    InvalidResult,
    InvalidTerms,
    ParseError,
    UnknownPath,
)
from atcpip.terms import (
    FIELD_ORDER,
    TermsDelta,
    TermsEdit,
    apply_delta,
    diff,
    terms_from_value,
    terms_hash,
    validate,
)
from conftest import make_terms
from strategies import valid_terms


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


def test_wrong_scalar_types_rejected():
    with pytest.raises(TypeError):
        make_terms(name=7)
    with pytest.raises(TypeError):
        make_terms(onchain_enforcement="yes")
    with pytest.raises(TypeError):
        make_terms(upfront_fee="10")
    with pytest.raises(TypeError):
        make_terms(upfront_fee=True)
    with pytest.raises(TypeError):
        make_terms(scope="personal")


def test_default_terms_are_valid():
    assert validate(make_terms()) == ()


def test_equal_terms_hash_equal_regardless_of_input_order():
    one = make_terms(scope=["personal", "commercial"], royalty_rate="0.1")
    two = make_terms(scope=["commercial", "personal"], royalty_rate=Decimal("0.1000"))
    assert terms_hash(one) == terms_hash(two)
    assert re.fullmatch(r"[0-9a-f]{64}", terms_hash(one))


def test_validate_flags_out_of_range_royalty():
    report = validate(make_terms(royalty_rate="1.5"))
    assert [(v.path, v.reason) for v in report] == [(("royalty_rate",), "out of range [0,1]")]


def test_validate_flags_rate_sum_over_one():
    report = validate(make_terms(royalty_rate="0.6", rev_share="0.6"))
    assert any(v.reason == "royalty_rate + rev_share > 1" for v in report)


def test_validate_flags_unknown_scope_tag():
    report = validate(make_terms(scope=["personal", "resale"]))
    assert (("scope", "resale"), "unknown scope tag") in [(v.path, v.reason) for v in report]


@pytest.mark.parametrize("duration", ["soon", "2025-13-40", "2025/01/01", "20250101", ""])
def test_validate_flags_bad_duration(duration):
    assert any(v.path == ("duration",) for v in validate(make_terms(duration=duration)))


def test_validate_accepts_perpetual_duration():
    assert validate(make_terms(duration="perpetual")) == ()


def test_validate_flags_unknown_jurisdiction():
    assert any(v.path == ("jurisdiction",) for v in validate(make_terms(jurisdiction="ZZ")))
    assert validate(make_terms(jurisdiction="JP")) == ()


def test_validate_flags_unknown_modes_and_negative_fee():
    assert any(v.path == ("transferability",) for v in validate(make_terms(transferability="maybe")))
    assert any(
        v.path == ("dispute_resolution",)
        for v in validate(make_terms(dispute_resolution="shouting"))
    )
    assert any(v.path == ("upfront_fee",) for v in validate(make_terms(upfront_fee=-1)))


def test_terms_hash_refuses_invalid_terms():
    with pytest.raises(InvalidTerms):
        terms_hash(make_terms(royalty_rate="1.5"))


def test_terms_hash_refuses_invalid_terms_on_every_call():
    bad = make_terms(royalty_rate="1.5")
    for _ in range(3):
        with pytest.raises(InvalidTerms):
            terms_hash(bad)
    bad._digest  # an instance holding its digest is still validated
    with pytest.raises(InvalidTerms):
        terms_hash(bad)


def test_edited_and_rebuilt_terms_hash_their_own_fields():
    base = make_terms(upfront_fee=5)
    base_hash = terms_hash(base)
    edited = [
        base.replace(upfront_fee=6),
        dataclasses.replace(base, scope=["commercial"]),
        terms_from_value(dict(base.to_value(), royalty_rate=Decimal("0.2500"))),
    ]
    for terms in edited:
        assert terms_hash(terms) == canon.hash_value(terms.to_value()) != base_hash
    assert terms_hash(terms_from_value(base.to_value())) == base_hash
    assert terms_hash(base) == canon.hash_value(base.to_value())


def test_cached_digest_stays_out_of_value_equality_and_hash():
    hashed, fresh = make_terms(upfront_fee=5), make_terms(upfront_fee=5)
    terms_hash(hashed)
    assert list(hashed.to_value()) == list(FIELD_ORDER)
    assert hashed.to_value() == fresh.to_value()
    assert hashed == fresh and hash(hashed) == hash(fresh)
    assert terms_from_value(hashed.to_value()) == hashed


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


# -- diff / apply ------------------------------------------------------------


def test_diff_single_scalar_change():
    base = make_terms()
    raised = base.replace(royalty_rate=Decimal("0.1000"))
    delta = diff(base, raised)
    assert delta.edits == (TermsEdit(("royalty_rate",), "set", Decimal("0.1000")),)
    assert apply_delta(base, delta) == raised


def test_diff_tag_changes_use_depth_two_paths():
    base = make_terms(scope=["personal"])
    other = base.replace(scope=("commercial",))
    delta = diff(base, other)
    assert delta.edits == (
        TermsEdit(("scope", "personal"), "remove"),
        TermsEdit(("scope", "commercial"), "set", True),
    )
    assert apply_delta(base, delta) == other


def test_diff_identity_is_empty():
    base = make_terms()
    assert diff(base, base) == TermsDelta(())
    assert apply_delta(base, TermsDelta(())) == base


def test_apply_rejects_unknown_paths():
    base = make_terms()
    with pytest.raises(UnknownPath):
        apply_delta(base, TermsDelta((TermsEdit(("no_such_field",), "set", 1),)))
    with pytest.raises(UnknownPath):
        apply_delta(base, TermsDelta((TermsEdit(("royalty_rate", "deep"), "set", 1),)))
    with pytest.raises(UnknownPath):
        apply_delta(base, TermsDelta((TermsEdit(("scope", "commercial"), "remove"),)))


def test_apply_rejects_result_that_fails_validation():
    base = make_terms()
    with pytest.raises(InvalidResult):
        apply_delta(base, TermsDelta((TermsEdit(("royalty_rate",), "set", Decimal("1.5000")),)))
    with pytest.raises(InvalidResult):
        apply_delta(base, TermsDelta((TermsEdit(("duration",), "set", "whenever"),)))
    with pytest.raises(InvalidResult):
        apply_delta(base, TermsDelta((TermsEdit(("name",), "remove"),)))


def test_apply_whole_list_set_on_tag_field():
    base = make_terms(scope=["personal"])
    out = apply_delta(base, TermsDelta((TermsEdit(("scope",), "set", ["commercial", "personal"]),)))
    assert out.scope == ("commercial", "personal")


@given(valid_terms(), valid_terms())
def test_apply_diff_round_trips(a, b):
    assert apply_delta(a, diff(a, b)) == b


@given(valid_terms(), valid_terms())
def test_diff_then_hash_matches_target(a, b):
    assert terms_hash(apply_delta(a, diff(a, b))) == terms_hash(b)

