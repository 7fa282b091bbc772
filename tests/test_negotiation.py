"""Negotiation: bounds, counters, concessions, tiers, convergence."""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atcpip import canon
from atcpip.errors import UnknownPath
from atcpip.negotiation import (
    RISK_TIERS,
    Accept,
    ArbiterDecision,
    ChoiceBound,
    Counter,
    NegotiationPolicy,
    NumericBound,
    Reject,
    SetBound,
    arbiter_decide,
    evaluate_offer,
    revise_terms,
)
from atcpip.protocol import ProviderState, RequesterState
from atcpip.terms import apply_delta, delta_from_value, terms_hash
from conftest import make_terms, negotiate, pump
from strategies import valid_terms


def requester_policy(**kwargs):
    defaults = dict(
        bounds={
            "royalty_rate": NumericBound(Decimal("0.0000"), Decimal("0.1000")),
            "upfront_fee": NumericBound(0, 20),
        },
        max_rounds=4,
    )
    defaults.update(kwargs)
    return NegotiationPolicy(**defaults)


def provider_policy(**kwargs):
    defaults = dict(
        bounds={
            "royalty_rate": NumericBound(Decimal("0.0500"), Decimal("0.3000")),
            "upfront_fee": NumericBound(10, 100),
        },
        max_rounds=4,
    )
    defaults.update(kwargs)
    return NegotiationPolicy(**defaults)


def test_in_bounds_offer_accepted():
    offer = make_terms(royalty_rate="0.05", upfront_fee=15)
    assert isinstance(evaluate_offer(requester_policy(), offer), Accept)


def test_counter_clamps_to_own_bound():
    offer = make_terms(royalty_rate="0.30", upfront_fee=15)
    decision = evaluate_offer(requester_policy(), offer)
    assert isinstance(decision, Counter)
    assert decision.delta.changes == (("royalty_rate", Decimal("0.1000")),)
    countered = apply_delta(offer, decision.delta)
    assert countered.royalty_rate == Decimal("0.1000")


def test_non_negotiable_breach_rejects():
    policy = requester_policy(non_negotiable=frozenset({"royalty_rate"}))
    decision = evaluate_offer(policy, make_terms(royalty_rate="0.30", upfront_fee=15))
    assert isinstance(decision, Reject)
    assert "royalty_rate" in decision.reason


def test_choice_and_set_bounds():
    policy = requester_policy(
        bounds={
            "transferability": ChoiceBound(("transferable", "transferable_with_approval")),
            "scope": SetBound({"personal"}),
        }
    )
    offer = make_terms(transferability="non_transferable", scope=["personal", "commercial"])
    decision = evaluate_offer(policy, offer)
    assert isinstance(decision, Counter)
    edits = dict(decision.delta.changes)
    assert edits["transferability"] == "transferable"
    assert edits["scope"] == ["personal"]


@given(valid_terms())
def test_counter_deltas_survive_the_wire(offer):
    policy = requester_policy(
        bounds={
            "royalty_rate": NumericBound(Decimal("0.0500"), Decimal("0.1000")),
            "upfront_fee": NumericBound(10, 10**6),
            "duration": ChoiceBound(("2030-12-31", "perpetual")),
            "scope": SetBound({"personal", "commercial"}),
            "ip_restrictions": SetBound({"read_only"}),
        }
    )
    decision = evaluate_offer(policy, offer)
    if not isinstance(decision, Counter):
        return
    wire = canon.loads(canon.dumps(decision.delta.to_value()))
    assert all(edit.keys() == {"op", "path", "value"} and len(edit["path"]) == 1 for edit in wire)
    assert delta_from_value(wire) == decision.delta
    countered = apply_delta(offer, decision.delta)
    assert isinstance(evaluate_offer(policy, countered), Accept)


def test_policy_rejects_unknown_bound_paths():
    with pytest.raises(UnknownPath):
        NegotiationPolicy(bounds={"colour": ChoiceBound(("red",))})
    with pytest.raises(UnknownPath):
        NegotiationPolicy(non_negotiable={"colour"})
    with pytest.raises(TypeError):
        NegotiationPolicy(bounds={"royalty_rate": ChoiceBound(("0.05",))})


def test_revision_accepts_in_bound_counter_verbatim():
    own = make_terms(royalty_rate="0.20", upfront_fee=50)
    counter = own.replace(royalty_rate=Decimal("0.1000"))
    revised = revise_terms(provider_policy(), own, counter)
    assert revised.royalty_rate == Decimal("0.1000")
    assert revised.upfront_fee == 50


def test_revision_concedes_partway_toward_out_of_bound_counter():
    own = make_terms(royalty_rate="0.20", upfront_fee=50)
    counter = own.replace(royalty_rate=Decimal("0.0000"))
    revised = revise_terms(provider_policy(), own, counter)
    # halfway from 0.20 toward 0.00, still above the 0.05 floor
    assert revised.royalty_rate == Decimal("0.1000")
    counter_fee = own.replace(upfront_fee=0)
    assert revise_terms(provider_policy(), own, counter_fee).upfront_fee == 25
    # concession clamped at the bound when the midpoint would cross it
    own_low = make_terms(royalty_rate="0.06", upfront_fee=50)
    revised_low = revise_terms(provider_policy(), own_low, own_low.replace(royalty_rate=Decimal(0)))
    assert revised_low.royalty_rate == Decimal("0.0500")


def test_revision_keeps_non_negotiable_and_unacceptable_values():
    policy = provider_policy(non_negotiable=frozenset({"upfront_fee"}))
    own = make_terms(royalty_rate="0.20", upfront_fee=50)
    counter = own.replace(upfront_fee=10, transferability="transferable")
    revised = revise_terms(policy, own, counter)
    assert revised.upfront_fee == 50
    # no bound on transferability: counter value accepted
    assert revised.transferability == "transferable"


def test_revision_falls_back_when_blend_breaks_validation():
    policy = NegotiationPolicy(
        bounds={"royalty_rate": NumericBound(Decimal("0"), Decimal("1"))},
        non_negotiable={"rev_share"},
    )
    own = make_terms(royalty_rate="0.20", rev_share="0.50")
    # The counter is valid (0.6 + 0.3), but keeping our rev_share while
    # taking its royalty would sum to 1.1.
    counter = own.replace(royalty_rate=Decimal("0.6000"), rev_share=Decimal("0.3000"))
    assert revise_terms(policy, own, counter) == own


# -- risk tiers ---------------------------------------------------------------


def test_tier_presets():
    assert RISK_TIERS["conservative"].max_price_delta_fraction == Decimal("0")
    assert RISK_TIERS["standard"].max_royalty_delta == Decimal("0.0100")
    assert RISK_TIERS["permissive"].max_price_delta_fraction == Decimal("0.2000")


def test_arbiter_thresholds():
    base = make_terms(royalty_rate="0.05", upfront_fee=100)
    nudge = base.replace(royalty_rate=Decimal("0.0600"))
    assert arbiter_decide(RISK_TIERS["standard"], base, nudge) is ArbiterDecision.AUTO_ACCEPT
    shove = base.replace(royalty_rate=Decimal("0.0700"))
    assert arbiter_decide(RISK_TIERS["standard"], base, shove) is ArbiterDecision.ESCALATE
    fee_nudge = base.replace(upfront_fee=105)
    assert arbiter_decide(RISK_TIERS["standard"], base, fee_nudge) is ArbiterDecision.AUTO_ACCEPT
    fee_shove = base.replace(upfront_fee=106)
    assert arbiter_decide(RISK_TIERS["standard"], base, fee_shove) is ArbiterDecision.ESCALATE
    assert arbiter_decide(RISK_TIERS["conservative"], base, base) is ArbiterDecision.AUTO_ACCEPT
    assert arbiter_decide(RISK_TIERS["conservative"], base, nudge) is ArbiterDecision.ESCALATE


def test_arbiter_escalates_non_numeric_fields():
    base = make_terms()
    moved = base.replace(duration="perpetual")
    assert arbiter_decide(RISK_TIERS["permissive"], base, moved) is ArbiterDecision.ESCALATE


@given(
    st.integers(min_value=0, max_value=600).map(lambda u: Decimal(u).scaleb(-4)),
    st.integers(min_value=0, max_value=130),
)
def test_tier_strictness_is_nested(royalty_delta, fee):
    base = make_terms(royalty_rate="0.0600", upfront_fee=100)
    counter = base.replace(
        royalty_rate=base.royalty_rate - royalty_delta, upfront_fee=fee
    )
    order = ["conservative", "standard", "permissive"]
    accepts = [
        arbiter_decide(RISK_TIERS[name], base, counter) is ArbiterDecision.AUTO_ACCEPT
        for name in order
    ]
    # once a stricter tier accepts, looser tiers must accept too
    for stricter, looser in zip(accepts, accepts[1:]):
        assert not stricter or looser


# -- full loop, run by two AgentRuntimes ---------------------------------------


def agreed_terms(ledger):
    """Terms of the session's committed agreement, or None without one."""
    token = ledger.session_agreement("s1")
    return token.terms if token is not None else None


def draft_proposers(ledger):
    return [e.payload["proposer_id"] for e in ledger.entries() if e.kind == "draft_token"]


def test_loop_converges_on_overlapping_bounds():
    initial = make_terms(royalty_rate="0.30", upfront_fee=40)
    ledger, runtimes = negotiate(initial, provider_policy(), requester_policy())
    agreed = agreed_terms(ledger)
    assert runtimes["requester"].session("s1").state is RequesterState.COMPLETED
    assert agreed.royalty_rate == Decimal("0.1000")
    assert agreed.upfront_fee == 20
    assert isinstance(evaluate_offer(requester_policy(), agreed), Accept)
    assert isinstance(evaluate_offer(provider_policy(), agreed), Accept)
    assert draft_proposers(ledger) == ["provider", "requester"]


def test_loop_rejection_on_non_negotiable():
    initial = make_terms(royalty_rate="0.30", upfront_fee=40)
    stubborn = requester_policy(non_negotiable=frozenset({"royalty_rate"}))
    ledger, runtimes = negotiate(initial, provider_policy(), stubborn)
    assert agreed_terms(ledger) is None
    assert runtimes["requester"].session("s1").state is RequesterState.REJECTED
    provider = runtimes["provider"].session("s1")
    assert provider.state is ProviderState.REJECTED


def test_silent_requester_yields_unconfirmed_outcome():
    initial = make_terms(royalty_rate="0.30", upfront_fee=40)
    mute = requester_policy(max_rounds=0)
    ledger, runtimes = negotiate(initial, provider_policy(), mute)
    provider = runtimes["provider"].session("s1")
    assert provider.state is ProviderState.TERMS_PROPOSED
    pump(runtimes, runtimes["provider"].expire_timer("s1"))
    assert agreed_terms(ledger) is None
    # The provider moved on to settlement with no accept_terms: the
    # requester sent nothing after its request.
    assert provider.state is ProviderState.AWAITING_PAYMENT
    assert runtimes["requester"].session("s1").out_seq == 1
    assert provider.terms == initial
    assert draft_proposers(ledger) == ["provider"]


def test_drafts_minted_per_proposal_with_ledger():
    initial = make_terms(royalty_rate="0.30", upfront_fee=40)
    ledger, _ = negotiate(initial, provider_policy(), requester_policy())
    agreed = agreed_terms(ledger)
    assert agreed is not None
    drafts = [e for e in ledger.entries() if e.kind == "draft_token"]
    assert [d.payload["round"] for d in drafts] == [1, 2]
    assert [d.payload["proposer_id"] for d in drafts] == ["provider", "requester"]
    assert [d.payload["terms_hash"] for d in drafts] == [terms_hash(initial), terms_hash(agreed)]


def test_auto_accept_skips_provider_revision_budget():
    initial = make_terms(royalty_rate="0.1050", upfront_fee=0)
    # provider has no revision budget left, but the tier absorbs the counter
    grumpy = provider_policy(max_rounds=0)
    picky = requester_policy()
    blocked, runtimes = negotiate(initial, grumpy, picky)
    assert agreed_terms(blocked) is None
    assert runtimes["provider"].session("s1").reject_reason == "negotiation budget exhausted"
    tiered, _ = negotiate(initial, grumpy, picky, tier="standard")
    assert agreed_terms(tiered).royalty_rate == Decimal("0.1000")


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=3000),
)
def test_random_overlapping_bounds_always_converge(r_lo, r_width, p_offset, p_width, start):
    requester_low = Decimal(r_lo).scaleb(-4)
    requester_high = Decimal(r_lo + r_width).scaleb(-4)
    # provider range begins inside the requester range: guaranteed overlap
    provider_low = Decimal(r_lo + min(p_offset, r_width)).scaleb(-4)
    provider_high = Decimal(r_lo + min(p_offset, r_width) + p_width).scaleb(-4)
    req = NegotiationPolicy(
        bounds={"royalty_rate": NumericBound(requester_low, requester_high)},
        max_rounds=3,
    )
    prov = NegotiationPolicy(
        bounds={"royalty_rate": NumericBound(provider_low, provider_high)},
        max_rounds=3,
    )
    initial = make_terms(
        royalty_rate=prov.bounds["royalty_rate"].clamp(Decimal(start).scaleb(-4)),
        rev_share="0",
    )
    ledger, _ = negotiate(initial, prov, req)
    agreed = agreed_terms(ledger)
    assert agreed is not None
    assert isinstance(evaluate_offer(req, agreed), Accept)
    assert isinstance(evaluate_offer(prov, agreed), Accept)
