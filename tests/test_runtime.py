"""Runtime: catalogs, gating, negotiation wiring, settlement, courtship."""

from decimal import Decimal

import pytest

from atcpip import canon
from atcpip.negotiation import (
    NegotiationPolicy,
    NumericBound,
    RISK_TIERS,
    SetBound,
)
from atcpip.errors import ParseError, UnknownContent
from atcpip.ledger import token_to_value
from atcpip.protocol import (
    FRAME_HEADER,
    NO_PAYMENT_FAILURE,
    NO_TOKEN_FAILURE,
    NON_IP_MEMORY,
    NON_IP_NOTE,
    ProtocolMessage,
    ProviderState,
    RequesterState,
    SessionConfig,
    decode_message,
    encode_message,
    message_from_value,
)
from atcpip import runtime as runtime_module
from atcpip.runtime import CatalogItem
from atcpip.terms import terms_hash
from atcpip.trust import replay_records
from conftest import make_terms, make_world, pump, transaction_records

IP_TERMS = make_terms(
    name="dataset license",
    scope=("personal",),
    duration="2030-01-01",
    upfront_fee=10_000_000,
    royalty_rate="0.0500",
)

DATASET = CatalogItem("weather-data-2023", "temp,rain\n12,0.3", tags=("dataset",), terms=IP_TERMS)


def run_simple_deal(fee=10_000_000, balance=50_000_000, **world_kwargs):
    terms = IP_TERMS.replace(upfront_fee=fee)
    item = CatalogItem("weather-data-2023", DATASET.content, tags=("dataset",), terms=terms)
    ledger, wallets, board, runtimes = make_world(
        {"prov": {"items": (item,)}, "req": {"balance": balance}}, **world_kwargs
    )
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "weather-data-2023"))
    return ledger, wallets, board, runtimes


def test_full_deal_completes_with_token_payment_and_reputation():
    ledger, wallets, _, runtimes = run_simple_deal()
    prov = runtimes["prov"].session("s1")
    req = runtimes["req"].session("s1")
    assert prov.state is ProviderState.COMPLETED
    assert req.state is RequesterState.COMPLETED
    token = runtimes["req"].tokens["weather-data-2023"]
    assert ledger.verify_token(token, token.terms)
    assert token.metadata.issuer_id == "prov"
    assert token.metadata.holder_id == "req"
    assert wallets.balance("prov") == 10_000_000
    assert wallets.balance("req") == 40_000_000
    records = replay_records(ledger.entries())
    assert records["prov"].successful_deals == 1
    assert records["req"].successful_deals == 1
    assert f"License issued: {token.license_id}" in runtimes["prov"].memory_texts()
    assert f"License token accepted: {token.license_id}" in runtimes["req"].memory_texts()
    assert ledger.session_agreement("s1") is token
    assert req.content == DATASET.content


def test_both_sides_keep_matching_transaction_records():
    _, _, _, runtimes = run_simple_deal()
    prov_records = transaction_records(runtimes["prov"])
    req_records = transaction_records(runtimes["req"])
    assert len(prov_records) == 1 and len(req_records) == 1
    mine, theirs = prov_records[0], req_records[0]
    assert mine.terms_hash == theirs.terms_hash == terms_hash(IP_TERMS)
    assert mine.license_id == theirs.license_id
    assert mine.requester_id == theirs.requester_id == "req"
    assert mine.content_id == theirs.content_id == "weather-data-2023"
    assert mine.acknowledged is False and theirs.acknowledged is False
    assert mine.to_value()["kind"] == "transaction"


def test_acknowledged_flag_follows_the_ack_exchange():
    _, _, _, runtimes = run_simple_deal(config=SessionConfig(ack_required=True))
    assert runtimes["prov"].session("s1").state is ProviderState.COMPLETED
    assert runtimes["req"].session("s1").state is RequesterState.COMPLETED
    assert transaction_records(runtimes["prov"])[0].acknowledged is True
    assert transaction_records(runtimes["req"])[0].acknowledged is True


def test_fine_tuning_purpose_logs_the_upgrade_event():
    item = CatalogItem("weather-data-2023", DATASET.content, tags=("dataset",), terms=IP_TERMS)
    _, _, _, runtimes = make_world(
        {"prov": {"items": (item,)}, "req": {"balance": 50_000_000}}
    )
    pump(runtimes, runtimes["req"].start_request(
        "s1", "prov", "weather-data-2023", purpose="fine_tuning"))
    assert "fine_tuned_on:weather-data-2023" in runtimes["req"].memory_texts()


def test_ip_significance_flag_overrides_tags():
    flagged = CatalogItem("memo", "text", tags=(), ip_significant=True,
                          terms=IP_TERMS.replace(upfront_fee=0))
    unflagged = CatalogItem("corpus", "rows", tags=("dataset",), ip_significant=False)
    ledger, _, _, runtimes = make_world({"prov": {"items": (flagged, unflagged)}, "req": {}})
    assert runtimes["prov"].is_ip_significant("memo") is True
    assert runtimes["prov"].is_ip_significant("corpus") is False
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "corpus"))
    assert runtimes["req"].session("s1").content == "rows"
    assert ledger.session_agreement("s1") is None
    pump(runtimes, runtimes["req"].start_request("s2", "prov", "memo"))
    assert runtimes["req"].tokens["memo"].license_id


def test_opening_offer_mints_a_draft_before_terms_go_out():
    ledger, _, _, _ = run_simple_deal()
    drafts = [entry for entry in ledger.entries() if entry.kind == "draft_token"]
    assert len(drafts) == 1
    assert drafts[0].payload["round"] == 1
    assert drafts[0].payload["proposer_id"] == "prov"
    assert drafts[0].payload["terms_hash"] == terms_hash(IP_TERMS)


def test_zero_fee_deal_skips_payment_entirely():
    ledger, wallets, _, runtimes = run_simple_deal(fee=0, balance=0)
    assert runtimes["req"].session("s1").state is RequesterState.COMPLETED
    assert wallets.balance("prov") == 0
    assert not [entry for entry in ledger.entries() if entry.kind == "payment"]


def test_non_ip_content_ships_without_contract():
    item = CatalogItem("forecast-today", "sunny, 21C", tags=("forecast",))
    ledger, wallets, _, runtimes = make_world(
        {"prov": {"items": (item,)}, "req": {}}
    )
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "forecast-today"))
    assert runtimes["prov"].session("s1").state is ProviderState.COMPLETED
    assert runtimes["req"].session("s1").state is RequesterState.COMPLETED
    assert runtimes["req"].session("s1").content == "sunny, 21C"
    assert "Received non-IP content: forecast-today" in runtimes["req"].memory_texts()
    assert NON_IP_MEMORY in runtimes["prov"].memory_texts()
    assert not [e for e in ledger.entries() if e.kind in ("agreement_token", "draft_token")]


def test_unknown_content_is_rejected():
    _, _, _, runtimes = make_world({"prov": {}, "req": {}})
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "nothing"))
    req = runtimes["req"].session("s1")
    assert req.state is RequesterState.REJECTED
    assert "no such content" in req.reject_reason


def test_blocked_jurisdiction_pair_is_rejected():
    _, _, _, runtimes = make_world(
        {"prov": {"items": (DATASET,), "jurisdiction": "EU"}, "req": {"jurisdiction": "US"}},
        blocked_pairs=frozenset({frozenset({"US", "EU"})}),
    )
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "weather-data-2023"))
    req = runtimes["req"].session("s1")
    assert req.state is RequesterState.REJECTED
    assert "blocked" in req.reject_reason


def personal_data_item(compliance):
    terms = IP_TERMS.replace(compliance_requirements=compliance, upfront_fee=0)
    return CatalogItem(
        "patients", "id,age\n1,44", tags=("dataset",), flags=("personal_data",), terms=terms
    )


def test_personal_data_needs_covered_compliance_requirements():
    # EU provider, US requester, no adequacy: only a ccpa commitment passes.
    _, _, _, runtimes = make_world(
        {
            "prov": {"items": (personal_data_item(("ccpa",)),), "jurisdiction": "EU"},
            "req": {"jurisdiction": "US"},
        }
    )
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "patients"))
    assert runtimes["req"].session("s1").state is RequesterState.COMPLETED


def test_personal_data_without_compliance_terms_is_refused():
    _, _, _, runtimes = make_world(
        {
            "prov": {"items": (personal_data_item(()),), "jurisdiction": "EU"},
            "req": {"jurisdiction": "US"},
        }
    )
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "patients"))
    req = runtimes["req"].session("s1")
    assert req.state is RequesterState.REJECTED


def test_counter_inside_provider_bounds_is_taken_verbatim():
    terms = IP_TERMS.replace(royalty_rate=Decimal("0.2000"))
    item = CatalogItem("weather-data-2023", DATASET.content, tags=("dataset",), terms=terms)
    provider_policy = NegotiationPolicy(
        bounds={"royalty_rate": NumericBound(Decimal("0.0500"), Decimal("0.2000"))},
    )
    requester_policy = NegotiationPolicy(
        bounds={"royalty_rate": NumericBound(Decimal("0.0000"), Decimal("0.1000"))},
    )
    ledger, _, _, runtimes = make_world(
        {
            "prov": {"items": (item,), "policy": provider_policy,
                     "tier": RISK_TIERS["conservative"]},
            "req": {"balance": 50_000_000, "policy": requester_policy},
        }
    )
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "weather-data-2023"))
    req = runtimes["req"].session("s1")
    assert req.state is RequesterState.COMPLETED
    assert req.terms.royalty_rate == Decimal("0.1000")
    token = runtimes["req"].tokens["weather-data-2023"]
    assert token.terms.royalty_rate == Decimal("0.1000")
    rounds = [e.payload["round"] for e in ledger.entries() if e.kind == "draft_token"]
    # opening draft, counter draft; the verbatim accept re-mints nothing
    assert rounds == [1, 2]


def test_arbiter_auto_accepts_small_fee_movement():
    terms = IP_TERMS.replace(upfront_fee=10_000_000)
    item = CatalogItem("weather-data-2023", DATASET.content, tags=("dataset",), terms=terms)
    requester_policy = NegotiationPolicy(
        bounds={"upfront_fee": NumericBound(0, 9_800_000)},
    )
    _, wallets, _, runtimes = make_world(
        {
            "prov": {"items": (item,), "tier": RISK_TIERS["standard"]},
            "req": {"balance": 50_000_000, "policy": requester_policy},
        }
    )
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "weather-data-2023"))
    req = runtimes["req"].session("s1")
    # 2% under asking sits inside the standard tier's 5% band.
    assert req.state is RequesterState.COMPLETED
    assert req.terms.upfront_fee == 9_800_000
    assert wallets.balance("prov") == 9_800_000


def test_non_negotiable_offer_is_rejected_outright():
    terms = IP_TERMS.replace(scope=("commercial",), upfront_fee=0)
    item = CatalogItem("weather-data-2023", DATASET.content, tags=("dataset",), terms=terms)
    requester_policy = NegotiationPolicy(
        bounds={"scope": SetBound({"personal"})},
        non_negotiable={"scope"},
    )
    _, _, _, runtimes = make_world(
        {"prov": {"items": (item,)}, "req": {"policy": requester_policy}}
    )
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "weather-data-2023"))
    assert runtimes["req"].session("s1").state is RequesterState.REJECTED
    prov = runtimes["prov"].session("s1")
    assert prov.state is ProviderState.REJECTED
    assert "not negotiable" in prov.reject_reason


def test_stalled_negotiation_times_out_into_unconfirmed_then_fails():
    terms = IP_TERMS.replace(royalty_rate=Decimal("0.3000"))
    item = CatalogItem("weather-data-2023", DATASET.content, tags=("dataset",), terms=terms)
    provider_policy = NegotiationPolicy(non_negotiable={"royalty_rate"})
    requester_policy = NegotiationPolicy(
        bounds={"royalty_rate": NumericBound(Decimal("0.0000"), Decimal("0.0100"))},
        max_rounds=1,
    )
    ledger, _, _, runtimes = make_world(
        {
            "prov": {"items": (item,), "policy": provider_policy,
                     "tier": RISK_TIERS["conservative"]},
            "req": {"balance": 50_000_000, "policy": requester_policy},
        }
    )
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "weather-data-2023"))
    # The provider holds its royalty, and the requester, its one counter
    # spent, refuses the standing offer instead of leaving it unanswered.
    prov, req = runtimes["prov"].session("s1"), runtimes["req"].session("s1")
    assert req.state is RequesterState.REJECTED
    assert prov.state is ProviderState.REJECTED
    assert prov.reject_reason == "negotiation budget exhausted"
    assert runtimes["req"].wallets.balance("req") == 50_000_000
    assert runtimes["prov"].wallets.balance("prov") == 0
    assert ledger.session_agreement("s1") is None


def test_insufficient_funds_fail_the_requester_side():
    _, wallets, _, runtimes = run_simple_deal(balance=5_000_000)
    req = runtimes["req"].session("s1")
    assert req.state is RequesterState.FAILED
    assert "holds 5000000" in req.failure_reason
    assert wallets.balance("req") == 5_000_000
    assert wallets.balance("prov") == 0
    prov = runtimes["prov"].session("s1")
    assert prov.state is ProviderState.AWAITING_PAYMENT
    pump(runtimes, runtimes["prov"].expire_timer("s1"))
    assert prov.failure_reason == NO_PAYMENT_FAILURE


def test_renewal_extends_the_lineage():
    ledger, _, _, runtimes = run_simple_deal(balance=50_000_000)
    first = runtimes["req"].tokens["weather-data-2023"]
    pump(runtimes, runtimes["req"].start_request("s2", "prov", "weather-data-2023"))
    second = runtimes["req"].tokens["weather-data-2023"]
    assert second.metadata.version == 2
    assert second.metadata.previous_license_id == first.license_id
    chain = ledger.chain_of_ownership(second.license_id)
    assert [token.license_id for token in chain] == [first.license_id, second.license_id]


def test_renewal_negotiated_through_final_terms_extends_the_lineage():
    item = CatalogItem(
        "weather-data-2023", DATASET.content, tags=("dataset",),
        terms=IP_TERMS.replace(royalty_rate=Decimal("0.2000")),
    )
    provider_policy = NegotiationPolicy(
        bounds={"royalty_rate": NumericBound(Decimal("0.0500"), Decimal("0.2000"))},
    )
    requester_policy = NegotiationPolicy(
        bounds={"royalty_rate": NumericBound(Decimal("0.0000"), Decimal("0.1000"))},
    )
    ledger, _, _, runtimes = make_world(
        {
            "prov": {"items": (item,), "policy": provider_policy},
            "req": {"balance": 50_000_000, "policy": requester_policy},
        }
    )
    for session_id in ("s1", "s2"):
        pump(runtimes, runtimes["req"].start_request(session_id, "prov", "weather-data-2023"))
        assert runtimes["req"].session(session_id).state is RequesterState.COMPLETED
    # Proposal, counter, final terms. The final terms carry no
    # previous_license_id; the requester keeps the one the proposal named.
    assert runtimes["req"].session("s2").round == 3
    first, second = ledger.session_agreement("s1"), ledger.session_agreement("s2")
    assert second.metadata.previous_license_id == first.license_id


def test_derived_work_routes_royalties_upstream():
    stats_terms = make_terms(
        name="stats license", duration="2030-01-01",
        royalty_rate="0.0500", upfront_fee=0, scope=("personal", "sublicensable"),
    )
    stats = CatalogItem("stats-fn", "def sharpe(): ...", tags=("algorithm",), terms=stats_terms)
    algo_terms = make_terms(
        name="algo license", duration="2030-01-01",
        royalty_rate="0.0000", upfront_fee=100_000_000,
    )
    ledger, wallets, _, runtimes = make_world(
        {
            "g": {"items": (stats,)},
            "f": {"balance": 0},
            "e": {"balance": 120_000_000},
        }
    )
    pump(runtimes, runtimes["f"].start_request("s1", "g", "stats-fn"))
    assert runtimes["f"].tokens["stats-fn"].metadata.issuer_id == "g"
    algo = CatalogItem(
        "trading-algo", "if sharpe() > 2: buy()", tags=("algorithm",),
        terms=algo_terms, derived_from="stats-fn", extra_royalties=(("g", "0.1000"),),
    )
    runtimes["f"].add_item(algo)
    pump(runtimes, runtimes["e"].start_request("s2", "f", "trading-algo"))
    assert runtimes["e"].session("s2").state is RequesterState.COMPLETED
    assert wallets.balance("g") == 15_000_000
    assert wallets.balance("f") == 85_000_000
    assert wallets.balance("e") == 20_000_000
    lines = [
        (entry.payload["to"], entry.payload["amount"])
        for entry in ledger.entries()
        if entry.kind == "payment" and entry.payload.get("session_id") == "s2"
    ]
    assert lines == [("g", 15_000_000), ("f", 85_000_000)]
    # the sold license chains onto the upstream one
    token = runtimes["e"].tokens["trading-algo"]
    chain = ledger.chain_of_ownership(token.license_id)
    assert [t.metadata.issuer_id for t in chain] == ["g", "f"]


def test_downstream_sale_pays_rev_share_through_the_chain():
    guide_terms = make_terms(
        name="style guide", duration="2030-01-01",
        upfront_fee=0, royalty_rate="0.0000", rev_share="0.1000",
    )
    guide = CatalogItem("house-style", "always earnest", tags=("style_guide",), terms=guide_terms)
    ledger, wallets, _, runtimes = make_world(
        {"d": {"items": (guide,)}, "c": {}, "gallery": {"balance": 50_000_000}}
    )
    pump(runtimes, runtimes["c"].start_request("s1", "d", "house-style"))
    runtimes["c"].add_item(
        CatalogItem("painting-1", "<canvas>", tags=("artwork",), derived_from="house-style")
    )
    plan = runtimes["c"].sell("painting-1", "gallery", 50_000_000, session_id="sale-1")
    assert plan.lines == (("d", 5_000_000), ("c", 45_000_000))
    assert wallets.balance("d") == 5_000_000
    assert wallets.balance("c") == 45_000_000
    assert wallets.balance("gallery") == 0
    sale_entries = [
        entry for entry in ledger.entries()
        if entry.kind == "payment" and entry.payload.get("session_id") == "sale-1"
    ]
    assert [entry.payload["purpose"] for entry in sale_entries] == ["downstream_sale"] * 2


def test_style_guide_items_default_to_rev_share_terms():
    guide = CatalogItem("house-style", "always earnest", tags=("style_guide",))
    _, _, _, runtimes = make_world({"d": {"items": (guide,)}})
    opening = runtimes["d"]._opening_terms(guide, {})
    assert opening.upfront_fee == 0
    assert opening.rev_share == Decimal("0.1000")


def courtship_world():
    item = CatalogItem(
        "model-weights", "0xdeadbeef", tags=("personality",),
        terms=IP_TERMS.replace(upfront_fee=0), courtship=True,
    )
    return make_world(
        {
            "prov": {"items": (item,)},
            "r1": {"balance": 50_000_000},
            "r2": {"balance": 50_000_000},
            "r3": {"balance": 50_000_000},
        }
    )


def test_courtship_picks_the_highest_weighted_offer():
    _, wallets, _, runtimes = courtship_world()
    pump(runtimes, runtimes["r1"].start_request(
        "c1", "prov", "model-weights", offer={"upfront_fee": 12_000_000}))
    pump(runtimes, runtimes["r2"].start_request(
        "c2", "prov", "model-weights",
        offer={"upfront_fee": 10_000_000, "royalty_rate": Decimal("0.0300")}))
    pump(runtimes, runtimes["r3"].start_request(
        "c3", "prov", "model-weights",
        offer={"upfront_fee": 11_000_000, "royalty_rate": Decimal("0.0100")}))
    for session_id in ("c1", "c2", "c3"):
        assert runtimes["prov"].session(session_id).state is ProviderState.EVALUATING
    pump(runtimes, runtimes["prov"].decide_courtship("model-weights"))
    # 10M + 0.03 * 100M = 13M beats 12M flat and 11M + 1M
    assert runtimes["r2"].session("c2").state is RequesterState.COMPLETED
    token = runtimes["r2"].tokens["model-weights"]
    assert token.terms.upfront_fee == 10_000_000
    assert token.terms.royalty_rate == Decimal("0.0300")
    assert wallets.balance("prov") == 10_000_000
    for loser in ("r1", "r3"):
        session = runtimes[loser].sessions()[f"c{loser[-1]}"]
        assert session.state is RequesterState.REJECTED
        assert session.reject_reason == "another offer was selected"


def test_a_courtship_decision_that_raised_is_finished_by_the_next_one(monkeypatch):
    _, _, _, runtimes = courtship_world()
    provider = runtimes["prov"]
    for requester_id, fee in (("r1", 13_000_000), ("r2", 12_000_000), ("r3", 11_000_000)):
        pump(runtimes, runtimes[requester_id].start_request(
            f"c{requester_id[-1]}", "prov", "model-weights", offer={"upfront_fee": fee}))
    refuse = runtime_module.refuse

    def refuse_raising_once(session, reason):
        monkeypatch.setattr(runtime_module, "refuse", refuse)
        raise UnknownContent("courtship interrupted")

    monkeypatch.setattr(runtime_module, "refuse", refuse_raising_once)
    # The error fails only the session it was raised for; the decision
    # goes on, so the next one finds nothing left to decide.
    pump(runtimes, provider.decide_courtship("model-weights"))
    assert provider.decide_courtship("model-weights") == []
    assert ProviderState.EVALUATING not in [s.state for s in provider.sessions().values()]
    assert runtimes["r1"].session("c1").state is RequesterState.COMPLETED
    assert provider.session("c2").state is ProviderState.FAILED
    assert provider.session("c2").failure_reason == "courtship interrupted"
    loser = runtimes["r3"].session("c3")
    assert loser.state is RequesterState.REJECTED
    assert loser.reject_reason == "another offer was selected"


def test_courtship_tie_goes_to_the_smaller_agent_id():
    _, _, _, runtimes = courtship_world()
    pump(runtimes, runtimes["r3"].start_request(
        "c3", "prov", "model-weights", offer={"upfront_fee": 12_000_000}))
    pump(runtimes, runtimes["r1"].start_request(
        "c1", "prov", "model-weights", offer={"upfront_fee": 12_000_000}))
    pump(runtimes, runtimes["prov"].decide_courtship("model-weights"))
    assert runtimes["r1"].session("c1").state is RequesterState.COMPLETED
    assert runtimes["r3"].session("c3").state is RequesterState.REJECTED


def test_an_offer_rate_past_four_digits_is_dropped_and_courtship_decides_the_rest():
    _, _, _, runtimes = courtship_world()
    pump(runtimes, runtimes["r1"].start_request(
        "c1", "prov", "model-weights", offer={"upfront_fee": 12_000_000}))
    pump(runtimes, runtimes["r2"].start_request(
        "c2", "prov", "model-weights", offer={"royalty_rate": Decimal("0.00001")}))
    provider = runtimes["prov"]
    assert not provider.has_session("c2")
    assert provider.memory_texts()[-1].startswith(
        "Dropped malformed message in session c2: request_info offer "
    )
    pump(runtimes, provider.decide_courtship("model-weights"))
    assert runtimes["r1"].session("c1").state is RequesterState.COMPLETED

def test_replayed_messages_are_dropped():
    item = CatalogItem("forecast-today", "sunny", tags=("forecast",))
    _, _, _, runtimes = make_world({"prov": {"items": (item,)}, "req": {}})
    opening = runtimes["req"].start_request("s1", "prov", "forecast-today")
    first = runtimes["prov"].receive_message(opening[0])
    assert runtimes["prov"].receive_message(opening[0]) == []
    assert any("Dropped replayed" in note for note in runtimes["prov"].memory_texts())
    pump(runtimes, first)


def test_messages_for_unknown_sessions_are_dropped():
    _, _, _, runtimes = make_world({"prov": {"items": (DATASET,)}, "req": {}})
    opening = runtimes["req"].start_request("s1", "prov", "weather-data-2023")
    stray = opening[0]
    ghost = stray.to_value() | {"session_id": "ghost", "action": "accept_terms",
                                "body": {"terms_hash": "0" * 64}}
    assert runtimes["prov"].receive_message(message_from_value(ghost)) == []
    assert any("unknown session" in note for note in runtimes["prov"].memory_texts())


def test_request_without_content_id_is_dropped_before_a_session_opens():
    _, _, _, runtimes = make_world({"prov": {"items": (DATASET,)}, "req": {}})
    provider = runtimes["prov"]
    request = ProtocolMessage("s1", 0, "req", "prov", "request_info", {})
    assert provider.receive_message(request) == []
    assert not provider.has_session("s1") and provider.sessions(acted=True) == {}
    assert provider.memory_texts() == [
        "Dropped malformed message in session s1: request_info body missing 'content_id'"
    ]


@pytest.mark.parametrize(
    "body,problem",
    [
        ({"content_id": "item", "offer": "upfront_fee"}, "offer must be a map of"),
        ({"content_id": ["x"]}, "content_id must be a non-empty string"),
        ({"offer": {"royalty_rate": 0.5}}, "offer royalty_rate must be an integer or a decimal"),
        ({"jurisdiction": 5}, "jurisdiction must be a string"),
    ],
)
def test_mistyped_request_is_dropped_before_a_session_opens(body, problem):
    _, _, _, runtimes = make_world({"prov": {"items": (DATASET,)}, "req": {}})
    provider = runtimes["prov"]
    request = ProtocolMessage(
        "s1", 0, "req", "prov", "request_info", {"content_id": "weather-data-2023", **body}
    )
    assert provider.receive_message(request) == []
    assert not provider.has_session("s1") and provider.sessions(acted=True) == {}
    [note] = provider.memory_texts()
    assert note.startswith(f"Dropped malformed message in session s1: request_info {problem}")
    with pytest.raises(ParseError, match=problem):
        message_from_value(request.to_value())


def test_request_from_a_jurisdiction_with_no_profile_is_refused():
    _, _, _, runtimes = make_world({"prov": {"items": (DATASET,)}, "req": {}})
    provider = runtimes["prov"]
    request = ProtocolMessage(
        "s1", 0, "req", "prov", "request_info",
        {"content_id": "weather-data-2023", "jurisdiction": "ZZ"},
    )
    [reject] = provider.receive_message(request)
    assert reject.action == "reject"
    assert reject.body == {"reason": "no profile for jurisdiction 'ZZ'"}
    assert provider.session("s1").state is ProviderState.REJECTED


def test_proposal_without_terms_is_dropped_before_the_session_is_touched():
    _, _, _, runtimes = make_world({"prov": {"items": (DATASET,)}, "req": {}})
    requester = runtimes["req"]
    requester.start_request("s1", "prov", "weather-data-2023")
    requester.sessions(acted=True)
    proposal = ProtocolMessage("s1", 0, "prov", "req", "propose_terms", {"round": 1})
    assert requester.receive_message(proposal) == []
    session = requester.session("s1")
    assert session.state is RequesterState.AWAITING_TERMS and session.last_seq_seen == -1
    assert requester.sessions(acted=True) == {}
    assert requester.memory_texts() == [
        "Dropped malformed message in session s1: propose_terms body missing 'terms'"
    ]


def countering_requester():
    """A requester whose royalty ceiling sits below DATASET's rate, so it
    answers DATASET's terms with a counter, and its session awaiting terms."""
    policy = NegotiationPolicy(
        bounds={"royalty_rate": NumericBound(Decimal("0.0000"), Decimal("0.0100"))},
    )
    _, _, _, runtimes = make_world(
        {"prov": {"items": (DATASET,)}, "req": {"balance": 50_000_000, "policy": policy}}
    )
    requester = runtimes["req"]
    requester.start_request("s1", "prov", DATASET.content_id)
    return requester


@pytest.mark.parametrize("round_", [canon.INT_MAX, -1], ids=["at_the_bound", "negative"])
def test_a_proposal_round_outside_the_bound_is_dropped_and_nothing_is_sent(round_):
    requester = countering_requester()
    body = {"terms": IP_TERMS.canonical, "round": round_}
    proposal = ProtocolMessage("s1", 0, "prov", "req", "propose_terms", body)
    assert requester.receive_message(proposal) == []
    session = requester.session("s1")
    assert session.state is RequesterState.AWAITING_TERMS and session.round == 0
    [note] = requester.memory_texts()
    assert note.startswith("Dropped malformed message in session s1: propose_terms round ")


def test_a_proposal_one_round_below_the_bound_yields_a_counter_that_encodes():
    requester = countering_requester()
    body = {"terms": IP_TERMS.canonical, "round": canon.INT_MAX - 1}
    proposal = ProtocolMessage("s1", 0, "prov", "req", "propose_terms", body)
    [counter] = requester.receive_message(proposal)
    assert counter.action == "counter_terms" and counter.body["round"] == canon.INT_MAX
    frame = encode_message(counter)
    assert canon.loads(frame[FRAME_HEADER:]) == counter.to_value()


def free_deal_whose_record_issue_raises(monkeypatch):
    """A free deal whose provider raises from ``record_issue``, after
    ``deliver_ip`` is numbered and the session completed."""
    item = CatalogItem("weather-data-2023", DATASET.content, tags=("dataset",),
                       terms=IP_TERMS.replace(upfront_fee=0))
    ledger, _, _, runtimes = make_world({"prov": {"items": (item,)}, "req": {}})

    def record_issue(session):
        raise UnknownContent("catalog changed")

    monkeypatch.setattr(runtimes["prov"], "record_issue", record_issue)
    pump(runtimes, runtimes["req"].start_request("s1", "prov", "weather-data-2023"))
    return ledger, runtimes


def test_an_error_after_a_decision_closed_the_session_is_only_noted(monkeypatch):
    _, runtimes = free_deal_whose_record_issue_raises(monkeypatch)
    provider = runtimes["prov"]
    session = provider.session("s1")
    assert session.state is ProviderState.COMPLETED and session.failure_reason == ""
    assert provider.memory_texts()[-1] == "Error after session s1 closed: catalog changed"


def test_a_delivery_numbered_before_an_error_still_reaches_the_requester(monkeypatch):
    ledger, runtimes = free_deal_whose_record_issue_raises(monkeypatch)
    requester = runtimes["req"]
    session = requester.session("s1")
    assert session.state is RequesterState.COMPLETED
    assert session.content == DATASET.content
    assert requester.tokens["weather-data-2023"] is ledger.session_agreement("s1")


@pytest.mark.parametrize("fee,last_sent", [(0, "accept_terms"), (10_000_000, "payment_confirmed")])
def test_a_ledger_error_preparing_the_token_still_sends_what_came_before(fee, last_sent):
    terms = IP_TERMS.replace(upfront_fee=fee, duration="2025-01-01")
    item = CatalogItem("weather-data-2023", DATASET.content, tags=("dataset",), terms=terms)
    ledger, _, _, runtimes = make_world(
        {"prov": {"items": (item,)}, "req": {"balance": 50_000_000}}
    )
    ledger.current_date = "2026-01-01"  # the terms expire before the token is prepared
    sent = []
    queue = runtimes["req"].start_request("s1", "prov", "weather-data-2023")
    while queue:
        message = queue.pop(0)
        sent.append((message.sender, message.action))
        queue += runtimes[message.recipient].receive_message(message)
    assert sent[-1] == ("req", last_sent)
    assert runtimes["prov"].session("s1").state is ProviderState.AWAITING_TOKEN
    session = runtimes["req"].session("s1")
    assert session.state is RequesterState.FAILED
    assert session.failure_reason == "expiry 2025-01-01 predates ledger date 2026-01-01"
    assert runtimes["req"].memory_texts()[-1] == f"Session failed: {session.failure_reason}"
    assert ledger.session_agreement("s1") is None


@pytest.mark.parametrize("reason", [5, ["x"], {"a": "b"}], ids=["integer", "list", "map"])
def test_reject_with_a_mistyped_reason_is_dropped(reason):
    _, _, _, runtimes = make_world({"prov": {"items": (DATASET,)}, "req": {}})
    requester = runtimes["req"]
    requester.start_request("s1", "prov", "weather-data-2023")
    reject = ProtocolMessage("s1", 0, "prov", "req", "reject", {"reason": reason})
    assert requester.receive_message(reject) == []
    session = requester.session("s1")
    assert session.state is RequesterState.AWAITING_TERMS and session.reject_reason == ""
    problem = "reject reason must be a string"
    assert requester.memory_texts() == [f"Dropped malformed message in session s1: {problem}"]
    with pytest.raises(ParseError, match=problem):
        message_from_value(reject.to_value())


@pytest.mark.parametrize(
    "previous", [["x"], {"a": "b"}, 5, ""], ids=["list", "map", "integer", "empty"]
)
def test_proposal_with_a_mistyped_previous_license_is_dropped(previous):
    _, _, _, runtimes = make_world({"prov": {"items": (DATASET,)}, "req": {}})
    requester = runtimes["req"]
    requester.start_request("s1", "prov", "weather-data-2023")
    body = {"terms": make_terms().to_value(), "round": 1, "previous_license_id": previous}
    proposal = ProtocolMessage("s1", 0, "prov", "req", "propose_terms", body)
    assert requester.receive_message(proposal) == []
    assert requester.session("s1").state is RequesterState.AWAITING_TERMS
    problem = "propose_terms previous_license_id must be a non-empty string"
    assert requester.memory_texts() == [f"Dropped malformed message in session s1: {problem}"]
    with pytest.raises(ParseError, match=problem):
        message_from_value(proposal.to_value())


# Bodies that do not parse, one or more per action that can arrive in a
# live session: (action, the key named in the drop note, body). A body
# is built from a token the requester could have prepared for the session.
def _zz_terms(token):
    return dict(canon.loads(token["terms"]), jurisdiction="ZZ")


def _without(token, name):
    return {key: value for key, value in token.items() if key != name}


TERMS_TEXT = IP_TERMS.canonical
SPLIT = [{"to": "prov", "amount": 10_000_000}]
DROPS = [
    ("non_ip_notice", "content", lambda token: {
        "content_id": DATASET.content_id, "content": 5, "note": NON_IP_NOTE}),
    ("propose_terms", "round", lambda token: {"terms": TERMS_TEXT, "round": "2"}),
    ("propose_terms", "round", lambda token: {"terms": TERMS_TEXT, "round": True}),
    ("final_terms", "round", lambda token: {"terms": TERMS_TEXT, "round": Decimal("2")}),
    ("propose_terms", "terms", lambda token: {"terms": _zz_terms(token), "round": 1}),
    ("counter_terms", "suggestions", lambda token: {"suggestions": "cheaper", "round": 2}),
    ("accept_terms", "terms_hash", lambda token: {"terms_hash": 5}),
    ("payment_required", "amount", lambda token: {"amount": True, "split": SPLIT}),
    ("payment_required", "split", lambda token: {"amount": 10_000_001, "split": SPLIT}),
    ("payment_confirmed", "amount", lambda token: {"amount": Decimal("10000000")}),
    ("license_token", "token", lambda token: {"token": _without(token, "session_id")}),
    ("license_token", "token", lambda token: {"token": dict(token, terms=_zz_terms(token))}),
    ("license_token", "token", lambda token: {
        "token": dict(token, metadata=dict(token["metadata"], link_to_terms=5))}),
    ("deliver_ip", "token", lambda token: {
        "content_id": DATASET.content_id, "content": DATASET.content, "token": "signed"}),
    ("acknowledge_receipt", "license_id", lambda token: {"license_id": 5}),
    ("reject", "reason", lambda token: {"reason": ["x"]}),
]
TO_PROVIDER = {"counter_terms", "accept_terms", "payment_confirmed", "license_token",
               "acknowledge_receipt"}


def fields_a_drop_keeps(session):
    return (session.state, session.round, session.terms, session.countered,
            session.last_seq_seen, list(session.outbox))


@pytest.mark.parametrize(
    "action,key,build",
    DROPS,
    ids=["content", "round_text", "round_bool", "round_decimal", "terms_zz", "suggestions",
         "terms_hash", "amount_bool", "split_sum", "amount_decimal", "token_missing_field",
         "token_terms_zz", "token_link_int", "delivered_token", "license_id", "reason"],
)
def test_a_body_that_does_not_parse_is_dropped_before_its_session_is_touched(action, key, build):
    ledger, _, _, runtimes = make_world(
        {"prov": {"items": (DATASET,)}, "req": {"balance": 50_000_000}}
    )
    [request] = runtimes["req"].start_request("s1", "prov", DATASET.content_id)
    runtimes["prov"].receive_message(request)  # the provider proposes
    token = token_to_value(
        ledger.prepare_agreement("req", "prov", IP_TERMS, IP_TERMS.duration, session_id="s1")
    )
    sender, recipient = ("req", "prov") if action in TO_PROVIDER else ("prov", "req")
    runtime = runtimes[recipient]
    session = runtime.session("s1")
    runtime.sessions(acted=True)
    kept, notes = fields_a_drop_keeps(session), len(runtime.memory_texts())
    message = ProtocolMessage("s1", 5, sender, recipient, action, build(token))

    assert runtime.receive_message(message) == []
    assert fields_a_drop_keeps(session) == kept
    assert runtime.sessions(acted=True) == {}
    [note] = runtime.memory_texts()[notes:]
    assert note.startswith(f"Dropped malformed message in session s1: {action} {key} ")
    with pytest.raises(ParseError, match=f"^{action} {key} "):
        message_from_value(message.to_value())


def free_deal_up_to_delivery(config=None):
    """A free deal run until the provider has sent ``deliver_ip``."""
    item = CatalogItem(DATASET.content_id, DATASET.content, tags=("dataset",),
                       terms=IP_TERMS.replace(upfront_fee=0))
    _, _, _, runtimes = make_world({"prov": {"items": (item,)}, "req": {}}, config=config)
    provider, requester = runtimes["prov"], runtimes["req"]
    [request] = requester.start_request("s1", "prov", item.content_id)
    [proposal] = provider.receive_message(request)
    acceptance, token_message = requester.receive_message(proposal)
    provider.receive_message(acceptance)
    [delivery] = provider.receive_message(token_message)
    return provider, requester, delivery


def forged(message, **body):
    return ProtocolMessage(message.session_id, message.seq, message.sender, message.recipient,
                           message.action, dict(message.body, **body))


def violation(role, state, action):
    return f"Protocol violation: {role} session 's1' in {state} cannot take event {action!r}"


def test_a_delivery_of_other_content_is_a_protocol_violation():
    _, requester, delivery = free_deal_up_to_delivery()
    session = requester.session("s1")
    seen = session.last_seq_seen
    assert requester.receive_message(forged(delivery, content_id="other-data")) == []
    assert requester.memory_texts()[-1] == violation("requester", "awaiting_delivery", "deliver_ip")
    assert session.state is RequesterState.AWAITING_DELIVERY and session.content is None
    assert session.last_seq_seen == seen
    assert requester.receive_message(delivery) == []
    assert session.state is RequesterState.COMPLETED


def test_a_notice_of_other_content_is_a_protocol_violation():
    item = CatalogItem("forecast-today", "sunny", tags=("forecast",))
    _, _, _, runtimes = make_world({"prov": {"items": (item,)}, "req": {}})
    [request] = runtimes["req"].start_request("s1", "prov", item.content_id)
    [notice] = runtimes["prov"].receive_message(request)
    requester = runtimes["req"]
    session = requester.session("s1")
    assert requester.receive_message(forged(notice, content_id="forecast-tomorrow")) == []
    assert requester.memory_texts()[-1] == violation("requester", "awaiting_terms", "non_ip_notice")
    assert session.state is RequesterState.AWAITING_TERMS and session.content is None
    assert session.last_seq_seen == -1
    assert requester.receive_message(notice) == []
    assert session.state is RequesterState.COMPLETED and session.content == "sunny"


def test_an_acknowledgement_of_another_license_is_a_protocol_violation():
    provider, requester, delivery = free_deal_up_to_delivery(SessionConfig(ack_required=True))
    [ack] = requester.receive_message(delivery)
    session = provider.session("s1")
    assert session.state is ProviderState.AWAITING_ACK
    assert provider.receive_message(forged(ack, license_id="0" * 32)) == []
    assert provider.memory_texts()[-1] == violation(
        "provider", "awaiting_ack", "acknowledge_receipt"
    )
    assert session.state is ProviderState.AWAITING_ACK and not session.acknowledged
    assert provider.receive_message(ack) == []
    assert session.state is ProviderState.COMPLETED and session.acknowledged


def test_timer_for_follows_session_state():
    config = SessionConfig(negotiation_timeout=7, settlement_timeout=19)
    _, _, _, runtimes = make_world(
        {"prov": {"items": (DATASET,)}, "req": {"balance": 50_000_000}}, config=config
    )
    outbound = runtimes["req"].start_request("s1", "prov", "weather-data-2023")
    assert runtimes["req"].timer_for("s1") == 7
    pump(runtimes, outbound)
    assert runtimes["req"].timer_for("s1") is None
    assert runtimes["prov"].timer_for("s1") is None


def step(runtimes, messages):
    """Deliver one hop and return whatever came back."""
    out = []
    for message in messages:
        out.extend(runtimes[message.recipient].receive_message(message))
    return out


def test_forged_token_aborts_the_exchange_without_commit():
    item = CatalogItem("weather-data-2023", DATASET.content, tags=("dataset",), terms=IP_TERMS)
    ledger, wallets, _, runtimes = make_world(
        {"prov": {"items": (item,)}, "req": {"balance": 50_000_000}}
    )
    msgs = runtimes["req"].start_request("s1", "prov", "weather-data-2023")
    msgs = step(runtimes, msgs)  # request_info -> propose_terms
    msgs = step(runtimes, msgs)  # propose_terms -> accept_terms
    msgs = step(runtimes, msgs)  # accept_terms -> payment_required
    msgs = step(runtimes, msgs)  # payment_required -> payment_confirmed + license_token
    assert sorted(message.action for message in msgs) == ["license_token", "payment_confirmed"]
    step(runtimes, [m for m in msgs if m.action == "payment_confirmed"])
    assert runtimes["prov"].session("s1").state is ProviderState.AWAITING_TOKEN
    # swallow the real token and forge one bound to different terms
    forged = ledger.prepare_agreement(
        "req", "prov", IP_TERMS.replace(upfront_fee=1), "2030-01-01", session_id="s1"
    )
    fake = ProtocolMessage(
        "s1", 3, "req", "prov", "license_token", {"token": token_to_value(forged)}
    )
    step(runtimes, [fake])
    prov = runtimes["prov"].session("s1")
    assert prov.state is ProviderState.FAILED
    assert prov.failure_reason == NO_TOKEN_FAILURE
    assert ledger.session_agreement("s1") is None
    assert not [e for e in ledger.entries() if e.kind == "agreement_token"]
    # payment went through before the abort; the token never landed
    assert wallets.balance("prov") == 10_000_000


def test_token_with_swapped_parties_is_refused():
    item = CatalogItem("weather-data-2023", DATASET.content, tags=("dataset",),
                       terms=IP_TERMS.replace(upfront_fee=0))
    ledger, _, _, runtimes = make_world({"prov": {"items": (item,)}, "req": {}})
    msgs = runtimes["req"].start_request("s1", "prov", "weather-data-2023")
    msgs = step(runtimes, msgs)  # request_info -> propose_terms
    msgs = step(runtimes, msgs)  # propose_terms -> accept_terms + license_token
    step(runtimes, [m for m in msgs if m.action == "accept_terms"])
    assert runtimes["prov"].session("s1").state is ProviderState.AWAITING_TOKEN
    swapped = ledger.prepare_agreement(
        "prov", "req", IP_TERMS.replace(upfront_fee=0), "2030-01-01", session_id="s1"
    )
    fake = ProtocolMessage(
        "s1", 2, "req", "prov", "license_token", {"token": token_to_value(swapped)}
    )
    step(runtimes, [fake])
    prov = runtimes["prov"].session("s1")
    assert prov.state is ProviderState.FAILED
    assert prov.failure_reason == NO_TOKEN_FAILURE
    assert ledger.session_agreement("s1") is None


@pytest.mark.parametrize("wire", [False, True], ids=["in_memory", "off_the_wire"])
def test_committed_token_holds_the_session_terms_when_its_text_is_theirs(wire):
    item = CatalogItem("weather-data-2023", DATASET.content, tags=("dataset",),
                       terms=IP_TERMS.replace(upfront_fee=0))
    ledger, _, _, runtimes = make_world({"prov": {"items": (item,)}, "req": {}})
    msgs = runtimes["req"].start_request("s1", "prov", "weather-data-2023")
    msgs = step(runtimes, msgs)  # request_info -> propose_terms
    msgs = step(runtimes, msgs)  # propose_terms -> accept_terms + license_token
    if wire:
        msgs = [decode_message(encode_message(message)) for message in msgs]
    step(runtimes, msgs)  # -> deliver_ip
    standing = runtimes["prov"].session("s1").terms
    committed = ledger.session_agreement("s1").terms
    # Text is taken as the session's own terms; a map is parsed anew.
    assert committed == standing
    assert (committed is standing) is not wire


RATE_EDIT = {"op": "set", "path": ["royalty_rate"], "value": Decimal("0.0400")}


@pytest.mark.parametrize(
    "suggestions",
    [
        [{"op": "set", "path": ["no_such_field"], "value": 1}],
        [{"op": "set", "path": ["scope", "commercial"], "value": True}],
        [{"op": "remove", "path": ["scope", "personal"]}],
        [dict(RATE_EDIT, value="0.0400")],
        [dict(RATE_EDIT, note="cheaper")],
        [{"op": "set", "path": ["royalty_rate"]}],
    ],
    ids=["unknown_field", "deep_path", "remove", "string_rate", "extra_key", "missing_value"],
)
def test_malformed_counter_is_a_protocol_violation_before_any_revision(suggestions):
    _, _, _, runtimes = make_world({"prov": {"items": (DATASET,)}, "req": {}})
    msgs = runtimes["req"].start_request("s1", "prov", "weather-data-2023")
    step(runtimes, msgs)  # request_info -> propose_terms
    counter = ProtocolMessage(
        "s1", 1, "req", "prov", "counter_terms", {"suggestions": suggestions, "round": 1}
    )
    assert runtimes["prov"].receive_message(counter) == []
    prov = runtimes["prov"].session("s1")
    assert runtimes["prov"].memory_texts()[-1].startswith(
        "Dropped malformed message in session s1: counter_terms suggestions "
    )
    assert prov.revisions_used == 0
    assert prov.state is ProviderState.TERMS_PROPOSED
    assert prov.terms == IP_TERMS


def test_expired_timer_on_terminal_session_is_ignored():
    _, _, _, runtimes = run_simple_deal()
    assert runtimes["prov"].expire_timer("s1") == []
