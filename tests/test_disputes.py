"""Disputes: filing, evidence gathering, deterministic verdicts, revocation."""

import random

import pytest

from atcpip import canon
from atcpip.cli import main
from atcpip.disputes import USAGE_EVENT, DisputeCourt, record_usage
from atcpip.errors import (
    InvalidParties,
    ParseError,
    TamperedLedger,
    UnknownDispute,
    UnknownLicense,
)
from atcpip.ledger import GENESIS_HASH, Ledger, chain_entry_hash
from atcpip.payments import SplitPlan, WalletSystem
from atcpip.scenario import scenario_from_bytes
from atcpip.sim import run_scenario
from atcpip.terms import terms_hash
from atcpip.trust import ReputationBoard
from conftest import make_terms, mint_agreement
from test_sim import GOLDEN_DIGESTS, golden_scenario, load_worlds


def pay_provider(wallets, payer_id, amount, session_id, purpose="settlement"):
    """One payment line from ``payer_id`` to "prov", recorded for the session."""
    wallets.settle(payer_id, SplitPlan(amount, (("prov", amount),)), purpose, session_id)


def build_session(
    terms=None,
    session_id="sess-1",
    pay=None,
    draft_terms=(),
):
    """Ledger with a committed agreement, optional drafts and payments."""
    book = Ledger(current_date="2024-01-01")
    for agent_id in ("prov", "req", "other"):
        book.register_agent(agent_id, agent_id.encode() + b"-key")
    agreed = terms or make_terms(upfront_fee=1_000)
    for round_number, draft in enumerate(draft_terms, start=1):
        book.mint_draft(session_id, round_number, "prov", draft)
    token = mint_agreement(book, "req", "prov", agreed, "2026-01-01", session_id=session_id)
    wallets = WalletSystem(book)
    wallets.open_account("req", 10_000_000)
    wallets.open_account("prov")
    if pay is not None:
        pay_provider(wallets, "req", pay, session_id, purpose="license_fee")
    court = DisputeCourt(book, ReputationBoard(book))
    return book, court, token


def test_filing_appends_dispute_entry_with_height_derived_id():
    book, court, _ = build_session()
    before = book.height
    claim = court.file_dispute("sess-1", "req", "prov", "misrepresentation",
                               asserted_terms_hash="0" * 64)
    assert claim.dispute_id == f"dispute-{before}"
    entry = book.entry(before)
    assert entry.kind == "dispute"
    assert entry.payload["dispute_id"] == claim.dispute_id
    assert entry.payload["claim"] == "misrepresentation"
    assert court.claim(claim.dispute_id) == claim


def test_filing_requires_agreement_and_exact_parties():
    book, court, _ = build_session()
    with pytest.raises(UnknownLicense):
        court.file_dispute("no-such-session", "req", "prov", "payment_default")
    with pytest.raises(InvalidParties):
        court.file_dispute("sess-1", "other", "prov", "payment_default")
    with pytest.raises(InvalidParties):
        court.file_dispute("sess-1", "prov", "prov", "payment_default")
    with pytest.raises(ParseError):
        court.file_dispute("sess-1", "req", "prov", "vibes")


def test_unknown_dispute_id_raises():
    _, court, _ = build_session()
    with pytest.raises(UnknownDispute):
        court.collect_evidence("dispute-99")
    with pytest.raises(UnknownDispute):
        court.arbitrate("dispute-99")


def test_misrepresentation_hash_mismatch_goes_to_claimant():
    _, court, token = build_session()
    claim = court.file_dispute("sess-1", "req", "prov", "misrepresentation",
                               asserted_terms_hash="f" * 64)
    verdict = court.arbitrate(claim.dispute_id)
    assert verdict.winner_id == "req"
    assert verdict.loser_id == "prov"
    assert verdict.rationale == "hash_mismatch_respondent"


def test_misrepresentation_matching_hash_goes_to_respondent():
    _, court, token = build_session()
    claim = court.file_dispute("sess-1", "req", "prov", "misrepresentation",
                               asserted_terms_hash=token.terms_hash)
    verdict = court.arbitrate(claim.dispute_id)
    assert verdict.winner_id == "prov"
    assert verdict.rationale == "record_matches_assertion"


def test_clause_present_in_final_defeats_the_claim():
    _, court, _ = build_session(terms=make_terms(scope=("personal", "commercial")))
    claim = court.file_dispute("sess-1", "req", "prov", "misrepresentation",
                               asserted_clause=("scope", "commercial"))
    verdict = court.arbitrate(claim.dispute_id)
    assert verdict.winner_id == "prov"
    assert verdict.rationale == "clause_present_in_final"


def test_clause_dropped_between_draft_and_final_wins_for_claimant():
    draft = make_terms(scope=("personal", "commercial"), upfront_fee=1_000)
    final = make_terms(upfront_fee=1_000)
    _, court, _ = build_session(terms=final, draft_terms=(draft,))
    claim = court.file_dispute("sess-1", "req", "prov", "misrepresentation",
                               asserted_clause=("scope", "commercial"))
    verdict = court.arbitrate(claim.dispute_id)
    assert verdict.winner_id == "req"
    assert verdict.rationale == "clause_dropped_from_drafts"


def test_clause_never_on_record_loses_for_claimant():
    _, court, _ = build_session()
    claim = court.file_dispute("sess-1", "req", "prov", "misrepresentation",
                               asserted_clause=("scope", "commercial"))
    verdict = court.arbitrate(claim.dispute_id)
    assert verdict.winner_id == "prov"
    assert verdict.rationale == "clause_absent_from_record"


def test_scalar_clause_uses_string_equality():
    _, court, _ = build_session(terms=make_terms(transferability="transferable"))
    claim = court.file_dispute("sess-1", "req", "prov", "misrepresentation",
                               asserted_clause=("transferability", "transferable"))
    assert court.arbitrate(claim.dispute_id).rationale == "clause_present_in_final"


def test_payment_default_compares_session_payments_to_fee():
    _, court, _ = build_session(terms=make_terms(upfront_fee=1_000), pay=400)
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    verdict = court.arbitrate(claim.dispute_id)
    assert verdict.winner_id == "prov"
    assert verdict.rationale == "payments_deficient"


def test_payment_in_full_defeats_default_claim():
    _, court, _ = build_session(terms=make_terms(upfront_fee=1_000), pay=1_000)
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    verdict = court.arbitrate(claim.dispute_id)
    assert verdict.winner_id == "req"
    assert verdict.rationale == "payments_satisfied"


def test_payments_outside_the_session_do_not_count():
    book, court, _ = build_session(terms=make_terms(upfront_fee=1_000))
    wallets = WalletSystem(book)
    wallets.open_account("stranger", 5_000)
    wallets.open_account("prov")
    pay_provider(wallets, "stranger", 5_000, "some-other-session")
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    assert court.arbitrate(claim.dispute_id).rationale == "payments_deficient"


@pytest.mark.parametrize(
    "tags,expected",
    [
        (["train"], "usage_outside_restrictions"),
        (["fine_tune", "summarize"], "usage_outside_restrictions"),
        (["summarize"], "usage_within_restrictions"),
        ([], "usage_within_restrictions"),
    ],
)
def test_usage_violation_checks_read_only_conflicts(tags, expected):
    book, court, token = build_session(terms=make_terms(upfront_fee=0))
    if tags:
        record_usage(book, "req", token.license_id, tags)
    claim = court.file_dispute("sess-1", "prov", "req", "usage_violation")
    assert court.arbitrate(claim.dispute_id).rationale == expected


def test_usage_by_third_parties_is_not_attributed_to_respondent():
    book, court, token = build_session(terms=make_terms(upfront_fee=0))
    record_usage(book, "other", token.license_id, ["train"])
    claim = court.file_dispute("sess-1", "prov", "req", "usage_violation")
    assert court.arbitrate(claim.dispute_id).rationale == "usage_within_restrictions"


def test_losing_holder_with_dispute_loss_condition_gets_revoked():
    book, court, token = build_session(
        terms=make_terms(upfront_fee=1_000, revocation_conditions=("dispute_loss",)),
        pay=100,
    )
    assert book.verify_token(token, token.terms)
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    verdict = court.resolve(claim.dispute_id)
    assert verdict.revokes_license_id == token.license_id
    assert not book.verify_token(token, token.terms)


def test_no_revocation_without_dispute_loss_condition():
    book, court, token = build_session(terms=make_terms(upfront_fee=1_000), pay=0)
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    verdict = court.resolve(claim.dispute_id)
    assert verdict.loser_id == "req"
    assert verdict.revokes_license_id == ""
    assert book.verify_token(token, token.terms)


def test_losing_issuer_never_triggers_revocation():
    book, court, token = build_session(
        terms=make_terms(revocation_conditions=("dispute_loss",), upfront_fee=0),
    )
    claim = court.file_dispute("sess-1", "req", "prov", "misrepresentation",
                               asserted_terms_hash="f" * 64)
    verdict = court.resolve(claim.dispute_id)
    assert verdict.loser_id == "prov"
    assert verdict.revokes_license_id == ""
    assert book.verify_token(token, token.terms)


def test_apply_verdict_records_reputation_and_verdict_entry():
    book, court, _ = build_session(terms=make_terms(upfront_fee=1_000), pay=0)
    board = court._board
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    before = book.height
    verdict = court.resolve(claim.dispute_id)
    entry = book.entry(before)
    assert entry.kind == "verdict"
    assert entry.payload["winner_id"] == "prov"
    assert entry.payload["rationale"] == "payments_deficient"
    assert board.record("prov").disputes_won == 1
    assert board.record("req").disputes_lost == 1
    # resolving again must not duplicate anything
    assert court.resolve(claim.dispute_id) == verdict
    assert board.record("prov").disputes_won == 1
    assert book.height == before + 3  # verdict + two reputation events


def test_evidence_bundle_collects_session_and_usage_entries():
    draft = make_terms(upfront_fee=2_000)
    book, court, token = build_session(
        terms=make_terms(upfront_fee=1_000), pay=1_000, draft_terms=(draft,)
    )
    record_usage(book, "req", token.license_id, ["summarize"])
    mint_agreement(book, "other", "prov", make_terms(), "2026-01-01",
                   session_id="unrelated")
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    bundle = court.collect_evidence(claim.dispute_id)
    kinds = sorted(entry.kind for entry in bundle.entries)
    assert kinds == ["agreement_token", "dispute", "draft_token", "payment",
                     "reputation_event"]
    assert bundle.license_id == token.license_id
    assert all(
        entry.payload.get("session_id", "sess-1") == "sess-1"
        or entry.payload.get("license_id") == token.license_id
        for entry in bundle.entries
    )
    value = bundle.to_value()
    assert value["dispute"]["dispute_id"] == claim.dispute_id
    assert len(value["entries"]) == len(bundle.entries)


def test_evidence_refuses_a_tampered_chain():
    book, court, _ = build_session(pay=1_000)
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    victim = book.entry(2)
    object.__setattr__(victim, "payload", dict(victim.payload, amount=999_999))
    with pytest.raises(TamperedLedger):
        court.collect_evidence(claim.dispute_id)
    with pytest.raises(TamperedLedger):
        court.arbitrate(claim.dispute_id)


def test_evidence_rehashes_entries_outside_the_evidence():
    # Rehashing only the evidence, or only the entries appended since the
    # last clean check, would serve evidence from this chain.
    book, court, _ = build_session(pay=1_000)
    mint_agreement(book, "other", "prov", make_terms(upfront_fee=5), "2026-01-01",
                   session_id="sess-2")
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    evidence = {entry.height for entry in court.collect_evidence(claim.dispute_id).entries}
    exported = book.export_entries()
    victim = book.session_agreement("sess-2").height
    assert victim not in evidence
    exported[victim]["payload"]["terms"]["upfront_fee"] = 0
    with pytest.raises(TamperedLedger):
        court.collect_evidence(claim.dispute_id)
    with pytest.raises(TamperedLedger):
        court.arbitrate(claim.dispute_id)


def scanned_evidence(ledger, claim):
    """The whole-chain scan collect_evidence used to run, kept as the
    oracle for the ledger's evidence indexes."""
    token = ledger.session_agreement(claim.session_id)
    return tuple(
        entry
        for entry in ledger.entries()
        if entry.payload.get("session_id") == claim.session_id
        or (
            entry.kind == "reputation_event"
            and entry.payload.get("event") == USAGE_EVENT
            and entry.payload.get("license_id") == token.license_id
        )
    )


def evidence_world(name):
    if name == "market_60_1_usage":
        return scenario_from_bytes(canon.dumps(load_worlds().market(60, 1, usage_events=20)))
    return golden_scenario(name)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS) + ["market_60_1_usage"])
def test_indexed_evidence_matches_a_whole_chain_scan(name):
    scenario = evidence_world(name)
    _, world = run_scenario(scenario)
    book, court = world.ledger, world.court
    agreed = [sid for sid in scenario.session_ids() if book.session_agreement(sid)]
    assert agreed
    for session_id in agreed:
        token = book.session_agreement(session_id)
        court.file_dispute(session_id, token.metadata.issuer_id, token.metadata.holder_id,
                           "usage_violation")
    disputes = [entry.payload["dispute_id"] for entry in book.entries() if entry.kind == "dispute"]
    clone = Ledger.from_export(book.export_entries())
    clone_court = DisputeCourt.rebuild(clone, ReputationBoard(clone))
    usage_seen = False
    for dispute_id in disputes:
        live = court.collect_evidence(dispute_id)
        assert live.entries == scanned_evidence(book, live.claim)
        imported = clone_court.collect_evidence(dispute_id)
        assert imported.entries == scanned_evidence(clone, imported.claim)
        assert imported.to_value() == live.to_value()
        usage_seen |= any(entry.kind == "reputation_event" for entry in live.entries)
    if name == "market_60_1_usage":
        assert usage_seen


def test_verdicts_match_a_brute_force_payment_oracle():
    rng = random.Random(20_240_214)
    for trial in range(40):
        fee = rng.randrange(0, 5_000)
        installments = [rng.randrange(0, 2_000) for _ in range(rng.randrange(0, 4))]
        book, court, _ = build_session(terms=make_terms(upfront_fee=fee), pay=None)
        wallets = WalletSystem(book)
        wallets.open_account("payer", 10_000_000)
        wallets.open_account("prov")
        for amount in installments:
            pay_provider(wallets, "payer", amount, "sess-1")
        claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
        verdict = court.arbitrate(claim.dispute_id)
        expected = "prov" if sum(installments) < fee else "req"
        assert verdict.winner_id == expected, (trial, fee, installments)


def test_terms_hash_of_final_terms_matches_token():
    _, court, token = build_session()
    claim = court.file_dispute("sess-1", "req", "prov", "misrepresentation",
                               asserted_terms_hash=terms_hash(token.terms))
    assert court.arbitrate(claim.dispute_id).rationale == "record_matches_assertion"


def test_dispute_over_a_session_without_agreement_is_a_typed_error(tmp_path, capsys):
    book = Ledger(current_date="2024-01-01")
    book.register_agent("prov", b"prov-key")
    book.append(
        "dispute",
        {
            "dispute_id": "d1",
            "session_id": "nope",
            "claimant_id": "prov",
            "respondent_id": "req",
            "claim": "payment_default",
        },
    )
    clone = Ledger.from_export(canon.loads(canon.dumps(book.export_entries())))
    court = DisputeCourt.rebuild(clone, ReputationBoard(clone))
    with pytest.raises(UnknownLicense, match="nope"):
        court.collect_evidence("d1")
    with pytest.raises(UnknownLicense, match="nope"):
        court.arbitrate("d1")
    export = tmp_path / "ledger.json"
    export.write_bytes(canon.dumps(book.export_entries()) + b"\n")
    assert main(["export-evidence", "--ledger", str(export), "--dispute", "d1"]) == 2
    assert "error: session 'nope' has no agreement" in capsys.readouterr().err


def forge_jurisdiction(draft):
    draft["terms"]["jurisdiction"] = "ZZ"
    draft["terms_hash"] = canon.hash_value(draft["terms"])


def drop_terms(draft):
    del draft["terms"]


@pytest.mark.parametrize("forge", [forge_jurisdiction, drop_terms])
def test_forged_draft_terms_are_no_evidence_of_a_clause(forge):
    _, world = run_scenario(golden_scenario("uc1_dataset"))
    exported = canon.loads(canon.dumps(world.ledger.export_entries()))
    draft = next(entry["payload"] for entry in exported if entry["kind"] == "draft_token")
    forge(draft)
    previous = GENESIS_HASH
    for entry in exported:
        entry["payload_hash"] = canon.hash_value(entry["payload"])
        entry["entry_hash"] = previous = chain_entry_hash(previous, entry["payload_hash"])
    clone = Ledger.from_export(exported)
    court = DisputeCourt.rebuild(clone, ReputationBoard(clone))
    token = clone.session_agreement(draft["session_id"])
    claim = court.file_dispute(
        draft["session_id"],
        token.metadata.holder_id,
        token.metadata.issuer_id,
        "misrepresentation",
        asserted_clause=("jurisdiction", "ZZ"),
    )
    verdict = court.arbitrate(claim.dispute_id)
    assert verdict.winner_id == token.metadata.issuer_id
    assert verdict.rationale == "clause_absent_from_record"
