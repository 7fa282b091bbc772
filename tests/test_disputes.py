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
from atcpip.ledger import GENESIS_HASH, Ledger, chain_entry_hash, verify_entries
from atcpip.payments import SplitPlan, WalletSystem
from atcpip.scenario import scenario_from_bytes
from atcpip.sim import run_scenario
from atcpip.terms import terms_hash
from atcpip.trust import ReputationBoard, replay_records
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
    for draft in draft_terms:
        book.mint_draft(session_id, "prov", draft)
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
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    before = book.height
    verdict = court.resolve(claim.dispute_id)
    entry = book.entry(before)
    assert entry.kind == "verdict"
    assert entry.payload["winner_id"] == "prov"
    assert entry.payload["rationale"] == "payments_deficient"
    records = replay_records(book.entries())
    assert records["prov"].disputes_won == 1
    assert records["req"].disputes_lost == 1
    # resolving again must not duplicate anything
    assert court.resolve(claim.dispute_id) == verdict
    assert replay_records(book.entries())["prov"].disputes_won == 1
    assert book.height == before + 3  # verdict + two reputation events


@pytest.mark.parametrize("imported", [False, True], ids=["live", "imported"])
def test_a_new_court_reads_filed_claims_and_verdicts_from_the_chain(imported):
    terms = make_terms(upfront_fee=1_000, revocation_conditions=("dispute_loss",))
    book, court, token = build_session(terms=terms, pay=0)
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    verdict = court.resolve(claim.dispute_id)
    if imported:
        book = Ledger.from_export(canon.loads(canon.dumps(book.export_entries())))
    fresh = DisputeCourt(book, ReputationBoard(book))
    height = book.height
    assert fresh.claim(claim.dispute_id) == claim
    assert fresh.arbitrate(claim.dispute_id) == verdict
    assert fresh.resolve(claim.dispute_id) == verdict
    assert verdict.revokes_license_id == token.license_id
    assert book.height == height
    assert fresh.collect_evidence(claim.dispute_id).to_value() == (
        court.collect_evidence(claim.dispute_id).to_value()
    )


def test_a_verdict_recorded_before_its_claim_resolves_nothing():
    book, _, _ = build_session(pay=0)
    exported = canon.loads(canon.dumps(book.export_entries()))
    # A verdict for the id that the next filing on the import will get.
    next_id = f"dispute-{len(exported) + 1}"
    payload = {"kind": "verdict", "dispute_id": next_id, "winner_id": "req",
               "loser_id": "prov", "rationale": "forged"}
    exported.append({"height": len(exported), "kind": "verdict", "payload": payload,
                     "payload_hash": "", "entry_hash": ""})
    _, court = rehashed_court(exported)
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    assert claim.dispute_id == next_id
    verdict = court.resolve(claim.dispute_id)
    assert (verdict.winner_id, verdict.rationale) == ("prov", "payments_deficient")


def test_a_claim_that_would_not_read_back_is_not_filed():
    book, court, _ = build_session()
    height = book.height
    with pytest.raises(ParseError):
        court.file_dispute("sess-1", "req", "prov", "misrepresentation",
                           asserted_clause=("scope", "a", "b"))
    assert book.height == height


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
    # An export is a copy: editing it leaves the chain intact. An entry
    # whose payload object is swapped still fails the next dispute, even
    # outside the evidence: rehashing only the evidence, or only the
    # entries appended since the last clean check, would serve evidence
    # from that chain.
    book, court, _ = build_session(pay=1_000)
    mint_agreement(book, "other", "prov", make_terms(upfront_fee=5), "2026-01-01",
                   session_id="sess-2")
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    evidence = {entry.height for entry in court.collect_evidence(claim.dispute_id).entries}
    verdict = court.arbitrate(claim.dispute_id)
    tip = book.tip_hash()
    exported = book.export_entries()
    victim = book.session_agreement("sess-2").height
    assert victim not in evidence
    exported[victim]["payload"]["terms"]["upfront_fee"] = 0
    assert not verify_entries(exported)
    assert book.tip_hash() == tip
    assert verify_entries(book.entries())
    assert court.resolve(claim.dispute_id) == verdict

    again = court.file_dispute("sess-1", "prov", "req", "payment_default")
    entry = book.entry(victim)
    payload = entry.payload
    payload["terms"]["upfront_fee"] = 0
    object.__setattr__(entry, "payload", payload)
    with pytest.raises(TamperedLedger):
        court.collect_evidence(again.dispute_id)
    with pytest.raises(TamperedLedger):
        court.arbitrate(again.dispute_id)


@pytest.mark.parametrize("imported", [False, True], ids=["live", "imported"])
def test_edits_to_read_payloads_leave_the_chain_sealed(imported):
    book, court, token = build_session(pay=400)
    if imported:
        book = Ledger.from_export(book.export_entries())
        for agent_id in ("prov", "req", "other"):  # keys do not travel with exports
            book.register_agent(agent_id, agent_id.encode() + b"-key")
        court = DisputeCourt(book, ReputationBoard(book))
        token = book.session_agreement("sess-1")
    claim = court.file_dispute("sess-1", "prov", "req", "payment_default")
    verdict = court.arbitrate(claim.dispute_id)
    assert verdict.rationale == "payments_deficient"
    tip = book.tip_hash()
    agreement = token.height
    payment = next(e.height for e in book.entries_with("session_id", "sess-1") if e.kind == "payment")

    # Each edit would change the tip, the token's record or the verdict
    # if it reached the chain.
    paid = book.entry(payment).payload
    paid["amount"] = 1_000
    terms = book.entry(agreement).payload["terms"]
    terms["upfront_fee"] = 0
    for entry in book.entries_with("session_id", "sess-1"):
        read = entry.payload
        read["session_id"] = "elsewhere"
    exported = book.export_entries()
    exported[payment]["payload"]["amount"] = 1_000
    exported[agreement]["payload"]["terms"]["upfront_fee"] = 0

    assert book.entry(payment).payload["amount"] == 400
    assert book.tip_hash() == tip
    assert verify_entries(book.export_entries())
    assert book.verify_token(token, token.terms)
    assert court.resolve(claim.dispute_id) == verdict


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
    clone_court = DisputeCourt(clone, ReputationBoard(clone))
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
    court = DisputeCourt(clone, ReputationBoard(clone))
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


def rehash(exported):
    """Recompute every hash of an edited export, so the forgery verifies."""
    previous = GENESIS_HASH
    for entry in exported:
        entry["payload_hash"] = canon.hash_value(entry["payload"])
        entry["entry_hash"] = previous = chain_entry_hash(previous, entry["payload_hash"])
    return exported


def rehashed_court(exported):
    """Rehash an edited export, then import it and build a court over it."""
    clone = Ledger.from_export(rehash(exported))
    return clone, DisputeCourt(clone, ReputationBoard(clone))


@pytest.mark.parametrize("forge", [forge_jurisdiction, drop_terms])
def test_forged_draft_terms_are_no_evidence_of_a_clause(forge):
    _, world = run_scenario(golden_scenario("uc1_dataset"))
    exported = canon.loads(canon.dumps(world.ledger.export_entries()))
    draft = next(entry["payload"] for entry in exported if entry["kind"] == "draft_token")
    forge(draft)
    clone, court = rehashed_court(exported)
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


def drop_amount(payload):
    del payload["amount"]


def string_amount(payload):
    payload["amount"] = "1000"


def number_tags(payload):
    payload["tags"] = 5


def string_tags(payload):
    payload["tags"] = "train"


@pytest.mark.parametrize(
    "kind,forge,claim_kind,rationale",
    [
        ("payment", drop_amount, "payment_default", "payments_deficient"),
        ("payment", string_amount, "payment_default", "payments_deficient"),
        ("reputation_event", number_tags, "usage_violation", "usage_within_restrictions"),
        ("reputation_event", string_tags, "usage_violation", "usage_within_restrictions"),
    ],
)
def test_malformed_payments_and_usage_are_no_evidence(kind, forge, claim_kind, rationale):
    # Well formed, the payment covers the fee and the usage breaks read_only.
    book, _, token = build_session(terms=make_terms(upfront_fee=1_000), pay=1_000)
    record_usage(book, "req", token.license_id, ["train"])
    exported = canon.loads(canon.dumps(book.export_entries()))
    forge(next(entry["payload"] for entry in reversed(exported) if entry["kind"] == kind))
    _, court = rehashed_court(exported)
    claim = court.file_dispute("sess-1", "prov", "req", claim_kind)
    assert court.arbitrate(claim.dispute_id).rationale == rationale


@pytest.mark.parametrize(
    "kind,path,value,outcome",
    [
        # An index key that is not a string fails the import.
        ("draft_token", ("session_id",), ["s"], "import"),
        ("agreement_token", ("session_id",), ["s"], "import"),
        ("agreement_token", ("metadata", "license_id"), ["s"], "import"),
        ("verdict", ("revokes_license_id",), ["s"], "import"),
        # A dispute or verdict that does not parse is skipped by the court.
        ("dispute", ("asserted_clause",), 5, "dispute"),
        ("dispute", ("asserted_clause",), "scope", "dispute"),
        ("dispute", ("asserted_clause",), [], "dispute"),
        ("dispute", ("dispute_id",), ["d"], "dispute"),
        ("dispute", ("claim",), "vibes", "dispute"),
        ("verdict", ("rationale",), None, "verdict"),
    ],
)
def test_forged_entries_on_an_imported_chain_are_typed_errors(
    tmp_path, capsys, kind, path, value, outcome
):
    terms = make_terms(upfront_fee=1_000, revocation_conditions=("dispute_loss",))
    book, court, token = build_session(terms=terms, pay=100, draft_terms=(terms,))
    forged = court.resolve(court.file_dispute("sess-1", "prov", "req", "payment_default").dispute_id)
    intact = court.resolve(
        court.file_dispute(
            "sess-1", "req", "prov", "misrepresentation", asserted_terms_hash="f" * 64
        ).dispute_id
    )
    assert forged.revokes_license_id == token.license_id
    exported = canon.loads(canon.dumps(book.export_entries()))
    target = next(entry["payload"] for entry in exported if entry["kind"] == kind)
    *parents, key = path
    for step in parents:
        target = target[step]
    if value is None:
        del target[key]
    else:
        target[key] = value
    export = tmp_path / "ledger.json"
    export.write_bytes(canon.dumps(rehash(exported)) + b"\n")

    def export_evidence(dispute_id):
        return main(["export-evidence", "--ledger", str(export), "--dispute", dispute_id])

    assert main(["verify-ledger", str(export)]) == 0
    if outcome == "import":
        with pytest.raises(ParseError, match="must be a string"):
            Ledger.from_export(exported)
        assert export_evidence(intact.dispute_id) == 2
        assert "error: " in capsys.readouterr().err
        return
    clone = Ledger.from_export(exported)
    rebuilt = DisputeCourt(clone, ReputationBoard(clone))
    assert rebuilt.collect_evidence(intact.dispute_id).claim.kind == "misrepresentation"
    assert export_evidence(intact.dispute_id) == 0
    if outcome == "dispute":
        with pytest.raises(UnknownDispute):
            rebuilt.claim(forged.dispute_id)
        assert export_evidence(forged.dispute_id) == 2
        assert "error: no dispute" in capsys.readouterr().err
    else:
        assert rebuilt.collect_evidence(forged.dispute_id).claim.kind == "payment_default"
        assert export_evidence(forged.dispute_id) == 0
