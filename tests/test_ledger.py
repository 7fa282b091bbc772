"""Ledger: chain arithmetic, token lifecycle, tamper evidence."""

import copy
import dataclasses
import hashlib
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atcpip import canon
from atcpip.cli import main
from atcpip.errors import (
    AbortedExchange,
    CanonicalizationError,
    CyclicLineage,
    DuplicateAgent,
    ExpiredTerms,
    InvalidTerms,
    MalformedDate,
    ParseError,
    TamperedLedger,
    UnknownAgent,
    UnknownLicense,
)
from atcpip.ledger import (
    GENESIS_HASH,
    Ledger,
    LicenseMetadata,
    chain_entry_hash,
    metadata_from_value,
    metadata_license_id,
    metadata_signature,
    token_to_value,
    verify_entries,
)
from atcpip.terms import terms_hash
from conftest import make_terms, mint_agreement
from strategies import valid_terms


def fresh_ledger(*agents, date="2024-01-01"):
    book = Ledger(current_date=date)
    for agent_id in agents or ("provider", "requester"):
        book.register_agent(agent_id, agent_id.encode() + b"-secret")
    return book


def test_first_entry_links_to_all_zero_hash():
    book = fresh_ledger()
    first = book.entry(0)
    assert first.entry_hash == hashlib.sha256(
        (GENESIS_HASH + first.payload_hash).encode()
    ).hexdigest()
    assert first.payload_hash == canon.sha256_hex(canon.dumps(first.payload))


def test_heights_are_dense_and_chain_verifies():
    book = fresh_ledger()
    for index in range(5):
        book.append("payment", {"from": "a", "to": "b", "amount": index, "purpose": "test"})
    assert [entry.height for entry in book.entries()] == list(range(7))
    assert verify_entries(book.entries())
    assert verify_entries(book.export_entries())


def test_append_injects_kind_and_rejects_contradictions():
    book = fresh_ledger()
    entry = book.append("payment", {"from": "a", "to": "b", "amount": 1, "purpose": "x"})
    assert entry.payload["kind"] == "payment"
    with pytest.raises(ParseError):
        book.append("payment", {"kind": "dispute", "amount": 1})
    with pytest.raises(ParseError):
        book.append("weather_report", {})


def test_registration_is_idempotent_never():
    book = fresh_ledger("alice")
    with pytest.raises(DuplicateAgent):
        book.register_agent("alice", b"other")


def test_signatures_simulated_from_secret_and_payload():
    book = fresh_ledger("alice")
    token = book.prepare_agreement("alice", "alice", make_terms(), "perpetual")
    signature = metadata_signature(b"alice-secret", token.metadata)
    signed = token.metadata.to_value()
    signed.pop("signature")
    signed = canon.dumps(signed) + token.terms_hash.encode()
    assert signature == hashlib.sha256(b"alice-secret" + signed).hexdigest()
    assert token.metadata.signature == signature
    assert token.requester_signature == token.metadata.signature
    with pytest.raises(UnknownAgent):
        book.prepare_agreement("mallory", "alice", make_terms(), "perpetual")


# -- agreement tokens --------------------------------------------------------


def test_mint_round_trips_and_verifies():
    book = fresh_ledger()
    terms = make_terms(upfront_fee=10)
    token = mint_agreement(book, "requester", "provider", terms, "2025-01-01", session_id="s1")
    assert token.height == 2
    assert token.metadata.issue_date == 2
    assert token.metadata.version == 1
    assert token.metadata.holder_id == "requester"
    assert token.metadata.issuer_id == "provider"
    assert token.metadata.link_to_terms == terms_hash(terms)
    assert len(token.license_id) == 32
    assert book.verify_token(token, terms)
    assert book.chain_of_ownership(token.license_id) == [token]
    assert book.session_agreement("s1") == token


@pytest.mark.parametrize("renewal", [False, True], ids=["first", "renewal"])
def test_license_id_matches_identity_digest(renewal):
    book = fresh_ledger()
    terms = make_terms()
    previous = None
    if renewal:
        previous = mint_agreement(book, "requester", "provider", terms, "perpetual").license_id
    prepared = book.prepare_agreement(
        "requester", "provider", terms, "perpetual", previous_license_id=previous
    )
    metadata = prepared.metadata.to_value()
    assert metadata.get("previous_license_id") == previous
    assert metadata["version"] == (2 if renewal else 1)
    signature = metadata.pop("signature")
    signed = canon.dumps(metadata) + prepared.terms_hash.encode()
    assert signature == hashlib.sha256(b"requester-secret" + signed).hexdigest()
    assert signature == metadata_signature(b"requester-secret", prepared.metadata)
    assert signature == prepared.requester_signature
    license_id = metadata.pop("license_id")
    digest = hashlib.sha256(canon.dumps(metadata) + prepared.terms_hash.encode()).hexdigest()
    assert license_id == digest[:32]
    assert license_id == metadata_license_id(prepared.metadata)
    assert book.token_problems(prepared) == []
    assert book.commit_agreement(prepared).license_id == license_id


def test_prepare_commits_nothing_until_commit():
    book = fresh_ledger()
    terms = make_terms()
    before = book.height
    token = book.prepare_agreement("requester", "provider", terms, "2025-01-01", session_id="s")
    assert token.height is None
    assert book.height == before
    assert not book.verify_token(token, terms)
    committed = book.commit_agreement(token)
    assert committed.height == before
    assert book.verify_token(committed, terms)


def test_commit_rejects_tampered_token_content():
    book = fresh_ledger()
    terms = make_terms()
    token = book.prepare_agreement("requester", "provider", terms, "2025-01-01", session_id="s")
    forged = dataclasses.replace(
        token, terms=make_terms(upfront_fee=999), terms_hash=terms_hash(make_terms(upfront_fee=999))
    )
    height = book.height
    with pytest.raises(AbortedExchange):
        book.commit_agreement(forged)
    assert book.height == height


def test_commit_rejects_a_valid_signature_over_other_bytes():
    book = fresh_ledger()
    token = book.prepare_agreement("requester", "provider", make_terms(), "2025-01-01", session_id="s")
    other = metadata_signature(
        b"requester-secret", dataclasses.replace(token.metadata, expiry_date="2026-01-01")
    )
    forged = dataclasses.replace(
        token,
        metadata=dataclasses.replace(token.metadata, signature=other),
        requester_signature=other,
    )
    height = book.height
    with pytest.raises(AbortedExchange, match="signature verification failed"):
        book.commit_agreement(forged)
    assert book.height == height


def test_commit_rejects_a_token_whose_holder_is_not_registered():
    elsewhere = fresh_ledger("outsider", "provider")
    token = elsewhere.prepare_agreement(
        "outsider", "provider", make_terms(), "2025-01-01", session_id="s"
    )
    book = fresh_ledger()
    problems = book.token_problems(token)
    assert problems[0] == "unknown holder"
    assert "signature verification failed" in problems
    height = book.height
    with pytest.raises(AbortedExchange, match="unknown holder"):
        book.commit_agreement(token)
    assert book.height == height


def test_commit_rejects_duplicate_license_and_session():
    book = fresh_ledger()
    terms = make_terms()
    token = book.prepare_agreement("requester", "provider", terms, "2025-01-01", session_id="s")
    book.commit_agreement(token)
    with pytest.raises(AbortedExchange):
        book.commit_agreement(token)
    second = book.prepare_agreement("requester", "provider", make_terms(name="x"), "2025-01-01", session_id="s")
    with pytest.raises(AbortedExchange):
        book.commit_agreement(second)


def test_mint_requires_registered_parties_and_fresh_expiry():
    book = fresh_ledger()
    with pytest.raises(UnknownAgent):
        mint_agreement(book, "ghost", "provider", make_terms(), "2025-01-01")
    with pytest.raises(ExpiredTerms):
        mint_agreement(book, "requester", "provider", make_terms(), "2023-12-31")
    with pytest.raises(MalformedDate):
        mint_agreement(book, "requester", "provider", make_terms(), "soonish")
    # valid through the ledger date itself
    token = mint_agreement(book, "requester", "provider", make_terms(), "2024-01-01")
    assert token.metadata.expiry_date == "2024-01-01"


def test_renewal_chains_versions_and_lineage():
    book = fresh_ledger()
    first = mint_agreement(book, "requester", "provider", make_terms(), "2025-01-01")
    second = mint_agreement(
        book, "requester", "provider", make_terms(name="renewed"), "2026-01-01",
        previous_license_id=first.license_id,
    )
    assert second.metadata.version == 2
    chain = book.chain_of_ownership(second.license_id)
    assert [t.license_id for t in chain] == [first.license_id, second.license_id]
    with pytest.raises(UnknownLicense):
        mint_agreement(book, "requester", "provider", make_terms(), "2025-01-01",
                       previous_license_id="f" * 32)
    with pytest.raises(UnknownLicense):
        book.chain_of_ownership("e" * 32)


def test_cyclic_lineage_detected_on_crafted_entries():
    book = fresh_ledger()
    token = mint_agreement(book, "requester", "provider", make_terms(), "2025-01-01")
    # Craft an entry for a new license whose previous pointer loops back
    # to itself.
    payload = copy.deepcopy(book.entry(token.height).payload)
    payload["metadata"]["license_id"] = payload["metadata"]["previous_license_id"] = "c" * 32
    book.append("agreement_token", payload)
    with pytest.raises(CyclicLineage):
        book.chain_of_ownership("c" * 32)


def test_agreement_payload_is_the_token_wire_form():
    book = fresh_ledger()
    terms = make_terms()
    prepared = book.prepare_agreement("requester", "provider", terms, "2025-01-01", session_id="s")
    token = book.commit_agreement(prepared)
    payload = dict(book.entry(token.height).payload)
    assert payload.pop("kind") == "agreement_token"
    assert canon.dumps(payload) == canon.dumps(token_to_value(prepared))
    assert not book.verify_token(dataclasses.replace(token, session_id="other"), terms)
    height = book.height
    with pytest.raises(ParseError, match="unknown token field 'note'"):
        book.append("agreement_token", {**payload, "note": "x"})
    assert book.height == height


def test_verify_token_rejects_foreign_terms_and_revocation():
    book = fresh_ledger()
    terms = make_terms()
    token = mint_agreement(book, "requester", "provider", terms, "2025-01-01", session_id="s")
    assert book.verify_token(token, terms)
    assert not book.verify_token(token, make_terms(upfront_fee=1))
    book.append("verdict", {"dispute_id": "d", "revokes_license_id": token.license_id})
    assert not book.verify_token(token, terms)


# -- metadata ----------------------------------------------------------------


def _metadata(expiry="2025-06-30", previous=None):
    return LicenseMetadata(
        license_id="a" * 32,
        issuer_id="provider",
        holder_id="requester",
        issue_date=3,
        expiry_date=expiry,
        version=1,
        link_to_terms="b" * 64,
        signature="c" * 64,
        previous_license_id=previous,
    )


def test_metadata_value_omits_absent_previous_license():
    assert "previous_license_id" not in _metadata().to_value()
    assert _metadata(previous="d" * 32).to_value()["previous_license_id"] == "d" * 32
    assert metadata_from_value(_metadata(previous="d" * 32).to_value()) == _metadata(previous="d" * 32)


def test_metadata_from_value_rejects_unknown_fields():
    doc = _metadata().to_value()
    doc["extra"] = 1
    with pytest.raises(ParseError):
        metadata_from_value(doc)


# -- draft tokens -------------------------------------------------------------


def test_draft_rounds_increment_by_one():
    book = fresh_ledger()
    draft = book.mint_draft("s1", "provider", make_terms())
    assert draft.payload["round"] == 1 and draft.height == 2
    book.mint_draft("s2", "provider", make_terms())
    book.mint_draft("s1", "requester", make_terms(upfront_fee=3))
    book.mint_draft("s2", "requester", make_terms(upfront_fee=3))
    book.mint_draft("s1", "provider", make_terms())
    rounds = [
        (entry.payload["session_id"], entry.payload["round"])
        for entry in book.entries()
        if entry.kind == "draft_token"
    ]
    assert rounds == [("s1", 1), ("s2", 1), ("s1", 2), ("s2", 2), ("s1", 3)]


def test_history_collects_session_entries():
    book = fresh_ledger()
    book.mint_draft("s1", "provider", make_terms())
    book.mint_draft("s2", "provider", make_terms())
    mint_agreement(book, "requester", "provider", make_terms(), "2025-01-01", session_id="s1")
    kinds = [entry.kind for entry in book.entries() if entry.payload.get("session_id") == "s1"]
    assert kinds == ["draft_token", "agreement_token"]


def test_named_index_matches_a_scan_live_and_imported():
    book = fresh_ledger()
    book.mint_draft("s1", "provider", make_terms())
    token = mint_agreement(book, "requester", "provider", make_terms(), "2025-01-01",
                           session_id="s1")
    book.append("payment", {"from": "requester", "to": "provider", "amount": 1,
                            "purpose": "fee", "session_id": "s1"})
    book.append("reputation_event", {"agent_id": "requester", "event": "usage_event",
                                     "license_id": token.license_id, "tags": []})
    book.append("dispute", {"dispute_id": "d1", "session_id": "s1"})
    book.append("verdict", {"dispute_id": "d1", "license_id": token.license_id})
    # Values that are not strings are not indexed, and do not fail an import.
    book.append("reputation_event", {"session_id": ["s1"], "license_id": 5, "dispute_id": {}})
    clone = Ledger.from_export(canon.loads(canon.dumps(book.export_entries())))
    for ledger in (book, clone):
        for name, value in (("session_id", "s1"), ("license_id", token.license_id),
                            ("dispute_id", "d1"), ("session_id", "s2")):
            scanned = [entry for entry in ledger.entries() if entry.payload.get(name) == value]
            assert ledger.entries_with(name, value) == scanned
        assert [entry.kind for entry in ledger.entries_with("session_id", "s1")] == [
            "draft_token", "agreement_token", "payment", "dispute"
        ]
        assert len(ledger.entries_with("license_id", token.license_id)) == 2


def test_agreements_and_revocations_are_read_from_the_chain():
    book = fresh_ledger()
    terms = make_terms()
    token = mint_agreement(book, "requester", "provider", terms, "2025-01-01", session_id="s1")
    with pytest.raises(AbortedExchange, match="session 's1' already has an agreement"):
        mint_agreement(book, "requester", "provider", make_terms(upfront_fee=1), "2025-01-01",
                       session_id="s1")
    # Agreements with an empty session id belong to no session.
    mint_agreement(book, "requester", "provider", make_terms(upfront_fee=2), "2025-01-01")
    mint_agreement(book, "requester", "provider", make_terms(upfront_fee=3), "2025-01-01")
    # Only a verdict revokes a license.
    book.append("payment", {"from": "requester", "to": "provider", "amount": 1,
                            "purpose": "fee", "revokes_license_id": token.license_id})
    assert book.verify_token(token, terms)
    book.append("verdict", {"dispute_id": "d1", "revokes_license_id": token.license_id})
    assert not book.verify_token(token, terms)
    clone = Ledger.from_export(canon.loads(canon.dumps(book.export_entries())))
    for ledger in (book, clone):
        assert ledger.session_agreement("s1") == token
        assert ledger.session_agreement("") is None and ledger.session_agreement("s2") is None
        assert len(ledger.entries_with("revokes_license_id", token.license_id)) == 2


# -- exports and tampering -----------------------------------------------------


def populated_ledger():
    book = fresh_ledger()
    terms = make_terms(upfront_fee=10)
    book.mint_draft("s1", "provider", terms)
    mint_agreement(book, "requester", "provider", terms, "2025-01-01", session_id="s1")
    book.append("payment", {"from": "requester", "to": "provider", "amount": 10, "purpose": "fee"})
    book.append("dispute", {"dispute_id": "d1", "claimant_id": "requester",
                            "respondent_id": "provider", "session_id": "s1", "claim": "test"})
    return book


def test_export_round_trip_reconstructs_state():
    book = populated_ledger()
    clone = Ledger.from_export(book.export_entries())
    assert clone.export_entries() == book.export_entries()
    assert verify_entries(clone.entries())
    token = book.session_agreement("s1")
    assert clone.chain_of_ownership(token.license_id)[-1].terms_hash == token.terms_hash
    with pytest.raises(TamperedLedger):
        tampered = book.export_entries()
        tampered[1]["payload"]["agent_id"] = "mallory"
        Ledger.from_export(tampered)
    with pytest.raises(ParseError):
        Ledger.from_export({"entries": book.export_entries()})


MUTATORS = [
    lambda e: e[2]["payload"].__setitem__("session_id", "s2"),
    lambda e: e[3]["payload"]["metadata"].__setitem__("holder_id", "mallory"),
    lambda e: e[3]["payload"]["terms"].__setitem__("upfront_fee", 0),
    lambda e: e[4]["payload"].__setitem__("amount", 9),
    lambda e: e[4].__setitem__("payload_hash", "0" * 64),
    lambda e: e[4].__setitem__("entry_hash", "f" * 64),
    lambda e: e[3].__setitem__("height", 9),
    lambda e: e[2].__setitem__("kind", "payment"),
    lambda e: e[2]["payload"].__setitem__("kind", "payment"),
    lambda e: e.pop(3),
    lambda e: e.insert(2, copy.deepcopy(e[2])),
    lambda e: e.__setitem__(slice(2, 4), [e[3], e[2]]),
    lambda e: e[5]["payload"].pop("claim"),
    lambda e: e[5]["payload"].__setitem__("note", "extra"),
    lambda e: e[0]["payload"].__setitem__("agent_id", "mallory"),
]


@pytest.mark.parametrize("mutate", MUTATORS, ids=range(len(MUTATORS)))
def test_any_single_mutation_breaks_verification(mutate):
    exported = populated_ledger().export_entries()
    assert verify_entries(exported)
    mutate(exported)
    assert not verify_entries(exported)
    with pytest.raises(TamperedLedger):
        Ledger.from_export(exported)


# Each of these compares equal to the position it sits at, and none is
# the integer the ledger writes there.
@pytest.mark.parametrize(
    "position, height",
    [(1, True), (1, Decimal("1.0000")), (0, False)],
    ids=["true", "decimal", "false"],
)
def test_a_height_that_is_not_an_integer_breaks_verification(tmp_path, capsys, position, height):
    exported = fresh_ledger().export_entries()
    exported[position]["height"] = height
    assert exported[position]["height"] == position
    assert not verify_entries(exported)
    with pytest.raises(TamperedLedger, match="records height"):
        Ledger.from_export(exported)
    export = tmp_path / "ledger.json"
    export.write_bytes(canon.dumps(exported) + b"\n")
    assert main(["verify-ledger", str(export)]) == 1
    assert "ledger tampered" in capsys.readouterr().out


def chained(payloads):
    """Export maps with correct hashes around raw payloads, bypassing the
    checks that append runs."""
    exported, previous = [], GENESIS_HASH
    for height, payload in enumerate(payloads):
        payload_hash = canon.sha256_hex(canon.dumps(payload))
        previous = chain_entry_hash(previous, payload_hash)
        exported.append({"height": height, "kind": payload["kind"], "payload": payload,
                         "payload_hash": payload_hash, "entry_hash": previous})
    return exported


def test_import_reports_tampering_ahead_of_a_parse_error():
    registered = {"kind": "reputation_event", "agent_id": "a", "event": "registered"}
    roundless = {"kind": "draft_token", "session_id": "s1"}
    exported = chained([registered, roundless, registered])
    assert verify_entries(exported)
    with pytest.raises(ParseError):
        Ledger.from_export(exported)
    exported[2]["payload"] = {**registered, "agent_id": "b"}
    with pytest.raises(TamperedLedger):
        Ledger.from_export(exported)


def test_import_refuses_agreement_terms_that_break_a_rule():
    payloads = [entry["payload"] for entry in populated_ledger().export_entries()]
    assert Ledger.from_export(chained(payloads))
    payloads[3]["terms"]["rev_share"] = canon.fixed4("0.99")
    exported = chained(payloads)
    assert verify_entries(exported)
    with pytest.raises(InvalidTerms) as exc:
        Ledger.from_export(exported)
    assert [(v.path, v.reason) for v in exc.value.violations] == [
        ((), "royalty_rate + rev_share > 1")
    ]


def test_import_refuses_a_second_agreement_for_a_session():
    book = fresh_ledger()
    mint_agreement(book, "requester", "provider", make_terms(upfront_fee=100), "2025-01-01",
                   session_id="s1")
    second = book.prepare_agreement("requester", "provider", make_terms(upfront_fee=10_000),
                                    "2025-01-01", session_id="s1")
    payload = {"kind": "agreement_token", **token_to_value(second)}
    exported = chained([*(entry["payload"] for entry in book.export_entries()), payload])
    assert verify_entries(exported)
    with pytest.raises(ParseError, match="session 's1' already has an agreement"):
        Ledger.from_export(exported)
    with pytest.raises(ParseError, match="session 's1' already has an agreement"):
        book.append("agreement_token", payload)
    assert book.session_agreement("s1").terms.upfront_fee == 100


def test_import_refuses_a_license_already_committed():
    book = fresh_ledger()
    token = mint_agreement(book, "requester", "provider", make_terms(), "2025-01-01")
    payloads = [entry["payload"] for entry in book.export_entries()]
    exported = chained([*payloads, payloads[token.height]])
    assert verify_entries(exported)
    with pytest.raises(ParseError, match=f"license '{token.license_id}' already committed"):
        Ledger.from_export(exported)
    with pytest.raises(ParseError, match=f"license '{token.license_id}' already committed"):
        book.append("agreement_token", payloads[token.height])
    assert book.chain_of_ownership(token.license_id) == [token]


def test_verify_rejects_malformed_containers():
    assert verify_entries([])
    assert not verify_entries([{"height": 0}])
    assert not verify_entries(["nonsense"])
    unhashable_kind = chained([{"kind": ["payment"]}])
    assert not verify_entries(unhashable_kind)
    with pytest.raises(TamperedLedger):
        Ledger.from_export(unhashable_kind)
    # An in-memory entry whose payload cannot be encoded fails the check
    # instead of raising.
    entries = list(populated_ledger().entries())
    foreign = dataclasses.replace(entries[4])
    object.__setattr__(foreign, "payload", {**entries[4].payload, "amount": 1.5})
    entries[4] = foreign
    with pytest.raises(CanonicalizationError):
        canon.sha256_hex(canon.dumps(entries[4].payload))
    assert not verify_entries(entries)


@settings(max_examples=50)
@given(valid_terms(), st.integers(min_value=0, max_value=2**32))
def test_minting_random_terms_always_verifies(terms, salt):
    book = fresh_ledger()
    book.append("payment", {"from": "a", "to": "b", "amount": salt, "purpose": "salt"})
    token = mint_agreement(book, "requester", "provider", terms, "perpetual")
    assert book.verify_token(token, terms)
    assert verify_entries(book.entries())
