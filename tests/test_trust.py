"""Trust: gate decisions and reputation folds."""

import collections

import pytest
from hypothesis import given
from hypothesis import strategies as st

from atcpip import canon
from atcpip.ledger import Ledger
from atcpip.trust import (
    JurisdictionProfile,
    ReputationBoard,
    ReputationRecord,
    check_compatibility,
    replay_records,
)
from conftest import make_terms

EU_DE = JurisdictionProfile("DE", {"gdpr"}, {"FR", "NL"})
US = JurisdictionProfile("US", {"ccpa"}, set())
FR = JurisdictionProfile("FR", {"gdpr"}, {"DE"})
OPEN = frozenset()


def test_blocked_pair_fails_either_direction():
    blocked = frozenset({frozenset({"US", "DE"})})
    assert check_compatibility(blocked, US, EU_DE, set(), make_terms()) == "pair DE/US is blocked"
    assert check_compatibility(blocked, EU_DE, US, set(), make_terms()) == "pair US/DE is blocked"
    assert check_compatibility(blocked, FR, EU_DE, set(), make_terms()) == ""


def test_personal_data_needs_adequacy_or_covered_requirements():
    flags = {"personal_data"}
    # FR is on DE's adequacy list: fine even without compliance requirements.
    assert check_compatibility(OPEN, FR, EU_DE, flags, make_terms()) == ""
    # US is not; without compliance requirements the gate must fail closed.
    assert check_compatibility(OPEN, US, EU_DE, flags, make_terms()) == (
        "personal data may not leave DE for US without adequacy or compliance requirements"
    )
    # Terms with requirements the requester's regimes cover open the gate.
    gdpr_terms = make_terms(compliance_requirements=["gdpr"])
    assert check_compatibility(OPEN, FR, EU_DE, flags, terms=gdpr_terms) == ""
    assert check_compatibility(OPEN, US, EU_DE, flags, terms=gdpr_terms) == (
        "requester regimes do not cover compliance requirements: ['gdpr']"
    )
    ccpa_terms = make_terms(compliance_requirements=["ccpa"])
    assert check_compatibility(OPEN, US, EU_DE, flags, terms=ccpa_terms) == ""


def test_non_personal_content_ignores_privacy_machinery():
    assert check_compatibility(OPEN, US, EU_DE, {"dataset"}, make_terms()) == ""
    assert check_compatibility(OPEN, US, EU_DE, set(), terms=make_terms()) == ""


# -- reputation -----------------------------------------------------------------


def test_board_appends_events_and_counts():
    book = Ledger()
    board = ReputationBoard(book)
    board.record_outcome("alice", "deal_completed")
    board.record_outcome("alice", "dispute_lost")
    record = replay_records(book.entries())["alice"]
    assert (record.successful_deals, record.disputes_lost) == (1, 1)
    assert [e.payload["event"] for e in book.entries()] == ["deal_completed", "dispute_lost"]
    with pytest.raises(ValueError):
        board.record_outcome("alice", "meteor_strike")
    assert book.height == 2
    assert "nobody" not in replay_records(book.entries())


def test_registration_events_count_nothing():
    book = Ledger()
    book.register_agent("alice", b"k")
    assert replay_records(book.entries())["alice"] == ReputationRecord("alice")


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["alice", "bob"]),
            st.sampled_from(["deal_completed", "dispute_won", "dispute_lost",
                             "compliance_violation"]),
        ),
        max_size=30,
    )
)
def test_replay_reconstructs_board_state(events):
    book = Ledger()
    board = ReputationBoard(book)
    for agent_id, event in events:
        board.record_outcome(agent_id, event)
    expected = {}
    for agent_id in sorted({agent_id for agent_id, _ in events}):
        counts = collections.Counter(event for who, event in events if who == agent_id)
        expected[agent_id] = ReputationRecord(
            agent_id,
            successful_deals=counts["deal_completed"],
            disputes_won=counts["dispute_won"],
            disputes_lost=counts["dispute_lost"],
            compliance_violations=counts["compliance_violation"],
        )
    assert replay_records(book.entries()) == expected


@pytest.mark.parametrize("agent_id", [None, 7, ["alice"]], ids=["missing", "number", "list"])
def test_replay_skips_an_imported_event_without_a_string_agent(agent_id):
    book = Ledger()
    book.register_agent("alice", b"k")
    ReputationBoard(book).record_outcome("alice", "deal_completed")
    payload = {"event": "deal_completed"}
    if agent_id is not None:
        payload["agent_id"] = agent_id
    book.append("reputation_event", payload)
    clone = Ledger.from_export(canon.loads(canon.dumps(book.export_entries())))
    assert replay_records(clone.entries()) == {
        "alice": ReputationRecord("alice", successful_deals=1)
    }

