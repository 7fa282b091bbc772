"""Trust: gate decisions and reputation folds."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from atcpip.errors import UnknownJurisdiction
from atcpip.ledger import Ledger
from atcpip.trust import (
    CompatibilityRules,
    JurisdictionProfile,
    JurisdictionRegistry,
    ReputationBoard,
    ReputationRecord,
    check_compatibility,
    replay_records,
)
from conftest import make_terms

EU_DE = JurisdictionProfile("DE", "civil_law", {"gdpr"}, {"FR", "NL"})
US = JurisdictionProfile("US", "common_law", {"ccpa"}, set())
FR = JurisdictionProfile("FR", "civil_law", {"gdpr"}, {"DE"})
RULES = CompatibilityRules()


def test_blocked_pair_fails_either_direction():
    rules = CompatibilityRules(blocked_pairs={("US", "DE")})
    assert not check_compatibility(rules, US, EU_DE, set(), make_terms())
    assert not check_compatibility(rules, EU_DE, US, set(), make_terms())
    assert check_compatibility(rules, FR, EU_DE, set(), make_terms())


def test_personal_data_needs_adequacy_or_covered_requirements():
    flags = {"personal_data"}
    # FR is on DE's adequacy list: fine even without compliance requirements.
    assert check_compatibility(RULES, FR, EU_DE, flags, make_terms())
    # US is not; without compliance requirements the gate must fail closed.
    decision = check_compatibility(RULES, US, EU_DE, flags, make_terms())
    assert not decision and "personal data" in decision.reason
    # Terms with requirements the requester's regimes cover open the gate.
    gdpr_terms = make_terms(compliance_requirements=["gdpr"])
    assert check_compatibility(RULES, FR, EU_DE, flags, terms=gdpr_terms)
    assert not check_compatibility(RULES, US, EU_DE, flags, terms=gdpr_terms)
    ccpa_terms = make_terms(compliance_requirements=["ccpa"])
    assert check_compatibility(RULES, US, EU_DE, flags, terms=ccpa_terms)


def test_non_personal_content_ignores_privacy_machinery():
    assert check_compatibility(RULES, US, EU_DE, {"dataset"}, make_terms())
    assert check_compatibility(RULES, US, EU_DE, set(), terms=make_terms())


def test_registry_lookup():
    registry = JurisdictionRegistry([EU_DE, US])
    assert registry.profile("DE") is EU_DE
    assert registry.profile("US") is US
    with pytest.raises(UnknownJurisdiction):
        registry.profile("JP")


# -- reputation -----------------------------------------------------------------


def test_board_appends_events_and_counts():
    book = Ledger()
    board = ReputationBoard(book)
    board.record_outcome("alice", "deal_completed")
    board.record_outcome("alice", "dispute_lost")
    record = board.record("alice")
    assert (record.successful_deals, record.disputes_lost) == (1, 1)
    assert [e.payload["event"] for e in book.entries()] == ["deal_completed", "dispute_lost"]
    with pytest.raises(ValueError):
        board.record_outcome("alice", "meteor_strike")
    assert board.record("nobody") == ReputationRecord("nobody")


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
    assert replay_records(book.entries()) == board.records()

