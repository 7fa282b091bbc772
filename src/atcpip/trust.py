"""Cross-jurisdiction gating and reputation.

The compatibility gate runs on the opening terms before they go out:
blocked country pairs stop a session outright, and personal data only
crosses a border when the destination is on the source's adequacy list
or the terms carry compliance requirements the requester's regimes
cover.

Reputation lives only on the chain. The board appends outcome events
and keeps no counts; ``replay_records`` folds a chain's reputation
events into records, so any holder of the chain, live or imported,
reconstructs identical records.
"""

from dataclasses import dataclass, replace

PERSONAL_DATA_FLAG = "personal_data"

@dataclass(frozen=True)
class JurisdictionProfile:
    code: str
    privacy_regimes: frozenset = frozenset()
    adequacy: frozenset = frozenset()  # codes this jurisdiction may send personal data to

    def __post_init__(self):
        object.__setattr__(self, "privacy_regimes", frozenset(self.privacy_regimes))
        object.__setattr__(self, "adequacy", frozenset(self.adequacy))


def check_compatibility(blocked_pairs, requester, provider, content_flags, terms):
    """Why a session between two jurisdiction profiles may not open on
    the terms the provider would open with, or ``""`` when it may.
    ``blocked_pairs`` holds unordered code pairs as frozensets."""
    if frozenset({requester.code, provider.code}) in blocked_pairs:
        return f"pair {provider.code}/{requester.code} is blocked"
    if PERSONAL_DATA_FLAG in content_flags and requester.code not in provider.adequacy:
        requirements = frozenset(terms.compliance_requirements)
        if not requirements:
            return (
                f"personal data may not leave {provider.code} for {requester.code}"
                " without adequacy or compliance requirements"
            )
        if not requirements <= requester.privacy_regimes:
            missing = sorted(requirements - requester.privacy_regimes)
            return f"requester regimes do not cover compliance requirements: {missing}"
    return ""


# -- reputation ----------------------------------------------------------------


@dataclass(frozen=True)
class ReputationRecord:
    agent_id: str
    successful_deals: int = 0
    disputes_won: int = 0
    disputes_lost: int = 0
    compliance_violations: int = 0

    def bump(self, event):
        field = _EVENT_FIELDS[event]
        return replace(self, **{field: getattr(self, field) + 1})


_EVENT_FIELDS = {
    "deal_completed": "successful_deals",
    "dispute_won": "disputes_won",
    "dispute_lost": "disputes_lost",
    "compliance_violation": "compliance_violations",
}


class ReputationBoard:
    """Appends reputation outcome events to the ledger."""

    def __init__(self, ledger):
        self._ledger = ledger

    def record_outcome(self, agent_id, event):
        if event not in _EVENT_FIELDS:
            raise ValueError(f"unknown reputation event {event!r}")
        self._ledger.append("reputation_event", {"agent_id": agent_id, "event": event})


def replay_records(entries):
    """Fold reputation events from ledger entries into fresh records.

    Registration events establish the agent but count nothing. Import
    does not check reputation events, and one whose ``agent_id`` is not
    a string is skipped.
    """
    records = {}
    for entry in entries:
        if entry.kind != "reputation_event":
            continue
        payload = entry.payload
        agent_id = payload.get("agent_id")
        if not isinstance(agent_id, str):
            continue
        event = payload.get("event")
        current = records.get(agent_id, ReputationRecord(agent_id))
        if isinstance(event, str) and event in _EVENT_FIELDS:
            current = current.bump(event)
        records[agent_id] = current
    return records
