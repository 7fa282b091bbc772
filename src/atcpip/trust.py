"""Cross-jurisdiction gating and reputation.

The compatibility gate runs on the opening terms before they go out:
blocked country pairs stop a session outright, and personal data only
crosses a border when the destination is on the source's adequacy list
or the terms carry compliance requirements the requester's regimes
cover. Reputation is a pure fold over ledger reputation events, so any
holder of the chain reconstructs identical records.
"""

from dataclasses import dataclass

from .errors import UnknownJurisdiction

PERSONAL_DATA_FLAG = "personal_data"

@dataclass(frozen=True)
class JurisdictionProfile:
    code: str
    legal_system: str = "civil_law"
    privacy_regimes: frozenset = frozenset()
    adequacy: frozenset = frozenset()  # codes this jurisdiction may send personal data to

    def __post_init__(self):
        object.__setattr__(self, "privacy_regimes", frozenset(self.privacy_regimes))
        object.__setattr__(self, "adequacy", frozenset(self.adequacy))


class JurisdictionRegistry:
    def __init__(self, profiles=()):
        self._profiles = {}
        for profile in profiles:
            self.add(profile)

    def add(self, profile):
        self._profiles[profile.code] = profile

    def profile(self, code):
        try:
            return self._profiles[code]
        except KeyError:
            raise UnknownJurisdiction(f"no profile for jurisdiction {code!r}") from None


@dataclass(frozen=True)
class CompatibilityRules:
    """Pairing policy. blocked_pairs entries are unordered code pairs."""

    blocked_pairs: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(
            self, "blocked_pairs", frozenset(frozenset(pair) for pair in self.blocked_pairs)
        )


@dataclass(frozen=True)
class GateDecision:
    allowed: bool
    reason: str = ""

    def __bool__(self):
        return self.allowed


ALLOW = GateDecision(True)


def check_compatibility(rules, requester, provider, content_flags, terms):
    """Gate a session between two jurisdiction profiles on the terms the
    provider would open with."""
    pair = frozenset({requester.code, provider.code})
    if pair in rules.blocked_pairs:
        return GateDecision(False, f"pair {provider.code}/{requester.code} is blocked")
    if PERSONAL_DATA_FLAG in content_flags and requester.code not in provider.adequacy:
        requirements = frozenset(terms.compliance_requirements)
        if not requirements:
            return GateDecision(
                False,
                f"personal data may not leave {provider.code} for {requester.code}"
                " without adequacy or compliance requirements",
            )
        if not requirements <= requester.privacy_regimes:
            missing = sorted(requirements - requester.privacy_regimes)
            return GateDecision(
                False,
                f"requester regimes do not cover compliance requirements: {missing}",
            )
    return ALLOW


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
        return ReputationRecord(
            agent_id=self.agent_id,
            successful_deals=self.successful_deals + (field == "successful_deals"),
            disputes_won=self.disputes_won + (field == "disputes_won"),
            disputes_lost=self.disputes_lost + (field == "disputes_lost"),
            compliance_violations=self.compliance_violations + (field == "compliance_violations"),
        )


_EVENT_FIELDS = {
    "deal_completed": "successful_deals",
    "dispute_won": "disputes_won",
    "dispute_lost": "disputes_lost",
    "compliance_violation": "compliance_violations",
}


class ReputationBoard:
    """Live counters backed by ledger reputation events."""

    def __init__(self, ledger):
        self._ledger = ledger
        self._records = {}

    def record(self, agent_id):
        return self._records.get(agent_id, ReputationRecord(agent_id))

    def records(self):
        return dict(self._records)

    def record_outcome(self, agent_id, event):
        if event not in _EVENT_FIELDS:
            raise ValueError(f"unknown reputation event {event!r}")
        self._ledger.append("reputation_event", {"agent_id": agent_id, "event": event})
        updated = self.record(agent_id).bump(event)
        self._records[agent_id] = updated
        return updated


def replay_records(entries):
    """Fold reputation events from ledger entries into fresh records.

    Registration events establish the agent but count nothing.
    """
    records = {}
    for entry in entries:
        if entry.kind != "reputation_event":
            continue
        agent_id = entry.payload["agent_id"]
        event = entry.payload["event"]
        current = records.get(agent_id, ReputationRecord(agent_id))
        if event in _EVENT_FIELDS:
            current = current.bump(event)
        records[agent_id] = current
    return records
