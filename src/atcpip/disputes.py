"""Dispute arbitration over ledger evidence.

Verdicts are a deterministic function of chain contents: the arbiter
recomputes hashes and sums from the entries rather than trusting either
party's story. Three claim kinds are supported:

- misrepresentation: the claimant asserts the agreed terms differ from
  what was represented, either by hash or by a specific clause
- payment_default: session payments fall short of the agreed fee
- usage_violation: recorded usage events conflict with ip_restrictions

Losing a dispute is what triggers revocation, and only when the agreed
terms listed dispute_loss among their revocation conditions and the
loser is the license holder.

The court keeps no record of its own: it reads claims and verdicts
from the ``dispute`` and ``verdict`` entries of its ledger, so a court
over a live ledger and one over its import know the same ones.
"""

from dataclasses import dataclass

from .errors import (
    InvalidParties,
    InvalidTerms,
    ParseError,
    UnknownDispute,
    UnknownLicense,
)
from .terms import TAG_FIELDS, FIELD_ORDER, terms_from_value

DISPUTE_KINDS = ("misrepresentation", "payment_default", "usage_violation")

# usage tags that contradict each restriction tag
RESTRICTION_CONFLICTS = {
    "read_only": frozenset({"modify", "fine_tune", "train", "redistribute"}),
    "no_redistribution": frozenset({"redistribute", "sublicense_grant"}),
    "no_training": frozenset({"train", "fine_tune"}),
    "no_derivatives": frozenset({"modify", "fine_tune"}),
}

USAGE_EVENT = "usage_event"


@dataclass(frozen=True)
class DisputeClaim:
    dispute_id: str
    session_id: str
    claimant_id: str
    respondent_id: str
    kind: str
    asserted_terms_hash: str = ""
    asserted_clause: tuple = ()

    def to_value(self):
        out = {
            "dispute_id": self.dispute_id,
            "session_id": self.session_id,
            "claimant_id": self.claimant_id,
            "respondent_id": self.respondent_id,
            "claim": self.kind,
        }
        if self.asserted_terms_hash:
            out["asserted_terms_hash"] = self.asserted_terms_hash
        if self.asserted_clause:
            out["asserted_clause"] = list(self.asserted_clause)
        return out


@dataclass(frozen=True)
class Verdict:
    dispute_id: str
    winner_id: str
    loser_id: str
    rationale: str
    revokes_license_id: str = ""

    def to_value(self):
        out = {
            "dispute_id": self.dispute_id,
            "winner_id": self.winner_id,
            "loser_id": self.loser_id,
            "rationale": self.rationale,
        }
        if self.revokes_license_id:
            out["revokes_license_id"] = self.revokes_license_id
        return out


@dataclass(frozen=True)
class EvidenceBundle:
    claim: DisputeClaim
    license_id: str
    terms_hash: str
    entries: tuple  # every session entry plus related usage events

    def to_value(self):
        return {
            "dispute": self.claim.to_value(),
            "license_id": self.license_id,
            "terms_hash": self.terms_hash,
            "entries": [entry.to_value() for entry in self.entries],
        }


def record_usage(ledger, actor_id, license_id, tags):
    """Log a usage event against a license; disputes read these back."""
    return ledger.append(
        "reputation_event",
        {
            "agent_id": actor_id,
            "event": USAGE_EVENT,
            "license_id": license_id,
            "tags": sorted(set(tags)),
        },
    )


def _text(value, key, what, optional=False):
    """``value[key]``, which must be a non-empty string; an ``optional``
    key may be missing, and then reads as the empty string."""
    if key not in value:
        if optional:
            return ""
        raise ParseError(f"{what} payload missing {key!r}")
    text = value[key]
    if not isinstance(text, str) or not text:
        raise ParseError(f"{what} {key} must be a non-empty string")
    return text


def claim_from_value(value):
    """Rebuild a DisputeClaim from a dispute entry payload."""
    if not isinstance(value, dict):
        raise ParseError("dispute payload must be a map")
    kind = _text(value, "claim", "dispute")
    if kind not in DISPUTE_KINDS:
        raise ParseError(f"unknown dispute kind {kind!r}")
    clause = value.get("asserted_clause")  # canonical JSON has no null
    if clause is not None and not (
        isinstance(clause, list)
        and 1 <= len(clause) <= 2
        and all(isinstance(part, str) for part in clause)
    ):
        raise ParseError("dispute asserted_clause must be a list of one or two strings")
    return DisputeClaim(
        dispute_id=_text(value, "dispute_id", "dispute"),
        session_id=_text(value, "session_id", "dispute"),
        claimant_id=_text(value, "claimant_id", "dispute"),
        respondent_id=_text(value, "respondent_id", "dispute"),
        kind=kind,
        asserted_terms_hash=_text(value, "asserted_terms_hash", "dispute", optional=True),
        asserted_clause=tuple(clause or ()),
    )


def verdict_from_value(value):
    """Rebuild a Verdict from a verdict entry payload."""
    if not isinstance(value, dict):
        raise ParseError("verdict payload must be a map")
    return Verdict(
        dispute_id=_text(value, "dispute_id", "verdict"),
        winner_id=_text(value, "winner_id", "verdict"),
        loser_id=_text(value, "loser_id", "verdict"),
        rationale=_text(value, "rationale", "verdict"),
        revokes_license_id=_text(value, "revokes_license_id", "verdict", optional=True),
    )


class DisputeCourt:
    """Files claims, gathers evidence, arbitrates, applies verdicts."""

    def __init__(self, ledger, board):
        self._ledger = ledger
        self._board = board

    @classmethod
    def rebuild(cls, ledger, board):
        """The constructor: every claim and verdict is read from the chain."""
        return cls(ledger, board)

    def _record(self, dispute_id):
        """The claim and verdict the chain holds for ``dispute_id``: the
        last ``dispute`` entry that parses, and the last ``verdict`` entry
        after it that parses (None if there is none)."""
        claim = verdict = None
        for entry in self._ledger.entries_with("dispute_id", dispute_id):
            try:
                if entry.kind == "dispute":
                    claim, verdict = claim_from_value(entry.payload), None
                elif entry.kind == "verdict" and claim is not None:
                    verdict = verdict_from_value(entry.payload)
            except ParseError:
                continue
        if claim is None:
            raise UnknownDispute(f"no dispute {dispute_id!r}")
        return claim, verdict

    def claim(self, dispute_id):
        return self._record(dispute_id)[0]

    def _agreement(self, session_id):
        token = self._ledger.session_agreement(session_id)
        if token is None:
            raise UnknownLicense(f"session {session_id!r} has no agreement to dispute")
        return token

    def file_dispute(
        self,
        session_id,
        claimant_id,
        respondent_id,
        kind,
        asserted_terms_hash="",
        asserted_clause=(),
    ):
        if kind not in DISPUTE_KINDS:
            raise ParseError(f"unknown dispute kind {kind!r}")
        token = self._agreement(session_id)
        parties = {token.metadata.issuer_id, token.metadata.holder_id}
        if {claimant_id, respondent_id} != parties or claimant_id == respondent_id:
            raise InvalidParties(
                f"dispute parties must be exactly the agreement parties {sorted(parties)}"
            )
        dispute_id = f"dispute-{self._ledger.height}"
        claim = DisputeClaim(
            dispute_id=dispute_id,
            session_id=session_id,
            claimant_id=claimant_id,
            respondent_id=respondent_id,
            kind=kind,
            asserted_terms_hash=asserted_terms_hash,
            asserted_clause=tuple(asserted_clause),
        )
        claim_from_value(claim.to_value())  # only a claim that reads back is filed
        self._ledger.append("dispute", claim.to_value())
        return claim

    def collect_evidence(self, dispute_id):
        """Session entries plus usage events, in height order, only from
        an intact chain: the whole chain is rehashed first, then the
        ledger's evidence indexes are read."""
        claim = self.claim(dispute_id)
        self._ledger.require_intact()
        token = self._agreement(claim.session_id)
        book = self._ledger
        related = {entry.height: entry for entry in book.entries_with("session_id", claim.session_id)}
        for entry in book.entries_with("license_id", token.license_id):
            if entry.kind == "reputation_event" and entry.payload.get("event") == USAGE_EVENT:
                related[entry.height] = entry
        return EvidenceBundle(
            claim=claim,
            license_id=token.license_id,
            terms_hash=token.terms_hash,
            entries=tuple(related[height] for height in sorted(related)),
        )

    # -- arbitration ----------------------------------------------------------

    def arbitrate(self, dispute_id):
        claim, recorded = self._record(dispute_id)
        if recorded is not None:
            return recorded
        evidence = self.collect_evidence(dispute_id)
        if claim.kind == "misrepresentation":
            claimant_wins, rationale = self._judge_misrepresentation(claim, evidence)
        elif claim.kind == "payment_default":
            claimant_wins, rationale = self._judge_payment_default(claim, evidence)
        else:
            claimant_wins, rationale = self._judge_usage_violation(claim, evidence)
        winner = claim.claimant_id if claimant_wins else claim.respondent_id
        loser = claim.respondent_id if claimant_wins else claim.claimant_id
        token = self._agreement(claim.session_id)
        revokes = ""
        if (
            loser == token.metadata.holder_id
            and "dispute_loss" in token.terms.revocation_conditions
        ):
            revokes = token.license_id
        return Verdict(dispute_id, winner, loser, rationale, revokes)

    def _judge_misrepresentation(self, claim, evidence):
        if claim.asserted_clause:
            if _clause_in_terms(claim.asserted_clause, _final_terms(evidence)):
                return False, "clause_present_in_final"
            for entry in evidence.entries:
                if entry.kind != "draft_token":
                    continue
                try:
                    draft = terms_from_value(entry.payload.get("terms"))
                except (ParseError, InvalidTerms):
                    # Import checks agreement terms only; a draft whose
                    # terms are missing or do not build is no evidence
                    # of a clause.
                    continue
                if _clause_in_terms(claim.asserted_clause, draft):
                    return True, "clause_dropped_from_drafts"
            return False, "clause_absent_from_record"
        if claim.asserted_terms_hash != evidence.terms_hash:
            return True, "hash_mismatch_respondent"
        return False, "record_matches_assertion"

    def _judge_payment_default(self, claim, evidence):
        required = _final_terms(evidence).upfront_fee
        paid = sum(
            _paid_amount(entry.payload) for entry in evidence.entries if entry.kind == "payment"
        )
        if paid < required:
            return True, "payments_deficient"
        return False, "payments_satisfied"

    def _judge_usage_violation(self, claim, evidence):
        restrictions = _final_terms(evidence).ip_restrictions
        banned = set()
        for restriction in restrictions:
            banned |= RESTRICTION_CONFLICTS.get(restriction, frozenset())
        for entry in evidence.entries:
            if (
                entry.kind == "reputation_event"
                and entry.payload.get("event") == USAGE_EVENT
                and entry.payload.get("agent_id") == claim.respondent_id
                and banned.intersection(_usage_tags(entry.payload))
            ):
                return True, "usage_outside_restrictions"
        return False, "usage_within_restrictions"

    # -- applying verdicts -------------------------------------------------------

    def apply_verdict(self, verdict):
        """Record the verdict entry, reputation outcomes, and revocation."""
        recorded = self._record(verdict.dispute_id)[1]
        if recorded is not None:
            return recorded
        self._ledger.append("verdict", verdict.to_value())
        self._board.record_outcome(verdict.winner_id, "dispute_won")
        self._board.record_outcome(verdict.loser_id, "dispute_lost")
        return verdict

    def resolve(self, dispute_id):
        return self.apply_verdict(self.arbitrate(dispute_id))


def _final_terms(evidence):
    for entry in evidence.entries:
        if entry.kind == "agreement_token":
            return terms_from_value(entry.payload["terms"])
    raise UnknownLicense(f"no agreement entry for dispute {evidence.claim.dispute_id!r}")


def _paid_amount(payment):
    """A payment's amount; import does not check it, and one that is not
    an integer pays nothing."""
    amount = payment.get("amount")
    return amount if isinstance(amount, int) and not isinstance(amount, bool) else 0


def _usage_tags(event):
    """A usage event's tags; import does not check them, and tags that
    are not a list of strings are no usage."""
    tags = event.get("tags")
    if isinstance(tags, list) and all(isinstance(tag, str) for tag in tags):
        return tags
    return ()


def _clause_in_terms(clause, terms):
    """(field,) tests field truthiness; (field, value) tests membership or
    string equality depending on the field's shape."""
    field = clause[0]
    if field not in FIELD_ORDER:
        return False
    value = getattr(terms, field)
    if len(clause) == 1:
        return bool(value)
    needle = clause[1]
    if field in TAG_FIELDS:
        return needle in value
    return str(value) == needle
