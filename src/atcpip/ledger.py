"""Simulated append-only ledger.

A hash chain over canonical payloads stands in for a real chain:
``entry_hash = sha256(previous_entry_hash_hex + payload_hash_hex)`` with
sixty-four zeros before entry zero. Signatures are simulated the same
way (sha256 over secret key bytes plus payload bytes); the point is
tamper evidence and replayability, not cryptographic strength.

Agreement tokens are minted in two steps so the token/delivery exchange
can be atomic: ``prepare_agreement`` builds and signs an uncommitted
token, ``commit_agreement`` re-verifies everything and appends. A token
is only ever valid if its entry is on an intact chain.
"""

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Optional

from . import canon
from .errors import (
    AbortedExchange,
    AtcpipError,
    CyclicLineage,
    DuplicateAgent,
    ExpiredTerms,
    MalformedDate,
    NonMonotonicRound,
    ParseError,
    TamperedLedger,
    UnknownAgent,
    UnknownLicense,
)
from .terms import PERPETUAL, is_iso_date, terms_from_value, terms_hash

GENESIS_HASH = "0" * 64
LICENSE_ID_LENGTH = 32

ENTRY_KINDS = frozenset(
    {"agreement_token", "draft_token", "payment", "dispute", "verdict", "reputation_event"}
)
ENTRY_FIELDS = frozenset({"height", "kind", "payload", "payload_hash", "entry_hash"})


@dataclass(frozen=True)
class LedgerEntry:
    height: int
    kind: str
    payload: dict  # canonical map, always carries its own "kind"
    payload_hash: str
    entry_hash: str

    def to_value(self):
        return {
            "height": self.height,
            "kind": self.kind,
            "payload": self.payload,
            "payload_hash": self.payload_hash,
            "entry_hash": self.entry_hash,
        }


@dataclass(frozen=True)
class LicenseMetadata:
    """Identity portion of an agreement token."""

    license_id: str
    issuer_id: str
    holder_id: str
    issue_date: int  # ledger height at mint time
    expiry_date: str  # calendar date or "perpetual"
    version: int
    link_to_terms: str  # terms hash
    signature: str
    previous_license_id: Optional[str] = None

    def to_value(self):
        out = {
            "license_id": self.license_id,
            "issuer_id": self.issuer_id,
            "holder_id": self.holder_id,
            "issue_date": self.issue_date,
            "expiry_date": self.expiry_date,
            "version": self.version,
            "link_to_terms": self.link_to_terms,
            "signature": self.signature,
        }
        if self.previous_license_id is not None:
            out["previous_license_id"] = self.previous_license_id
        return out


def metadata_from_value(value):
    if not isinstance(value, dict):
        raise ParseError("license metadata must be a map")
    required = {
        "license_id", "issuer_id", "holder_id", "issue_date",
        "expiry_date", "version", "link_to_terms", "signature",
    }
    missing = required - set(value)
    if missing:
        raise ParseError(f"missing metadata field {sorted(missing)[0]!r}")
    extra = set(value) - required - {"previous_license_id"}
    if extra:
        raise ParseError(f"unknown metadata field {sorted(extra)[0]!r}")
    try:
        return LicenseMetadata(
            license_id=value["license_id"],
            issuer_id=value["issuer_id"],
            holder_id=value["holder_id"],
            issue_date=value["issue_date"],
            expiry_date=value["expiry_date"],
            version=value["version"],
            link_to_terms=value["link_to_terms"],
            signature=value["signature"],
            previous_license_id=value.get("previous_license_id"),
        )
    except TypeError as exc:
        raise ParseError(f"bad metadata document: {exc}") from None


def _identity_value(metadata):
    """The fields a license id is derived from: metadata without
    license_id and signature."""
    out = metadata.to_value()
    del out["license_id"], out["signature"]
    return out


@dataclass(frozen=True)
class AgreementToken:
    """A licence bound to its terms and (once committed) a ledger entry."""

    metadata: LicenseMetadata
    terms: object
    terms_hash: str
    requester_signature: str
    session_id: str
    height: Optional[int] = None  # None until committed

    @property
    def license_id(self):
        return self.metadata.license_id


def token_to_value(token):
    """Wire form of an agreement token; height only once committed."""
    out = {
        "metadata": token.metadata.to_value(),
        "terms": token.terms.to_value(),
        "terms_hash": token.terms_hash,
        "requester_signature": token.requester_signature,
        "session_id": token.session_id,
    }
    if token.height is not None:
        out["height"] = token.height
    return out


def token_from_value(value):
    if not isinstance(value, dict):
        raise ParseError("token must be a map")
    required = {"metadata", "terms", "terms_hash", "requester_signature", "session_id"}
    missing = required - set(value)
    if missing:
        raise ParseError(f"token missing field {sorted(missing)[0]!r}")
    extra = set(value) - required - {"height"}
    if extra:
        raise ParseError(f"unknown token field {sorted(extra)[0]!r}")
    height = value.get("height")
    if height is not None and (isinstance(height, bool) or not isinstance(height, int)):
        raise ParseError("token height must be an integer")
    return AgreementToken(
        metadata=metadata_from_value(value["metadata"]),
        terms=terms_from_value(value["terms"]),
        terms_hash=value["terms_hash"],
        requester_signature=value["requester_signature"],
        session_id=value["session_id"],
        height=height,
    )


def chain_entry_hash(previous_hash, payload_hash):
    return canon.sha256_hex((previous_hash + payload_hash).encode("ascii"))


def derive_license_id(metadata_value, link_to_terms):
    """First 32 hex chars of the hash over identity fields plus the terms hash.

    ``metadata_value`` must not contain license_id or signature; both are
    derived from this digest.
    """
    digest = canon.sha256_hex(canon.dumps(metadata_value) + link_to_terms.encode("ascii"))
    return digest[:LICENSE_ID_LENGTH]


def simulated_signature(secret_key, payload):
    return canon.sha256_hex(secret_key + payload)


class KeyRegistry:
    """Agent id to secret key mapping for simulated signatures."""

    def __init__(self):
        self._secrets = {}

    def register(self, agent_id, secret_key):
        if agent_id in self._secrets:
            raise DuplicateAgent(f"agent {agent_id!r} already registered")
        if not isinstance(secret_key, (bytes, bytearray)):
            raise TypeError("secret keys are raw bytes")
        self._secrets[agent_id] = bytes(secret_key)

    def known(self, agent_id):
        return agent_id in self._secrets

    def sign(self, agent_id, payload):
        if agent_id not in self._secrets:
            raise UnknownAgent(f"agent {agent_id!r} has no registered key")
        return simulated_signature(self._secrets[agent_id], payload)

    def verify(self, agent_id, payload, signature):
        if agent_id not in self._secrets:
            return False
        return simulated_signature(self._secrets[agent_id], payload) == signature


def _metadata_signing_bytes(metadata, link_to_terms):
    doc = metadata.to_value()
    doc.pop("signature", None)
    return canon.dumps(doc) + link_to_terms.encode("ascii")


class Ledger:
    """Append-only entry list plus the indexes derived from it.

    All indexes (committed tokens, per-session draft rounds, revocations,
    and the heights that dispute evidence is read from) are maintained
    inside the one append path, so replaying an exported entry list
    through it (``from_export``) reconstructs the same state.
    """

    def __init__(self, current_date="2024-01-01"):
        if not is_iso_date(current_date):
            raise MalformedDate(f"not a calendar date: {current_date!r}")
        self.current_date = current_date
        self.keys = KeyRegistry()
        self._entries = []
        self._tokens = {}  # license_id -> committed AgreementToken
        self._session_agreements = {}  # session_id -> license_id
        self._session_rounds = {}  # session_id -> last draft round
        self._revoked = set()
        # evidence indexes, heights in ascending order
        self._session_heights = defaultdict(list)  # payload session_id -> heights
        self._license_events = defaultdict(list)  # reputation_event license_id -> heights
        # hook(entry, canonical payload bytes), used by the simulator transcript
        self.on_append = None

    # -- chain primitives ---------------------------------------------------

    def __len__(self):
        return len(self._entries)

    @property
    def height(self):
        return len(self._entries)

    def entries(self):
        return tuple(self._entries)

    def entry(self, height):
        return self._entries[height]

    def tip_hash(self):
        return self._entries[-1].entry_hash if self._entries else GENESIS_HASH

    def append(self, kind, payload):
        return self._append(kind, payload)

    def _append(self, kind, payload, walked=None, token=None):
        """The one append path.

        ``walked`` is the chain walk's ``(encoded, payload_hash,
        entry_hash)`` for this payload at this height, so an import does
        not encode or hash it again; ``token`` is the verified token an
        ``agreement_token`` payload was built from, so its index entry is
        not parsed back out of the payload.
        """
        if kind not in ENTRY_KINDS:
            raise ParseError(f"unknown entry kind {kind!r}")
        if not isinstance(payload, dict):
            raise ParseError("payload must be a map")
        if payload.get("kind", kind) != kind:
            raise ParseError("payload kind field contradicts entry kind")
        payload = {"kind": kind, **payload}
        height = len(self._entries)
        # Parse whatever the indexes will need before touching the chain,
        # so a malformed payload cannot leave a half-applied append.
        apply_index = self._prepare_index(kind, payload, height, token)
        if walked is None:
            encoded = canon.dumps(payload)
            payload_hash = canon.sha256_hex(encoded)
            entry_hash = chain_entry_hash(self.tip_hash(), payload_hash)
        else:
            encoded, payload_hash, entry_hash = walked
        entry = LedgerEntry(
            height=height,
            kind=kind,
            payload=payload,
            payload_hash=payload_hash,
            entry_hash=entry_hash,
        )
        self._entries.append(entry)
        apply_index()
        session_id = payload.get("session_id")
        if isinstance(session_id, str):
            self._session_heights[session_id].append(height)
        if kind == "reputation_event":
            license_id = payload.get("license_id")
            if isinstance(license_id, str):
                self._license_events[license_id].append(height)
        if self.on_append is not None:
            self.on_append(entry, encoded)
        return entry

    def _prepare_index(self, kind, payload, height, token):
        try:
            if kind == "draft_token":
                session_id, round_number = payload["session_id"], payload["round"]

                def apply():
                    self._session_rounds[session_id] = round_number

            elif kind == "agreement_token":
                if token is None:
                    value = {key: item for key, item in payload.items() if key != "kind"}
                    token = token_from_value(value)
                token = replace(token, height=height)

                def apply():
                    self._tokens[token.license_id] = token
                    if token.session_id:
                        self._session_agreements[token.session_id] = token.license_id

            elif kind == "verdict" and "revokes_license_id" in payload:
                license_id = payload["revokes_license_id"]

                def apply():
                    self._revoked.add(license_id)

            else:

                def apply():
                    pass

            return apply
        except KeyError as exc:
            raise ParseError(f"{kind} payload missing field {exc.args[0]!r}") from None

    # -- agents ---------------------------------------------------------------

    def register_agent(self, agent_id, secret_key):
        self.keys.register(agent_id, secret_key)
        return self.append(
            "reputation_event", {"agent_id": agent_id, "event": "registered"}
        )

    # -- draft tokens ---------------------------------------------------------

    def next_round(self, session_id):
        return self._session_rounds.get(session_id, 0) + 1

    def mint_draft(self, session_id, round_number, proposer_id, terms):
        if not self.keys.known(proposer_id):
            raise UnknownAgent(f"unknown proposer {proposer_id!r}")
        if round_number != self.next_round(session_id):
            raise NonMonotonicRound(
                f"session {session_id!r} expects round {self.next_round(session_id)},"
                f" got {round_number}"
            )
        return self.append(
            "draft_token",
            {
                "session_id": session_id,
                "round": round_number,
                "proposer_id": proposer_id,
                "terms": terms.to_value(),
                "terms_hash": terms_hash(terms),
            },
        )

    # -- agreement tokens -------------------------------------------------------

    def _check_version_and_lineage(self, version, previous_license_id):
        if previous_license_id is None:
            if version != 1:
                raise UnknownLicense("version above 1 requires previous_license_id")
            return
        previous = self._tokens.get(previous_license_id)
        if previous is None:
            raise UnknownLicense(f"previous license {previous_license_id!r} not on ledger")
        if version != previous.metadata.version + 1:
            raise UnknownLicense(
                f"version must be {previous.metadata.version + 1} to extend"
                f" {previous_license_id!r}, got {version}"
            )

    def prepare_agreement(
        self,
        requester_id,
        issuer_id,
        terms,
        expiry_date,
        previous_license_id=None,
        session_id="",
    ):
        """Build and sign an uncommitted token; nothing touches the chain."""
        for agent_id in (requester_id, issuer_id):
            if not self.keys.known(agent_id):
                raise UnknownAgent(f"unknown agent {agent_id!r}")
        if expiry_date != PERPETUAL:
            if not is_iso_date(expiry_date):
                raise MalformedDate(f"not a calendar date: {expiry_date!r}")
            if expiry_date < self.current_date:
                raise ExpiredTerms(
                    f"expiry {expiry_date} predates ledger date {self.current_date}"
                )
        version = 1
        if previous_license_id is not None:
            previous = self._tokens.get(previous_license_id)
            if previous is None:
                raise UnknownLicense(f"previous license {previous_license_id!r} not on ledger")
            version = previous.metadata.version + 1
        digest = terms_hash(terms)
        metadata = LicenseMetadata(
            license_id="",
            issuer_id=issuer_id,
            holder_id=requester_id,
            issue_date=self.height,
            expiry_date=expiry_date,
            version=version,
            link_to_terms=digest,
            signature="",
            previous_license_id=previous_license_id,
        )
        metadata = replace(
            metadata, license_id=derive_license_id(_identity_value(metadata), digest)
        )
        signature = self.keys.sign(
            requester_id, _metadata_signing_bytes(metadata, digest)
        )
        metadata = replace(metadata, signature=signature)
        return AgreementToken(
            metadata=metadata,
            terms=terms,
            terms_hash=digest,
            requester_signature=signature,
            session_id=session_id,
            height=None,
        )

    def token_problems(self, token):
        """Content checks shared by commit and verify; empty list means sound."""
        problems = []
        md = token.metadata
        if not self.keys.known(md.issuer_id):
            problems.append("unknown issuer")
        if not self.keys.known(md.holder_id):
            problems.append("unknown holder")
        if terms_hash(token.terms) != token.terms_hash:
            problems.append("terms_hash does not match terms")
        if md.link_to_terms != token.terms_hash:
            problems.append("link_to_terms does not match terms_hash")
        if derive_license_id(_identity_value(md), md.link_to_terms) != md.license_id:
            problems.append("license_id does not match identity fields")
        if md.signature != token.requester_signature:
            problems.append("metadata signature differs from requester signature")
        if not self.keys.verify(
            md.holder_id, _metadata_signing_bytes(md, md.link_to_terms), md.signature
        ):
            problems.append("signature verification failed")
        try:
            self._check_version_and_lineage(md.version, md.previous_license_id)
        except UnknownLicense as exc:
            problems.append(str(exc))
        return problems

    def commit_agreement(self, token):
        """Append a prepared token. Raises AbortedExchange and commits
        nothing if any content check fails."""
        if token.height is not None:
            raise AbortedExchange("token already committed")
        problems = self.token_problems(token)
        if problems:
            raise AbortedExchange(f"token content verification failed: {problems[0]}")
        if token.license_id in self._tokens:
            raise AbortedExchange(f"license {token.license_id!r} already committed")
        if token.session_id and token.session_id in self._session_agreements:
            raise AbortedExchange(f"session {token.session_id!r} already has an agreement")
        self._append("agreement_token", token_to_value(token), token=token)
        return self._tokens[token.license_id]

    # -- verification -----------------------------------------------------------

    def verify_token(self, token, terms):
        """True only for a committed, untampered, unrevoked token whose
        terms hash to the linked digest."""
        try:
            if token.height is None or not (0 <= token.height < len(self._entries)):
                return False
            entry = self._entries[token.height]
            if entry.kind != "agreement_token":
                return False
            if canon.hash_value(entry.payload) != entry.payload_hash:
                return False
            recorded = {key: item for key, item in entry.payload.items() if key != "kind"}
            if recorded != token_to_value(replace(token, height=None)):
                return False
            if recorded["terms"] != terms.to_value():
                return False
            if token.license_id in self._revoked:
                return False
            return not self.token_problems(token)
        except AtcpipError:
            return False

    def token(self, license_id):
        found = self._tokens.get(license_id)
        if found is None:
            raise UnknownLicense(f"no committed license {license_id!r}")
        return found

    def session_agreement(self, session_id):
        license_id = self._session_agreements.get(session_id)
        return self._tokens[license_id] if license_id else None

    def session_entries(self, session_id):
        """Entries whose payload names ``session_id``, in height order."""
        return [self._entries[height] for height in self._session_heights.get(session_id, ())]

    def license_events(self, license_id):
        """``reputation_event`` entries whose payload names ``license_id``,
        in height order."""
        return [self._entries[height] for height in self._license_events.get(license_id, ())]

    def chain_of_ownership(self, license_id):
        """Lineage root first, ending at license_id."""
        chain = []
        seen = set()
        cursor = license_id
        while cursor is not None:
            if cursor in seen:
                raise CyclicLineage(f"lineage of {license_id!r} loops at {cursor!r}")
            seen.add(cursor)
            token = self._tokens.get(cursor)
            if token is None:
                raise UnknownLicense(f"no committed license {cursor!r}")
            chain.append(token)
            cursor = token.metadata.previous_license_id
        chain.reverse()
        return chain

    def require_intact(self):
        for _ in _walk(self._entries):
            pass

    # -- export / import ----------------------------------------------------------

    def export_entries(self):
        """Exported maps of every entry. Each ``payload`` is the live map
        the ledger holds, not a copy: editing it edits the chain, and
        ``verify_entries(ledger.entries())`` then fails."""
        return [entry.to_value() for entry in self._entries]

    @classmethod
    def from_export(cls, value, current_date="2024-01-01"):
        """Rebuild a ledger (indexes included) from an exported entry list.

        Each entry is appended with the bytes and hashes the chain walk
        computed for it. Secret keys do not travel with exports, so the
        result can verify chains and serve evidence but cannot sign or
        mint.
        """
        if not isinstance(value, list):
            raise ParseError("ledger export must be a list of entries")
        book = cls(current_date)
        steps = _walk(value)
        try:
            for kind, payload, *walked in steps:
                book._append(kind, payload, walked)
        except Exception:
            # A break anywhere in the export is reported as tampering,
            # ahead of whatever an earlier entry failed on.
            for _ in steps:
                pass
            raise
        return book


def _walk(entries):
    """Recompute the chain over LedgerEntry objects or exported maps.

    Yields ``(kind, payload, encoded, payload_hash, entry_hash)`` for each
    entry that extends the chain, ``encoded`` being the payload's
    canonical bytes and both hashes recomputed from them; raises
    TamperedLedger at the first entry that does not.
    """
    previous = GENESIS_HASH
    for position, item in enumerate(entries):
        if isinstance(item, LedgerEntry):
            height, kind, payload = item.height, item.kind, item.payload
            recorded_payload_hash, recorded_entry_hash = item.payload_hash, item.entry_hash
        elif isinstance(item, dict) and item.keys() == ENTRY_FIELDS:
            height, kind, payload = item["height"], item["kind"], item["payload"]
            recorded_payload_hash = item["payload_hash"]
            recorded_entry_hash = item["entry_hash"]
        else:
            raise TamperedLedger(f"entry {position} is not a ledger entry")
        if height != position:
            raise TamperedLedger(f"entry {position} records height {height!r}")
        if (
            not isinstance(kind, str)
            or kind not in ENTRY_KINDS
            or not isinstance(payload, dict)
            or payload.get("kind") != kind
        ):
            raise TamperedLedger(f"entry {position} has no valid kind or payload map")
        try:
            encoded = canon.dumps(payload)
        except AtcpipError:
            raise TamperedLedger(f"entry {position} payload is not canonical") from None
        payload_hash = canon.sha256_hex(encoded)
        if payload_hash != recorded_payload_hash:
            raise TamperedLedger(f"entry {position} payload hash does not match")
        entry_hash = chain_entry_hash(previous, payload_hash)
        if entry_hash != recorded_entry_hash:
            raise TamperedLedger(f"entry {position} does not extend the chain")
        previous = entry_hash
        yield kind, payload, encoded, payload_hash, entry_hash


def verify_entries(entries):
    """True when every entry extends the chain (see ``_walk``)."""
    try:
        for _ in _walk(entries):
            pass
    except TamperedLedger:
        return False
    return True
