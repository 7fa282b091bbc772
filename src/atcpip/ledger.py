"""Simulated append-only ledger.

A hash chain over canonical payloads stands in for a real chain:
``entry_hash = sha256(previous_entry_hash_hex + payload_hash_hex)`` with
sixty-four zeros before entry zero. Signatures are simulated the same
way (sha256 over secret key bytes plus payload bytes); the point is
tamper evidence and replayability, not cryptographic strength.

Agreement tokens are minted in two steps so the token/delivery exchange
can be atomic: ``prepare_agreement`` builds and signs an uncommitted
token, ``commit_agreement`` re-verifies everything and appends. A token
is only ever valid if its entry is on an intact chain. Both steps use
the same three derivations: ``metadata_license_id`` (the first 32 hex
characters of sha256 over the canonical identity map, the metadata
without ``license_id`` and ``signature``, plus the terms hash),
``metadata_signature`` (sha256 over the holder's key, the canonical
metadata without its signature, and the terms hash) and
``Ledger._next_version`` (1, or one past the previous license's). A
chain holds at most one agreement per session and per license id, on
append and on import alike.

An entry is sealed: it keeps the canonical payload bytes it was hashed
from, and every read of its ``payload`` decodes a fresh map from them,
so no map a reader or an export holds can edit the chain. Rehashing the
chain hashes those stored bytes.
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
# Payload fields the ledger indexes entries by, when their value is a string.
NAMED_FIELDS = ("session_id", "license_id", "dispute_id", "revokes_license_id")


class _Decoded:
    """``LedgerEntry.payload``: each read decodes a fresh map from the
    entry's stored bytes. A non-data descriptor, so a payload object set
    on the entry itself (which the frozen dataclass refuses short of
    ``object.__setattr__``) is read instead, and ``_walk`` encodes it."""

    def __get__(self, entry, owner=None):
        return self if entry is None else canon.loads(entry.encoded)


@dataclass(frozen=True)
class LedgerEntry:
    height: int
    kind: str
    encoded: bytes  # canonical bytes of the payload map, which carries its own "kind"
    payload_hash: str
    entry_hash: str

    payload = _Decoded()

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


# Each metadata field's exact type; only previous_license_id may be absent.
METADATA_TYPES = {
    "license_id": str,
    "issuer_id": str,
    "holder_id": str,
    "issue_date": int,
    "expiry_date": str,
    "version": int,
    "link_to_terms": str,
    "signature": str,
    "previous_license_id": str,
}
METADATA_REQUIRED = frozenset(METADATA_TYPES) - {"previous_license_id"}


def metadata_from_value(value):
    if not isinstance(value, dict):
        raise ParseError("license metadata must be a map")
    keys = value.keys()
    if not METADATA_REQUIRED <= keys:
        raise ParseError(f"missing metadata field {sorted(METADATA_REQUIRED - keys)[0]!r}")
    if not keys <= METADATA_TYPES.keys():
        raise ParseError(f"unknown metadata field {sorted(keys - METADATA_TYPES.keys())[0]!r}")
    for name, item in value.items():
        if type(item) is not METADATA_TYPES[name]:
            what = "a string" if METADATA_TYPES[name] is str else "an integer"
            raise ParseError(f"metadata {name} must be {what}")
    return LicenseMetadata(**value)


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
    """Wire form of an agreement token; height only once committed. The
    terms are their canonical text, spliced where the token is encoded."""
    out = {
        "metadata": token.metadata.to_value(),
        "terms": token.terms.canonical,
        "terms_hash": token.terms_hash,
        "requester_signature": token.requester_signature,
        "session_id": token.session_id,
    }
    if token.height is not None:
        out["height"] = token.height
    return out


def token_from_value(value, held=()):
    """Parse a token map; its terms are one of ``held`` when their text
    is that object's (see ``terms_from_value``)."""
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
        terms=terms_from_value(value["terms"], held),
        terms_hash=value["terms_hash"],
        requester_signature=value["requester_signature"],
        session_id=value["session_id"],
        height=height,
    )


def chain_entry_hash(previous_hash, payload_hash):
    return canon.sha256_hex((previous_hash + payload_hash).encode("ascii"))


def metadata_license_id(metadata):
    """First 32 hex chars of the hash over the canonical identity map
    (the metadata without license_id and signature) plus the terms hash."""
    identity = metadata.to_value()
    del identity["license_id"], identity["signature"]
    digest = canon.sha256_hex(canon.dumps(identity) + metadata.link_to_terms.encode("ascii"))
    return digest[:LICENSE_ID_LENGTH]


def metadata_signature(secret_key, metadata):
    """The holder's simulated signature: the hash over its secret key, the
    canonical metadata without its signature, and the terms hash."""
    signed = metadata.to_value()
    del signed["signature"]
    return canon.sha256_hex(
        secret_key + canon.dumps(signed) + metadata.link_to_terms.encode("ascii")
    )


class Ledger:
    """Append-only list of sealed entries plus the indexes derived from it.

    The committed tokens by license id and by height, and the heights of
    the entries by each ``NAMED_FIELDS`` value, are maintained inside the
    one append path, so replaying an exported entry list through it
    (``from_export``) reconstructs the same state. Everything else is
    read back from the chain through the heights index: a session's
    agreement and the round of its next draft, a license's revocation,
    and the disputes, verdicts and reputation the court and the
    reputation board use. None of those reads on the simulator's path
    decodes a payload.
    """

    def __init__(self, current_date="2024-01-01"):
        if not is_iso_date(current_date):
            raise MalformedDate(f"not a calendar date: {current_date!r}")
        self.current_date = current_date
        self._secrets = {}  # agent_id -> secret key bytes
        self._entries = []
        self._tokens = {}  # license_id -> committed AgreementToken
        self._agreements = {}  # height of its agreement_token entry -> the same token
        # payload field -> string value -> heights, ascending
        self._named = {name: defaultdict(list) for name in NAMED_FIELDS}
        # hook(entry, payload map, canonical payload bytes), used by the
        # simulator transcript; the map is the hook's own to read
        self.on_append = None

    # -- chain primitives ---------------------------------------------------

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
        # Parse whatever is read back by key before touching the chain,
        # so a malformed payload cannot leave a half-applied append.
        token = _indexed_token(kind, payload, height, token)
        if token is not None:
            if token.license_id in self._tokens:
                raise ParseError(f"license {token.license_id!r} already committed")
            if self.session_agreement(token.session_id) is not None:
                raise ParseError(f"session {token.session_id!r} already has an agreement")
        if walked is None:
            encoded = canon.dumps(payload)
            payload_hash = canon.sha256_hex(encoded)
            entry_hash = chain_entry_hash(self.tip_hash(), payload_hash)
        else:
            encoded, payload_hash, entry_hash = walked
        entry = LedgerEntry(
            height=height,
            kind=kind,
            encoded=encoded,
            payload_hash=payload_hash,
            entry_hash=entry_hash,
        )
        self._entries.append(entry)
        if token is not None:
            self._tokens[token.license_id] = token
            self._agreements[height] = token
        for name, index in self._named.items():
            value = payload.get(name)
            if isinstance(value, str):
                index[value].append(height)
        if self.on_append is not None:
            self.on_append(entry, payload, encoded)
        return entry

    # -- agents ---------------------------------------------------------------

    def register_agent(self, agent_id, secret_key):
        if agent_id in self._secrets:
            raise DuplicateAgent(f"agent {agent_id!r} already registered")
        if not isinstance(secret_key, (bytes, bytearray)):
            raise TypeError("secret keys are raw bytes")
        self._secrets[agent_id] = bytes(secret_key)
        return self.append(
            "reputation_event", {"agent_id": agent_id, "event": "registered"}
        )

    # -- draft tokens ---------------------------------------------------------

    def mint_draft(self, session_id, proposer_id, terms):
        """Append the session's next draft; a session's drafts are
        numbered 1, 2, 3, ... in the order they are minted, so the next
        round is one past the number of drafts the session has."""
        if proposer_id not in self._secrets:
            raise UnknownAgent(f"unknown proposer {proposer_id!r}")
        drafts = sum(e.kind == "draft_token" for e in self.entries_with("session_id", session_id))
        return self.append(
            "draft_token",
            {
                "session_id": session_id,
                "round": drafts + 1,
                "proposer_id": proposer_id,
                "terms": terms.canonical,
                "terms_hash": terms_hash(terms),
            },
        )

    # -- agreement tokens -------------------------------------------------------

    def _next_version(self, previous_license_id):
        """The version a license extending ``previous_license_id`` takes:
        1 without one, else one past the committed previous license's."""
        if previous_license_id is None:
            return 1
        previous = self._tokens.get(previous_license_id)
        if previous is None:
            raise UnknownLicense(f"previous license {previous_license_id!r} not on ledger")
        return previous.metadata.version + 1

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
            if agent_id not in self._secrets:
                raise UnknownAgent(f"unknown agent {agent_id!r}")
        if expiry_date != PERPETUAL:
            if not is_iso_date(expiry_date):
                raise MalformedDate(f"not a calendar date: {expiry_date!r}")
            if expiry_date < self.current_date:
                raise ExpiredTerms(
                    f"expiry {expiry_date} predates ledger date {self.current_date}"
                )
        digest = terms_hash(terms)
        metadata = LicenseMetadata(
            license_id="",
            issuer_id=issuer_id,
            holder_id=requester_id,
            issue_date=self.height,
            expiry_date=expiry_date,
            version=self._next_version(previous_license_id),
            link_to_terms=digest,
            signature="",
            previous_license_id=previous_license_id,
        )
        metadata = replace(metadata, license_id=metadata_license_id(metadata))
        signature = metadata_signature(self._secrets[requester_id], metadata)
        return AgreementToken(
            metadata=replace(metadata, signature=signature),
            terms=terms,
            terms_hash=digest,
            requester_signature=signature,
            session_id=session_id,
        )

    def token_problems(self, token):
        """Content checks shared by commit and verify; empty list means sound."""
        problems = []
        md = token.metadata
        if md.issuer_id not in self._secrets:
            problems.append("unknown issuer")
        if md.holder_id not in self._secrets:
            problems.append("unknown holder")
        if terms_hash(token.terms) != token.terms_hash:
            problems.append("terms_hash does not match terms")
        if md.link_to_terms != token.terms_hash:
            problems.append("link_to_terms does not match terms_hash")
        if metadata_license_id(md) != md.license_id:
            problems.append("license_id does not match identity fields")
        if md.signature != token.requester_signature:
            problems.append("metadata signature differs from requester signature")
        secret = self._secrets.get(md.holder_id)
        if secret is None or md.signature != metadata_signature(secret, md):
            problems.append("signature verification failed")
        try:
            version = self._next_version(md.previous_license_id)
        except UnknownLicense as exc:
            problems.append(str(exc))
        else:
            if md.version != version:
                problems.append(f"version must be {version}, got {md.version}")
        return problems

    def commit_agreement(self, token):
        """Append a prepared token. Raises AbortedExchange and commits
        nothing if any content check fails, or if the append refuses a
        second agreement for its session or license id."""
        if token.height is not None:
            raise AbortedExchange("token already committed")
        problems = self.token_problems(token)
        if problems:
            raise AbortedExchange(f"token content verification failed: {problems[0]}")
        try:
            self._append("agreement_token", token_to_value(token), token=token)
        except ParseError as exc:
            raise AbortedExchange(str(exc)) from None
        return self._tokens[token.license_id]

    # -- verification -----------------------------------------------------------

    def verify_token(self, token, terms):
        """True only for a committed, untampered, unrevoked token whose
        terms hash to the linked digest and are ``terms``, byte for byte."""
        try:
            if token.height is None or not (0 <= token.height < len(self._entries)):
                return False
            entry = self._entries[token.height]
            if entry.kind != "agreement_token":
                return False
            encoded = _entry_bytes(entry)
            if canon.sha256_hex(encoded) != entry.payload_hash:
                return False
            recorded = {"kind": entry.kind, **token_to_value(replace(token, height=None))}
            if canon.dumps(recorded) != encoded:
                return False
            if recorded["terms"] != terms.canonical:
                return False
            if self._last("verdict", "revokes_license_id", token.license_id) is not None:
                return False
            return not self.token_problems(token)
        except AtcpipError:
            return False

    def session_agreement(self, session_id):
        """The session's committed agreement; session id ``""`` has none."""
        heights = self._named["session_id"].get(session_id, ()) if session_id else ()
        return next((self._agreements[h] for h in heights if h in self._agreements), None)

    def entries_with(self, name, value):
        """Entries whose payload maps ``name`` (one of ``NAMED_FIELDS``)
        to the string ``value``, in height order."""
        return [self._entries[height] for height in self._named[name].get(value, ())]

    def _last(self, kind, name, value):
        """The last ``kind`` entry of ``entries_with(name, value)``, or None."""
        return next((e for e in reversed(self.entries_with(name, value)) if e.kind == kind), None)

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
        """Rehash the whole chain from the stored bytes; raises
        TamperedLedger at the first entry that does not extend it."""
        for _ in _walk(self._entries):
            pass

    # -- export / import ----------------------------------------------------------

    def export_entries(self):
        """Exported maps of every entry, each a copy: its ``payload`` is
        decoded from the stored bytes, so editing an export leaves the
        chain as it was (and the edited export fails ``verify_entries``).

        Every payload comes out of one ``canon.loads`` of the spliced
        bytes, which shares the key strings across entries.
        """
        encoded = b"[" + b",".join(entry.encoded for entry in self._entries) + b"]"
        return self._export(canon.loads(encoded))

    def export_bytes(self):
        """``canon.dumps(self.export_entries())``, built around each
        entry's stored payload bytes, which are not decoded and encoded
        again."""
        texts = (canon.Canonical(entry.encoded.decode("utf-8")) for entry in self._entries)
        return canon.dumps(self._export(texts))

    def _export(self, payloads):
        """The exported map of each entry, holding its payload from
        ``payloads``, in height order."""
        return [
            {
                "height": entry.height,
                "kind": entry.kind,
                "payload": payload,
                "payload_hash": entry.payload_hash,
                "entry_hash": entry.entry_hash,
            }
            for entry, payload in zip(self._entries, payloads)
        ]

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


def _indexed_token(kind, payload, height, token):
    """Check the payload fields the ledger reads back by key; returns the
    committed token an ``agreement_token`` payload holds, else None."""
    try:
        if kind == "draft_token":
            _index_key(kind, "session_id", payload["session_id"])
            if "round" not in payload:
                raise KeyError("round")
        elif kind == "agreement_token":
            if token is None:
                value = {key: item for key, item in payload.items() if key != "kind"}
                token = token_from_value(value)
            token = replace(token, height=height)
            _index_key(kind, "license_id", token.license_id)
            _index_key(kind, "session_id", token.session_id)
            return token
        elif kind == "verdict" and "revokes_license_id" in payload:
            _index_key(kind, "revokes_license_id", payload["revokes_license_id"])
        return None
    except KeyError as exc:
        raise ParseError(f"{kind} payload missing field {exc.args[0]!r}") from None


def _index_key(kind, name, key):
    """A payload value the ledger indexes by; only a string can be one."""
    if not isinstance(key, str):
        raise ParseError(f"{kind} {name} must be a string")


def _entry_bytes(entry):
    """The canonical payload bytes of a LedgerEntry: the stored ones, or
    the encoding of a payload object set on the entry after append."""
    if "payload" in vars(entry):
        return canon.dumps(entry.payload)
    return entry.encoded


def _walk(entries):
    """Recompute the chain over LedgerEntry objects or exported maps.

    Yields ``(kind, payload, encoded, payload_hash, entry_hash)`` for each
    entry that extends the chain, ``encoded`` being the payload's
    canonical bytes and both hashes recomputed from them; raises
    TamperedLedger at the first entry that does not. A LedgerEntry is
    hashed from its stored bytes and yields no payload map (``None``),
    unless a payload object of its own was set on it: that one is
    checked and encoded as an exported map's is.
    """
    previous = GENESIS_HASH
    for position, item in enumerate(entries):
        if isinstance(item, LedgerEntry):
            height, kind = item.height, item.kind
            if "payload" in vars(item):
                payload, encoded = item.payload, None
            else:
                payload, encoded = None, item.encoded
            recorded_payload_hash, recorded_entry_hash = item.payload_hash, item.entry_hash
        elif isinstance(item, dict) and item.keys() == ENTRY_FIELDS:
            height, kind, payload = item["height"], item["kind"], item["payload"]
            # A LedgerEntry's height is the int its ledger gave it; a map's is
            # what was parsed, and True or 1.0000 compares equal to 1.
            if type(height) is not int:
                raise TamperedLedger(f"entry {position} records height {height!r}")
            encoded = None
            recorded_payload_hash = item["payload_hash"]
            recorded_entry_hash = item["entry_hash"]
        else:
            raise TamperedLedger(f"entry {position} is not a ledger entry")
        if height != position:
            raise TamperedLedger(f"entry {position} records height {height!r}")
        if not isinstance(kind, str) or kind not in ENTRY_KINDS:
            raise TamperedLedger(f"entry {position} has no valid kind or payload map")
        if encoded is None:
            if not isinstance(payload, dict) or payload.get("kind") != kind:
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
