"""Agent runtime: the agent behind both protocol state machines.

A runtime owns one agent's catalog, negotiation policy (one policy
for both roles), memory, and open sessions. A transition calls its
public decision methods (``evaluate_request``, ``answer_offer``,
``settle``, ...) directly; each one works against the shared ledger,
wallet system, and reputation board and applies its outcome through
one protocol step function, which owns the state change and queues the
outbound message on the session's outbox; no decision returns messages.
``timer_for`` tells the caller how many ticks a session's current state
waits, as the protocol's ``WAITS`` table sets it, and ``expire_timer``
ends that wait.

Each fact about a deal is read from its one home: a license this agent
issued or holds is the ledger's agreement for the session, and the
delivered content and a request's stated purpose live on the
requester's session. ``tokens`` and ``issued`` index those agreements
by content, for renewals, lineage and resale.

Only the entry points (``start_request``, ``receive_message``,
``expire_timer`` and ``decide_courtship``) hand a session to the
protocol, and a transition changes no session but its own. Each entry
point drains the outbox of every session it acted on and returns those
messages, session by session in numbering order, for the caller to put
on the wire; a message numbered before a decision raised goes out with
the rest. The runtime also notes the id of every session an entry point
acts on, and ``sessions(acted=True)`` hands the caller exactly the
sessions whose state may have changed since its last such call.

Inbound messages are deduplicated per session by sequence number. Each
body is parsed once, by its action's parser (``protocol.parse_body``),
and the transition gets the typed values. A body that does not parse is
dropped with a memory note before any session is opened or touched, and
anything a session cannot take in its current state is dropped with a
memory note too, rather than crashing the agent. Any other typed error
a decision raises in an entry point fails its session, with the error
as the reason, through the one ``_decision_failed``;
``decide_courtship`` goes on to the next session.
"""

from dataclasses import dataclass
from decimal import Decimal

from .canon import fixed4
from .errors import (
    AbortedExchange,
    AtcpipError,
    InvalidResult,
    InvalidTerms,
    ParseError,
    ProtocolViolation,
    UnknownContent,
)
from .negotiation import (
    Accept,
    Counter,
    NegotiationPolicy,
    RISK_TIERS,
    auto_accepts,
    evaluate_offer,
    revise_terms,
)
from .payments import RoyaltyObligation, SplitPlan, aggregate_obligations, compute_split
from .protocol import (
    NO_TOKEN_FAILURE,
    WAITS,
    ProviderSession,
    ProviderState,
    RequesterSession,
    SessionConfig,
    expire,
    fail,
    parse_body,
    provider_deliver,
    provider_non_ip,
    provider_propose,
    provider_revise,
    provider_transition,
    refuse,
    requester_accept,
    requester_counter,
    requester_open,
    requester_paid,
    requester_present,
    requester_transition,
)
from .terms import LicenseTerms, apply_delta, terms_hash
from .trust import check_compatibility

# Tags that make untagged-by-flag content licensable IP; anything else
# ships as a plain message with no contract.
SIGNIFICANT_TAGS = frozenset({"dataset", "style_guide", "algorithm", "personality"})

# A requester's opening offer prices a royalty point against cash using
# this weight, in micro-credits per whole royalty unit.
ROYALTY_WEIGHT = 100_000_000

STYLE_GUIDE_REV_SHARE = Decimal("0.1000")


@dataclass(frozen=True)
class MemoryRecord:
    """One line of agent memory: a free-text log or a completed deal."""

    kind: str  # "log" | "transaction"
    tick: int
    text: str = ""
    requester_id: str = ""
    content_id: str = ""
    terms_hash: str = ""
    license_id: str = ""
    acknowledged: bool = False

    def to_value(self):
        if self.kind == "log":
            return {"kind": "log", "tick": self.tick, "text": self.text}
        return {
            "kind": "transaction",
            "tick": self.tick,
            "requester_id": self.requester_id,
            "content_id": self.content_id,
            "terms_hash": self.terms_hash,
            "license_id": self.license_id,
            "acknowledged": self.acknowledged,
        }


@dataclass(frozen=True)
class CatalogItem:
    """One piece of content an agent can serve.

    ``ip_significant`` pins the IP call outright; left unset, the call
    falls back to SIGNIFICANT_TAGS. ``derived_from`` names the licensed
    content this item builds on, and ``extra_royalties`` adds negotiated
    (beneficiary, share) lines on top of whatever the upstream chain
    already collects.
    """

    content_id: str
    content: str
    tags: tuple = ()
    flags: tuple = ()
    terms: object = None
    ip_significant: object = None  # True | False | None (decide by tags)
    derived_from: str = ""
    extra_royalties: tuple = ()
    courtship: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(self, "flags", tuple(self.flags))
        object.__setattr__(
            self,
            "extra_royalties",
            tuple((beneficiary, fixed4(share)) for beneficiary, share in self.extra_royalties),
        )


class AgentRuntime:
    def __init__(
        self,
        agent_id,
        ledger,
        wallets,
        board,
        profiles,
        blocked_pairs,
        directory,
        policy=None,
        tier=None,
        config=None,
    ):
        self.agent_id = agent_id
        self.ledger = ledger
        self.wallets = wallets
        self.board = board
        self.profiles = profiles  # jurisdiction code -> JurisdictionProfile
        self.blocked_pairs = blocked_pairs  # frozensets of two codes
        self.directory = directory  # agent_id -> jurisdiction code
        self.policy = policy or NegotiationPolicy()
        self.tier = tier if tier is not None else RISK_TIERS["standard"]
        self.config = config or SessionConfig()
        self.clock = lambda: 0  # the harness points this at its tick
        self.catalog = {}
        self.tokens = {}  # content_id -> held AgreementToken
        self.issued = {}  # (content_id, holder_id) -> issued AgreementToken
        self.memory = []  # MemoryRecord, append-only
        self.on_memory = None  # hook(agent_id, record)
        self._sessions = {}
        self._ordinal = {}  # session_id -> creation order
        self._acted = set()  # ids entry points acted on since sessions(acted=True)

    # -- bookkeeping ----------------------------------------------------------

    def add_item(self, item):
        self.catalog[item.content_id] = item

    def remember(self, text):
        record = MemoryRecord(kind="log", tick=self.clock(), text=text)
        self._store(record)
        return record

    def _store(self, record):
        self.memory.append(record)
        if self.on_memory is not None:
            self.on_memory(self.agent_id, record)

    def memory_texts(self):
        return [record.text for record in self.memory if record.kind == "log"]

    def is_ip_significant(self, content_id):
        item = self._require_item(content_id)
        if item.ip_significant is not None:
            return bool(item.ip_significant)
        return bool(SIGNIFICANT_TAGS.intersection(item.tags))

    def session(self, session_id):
        return self._sessions[session_id]

    def has_session(self, session_id):
        return session_id in self._sessions

    def sessions(self, acted=False):
        """Sessions by id, in creation order.

        Every session this agent has opened, or with ``acted`` only those
        an entry point has acted on since the last ``acted`` call, which
        this call forgets. The rest are in the state that call saw.
        """
        if not acted:
            return dict(self._sessions)
        ids = sorted(self._acted, key=self._ordinal.__getitem__)
        self._acted.clear()
        return {session_id: self._sessions[session_id] for session_id in ids}

    def timer_for(self, session_id):
        """Ticks the current state waits, or None when it waits on nothing."""
        session = self._sessions[session_id]
        wait = WAITS.get(session.state)
        return None if wait is None else getattr(session.config, wait[0])

    # -- entry points ---------------------------------------------------------

    def start_request(self, session_id, provider_id, content_id, offer=None, purpose=""):
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already open")
        session = RequesterSession(
            session_id=session_id,
            requester_id=self.agent_id,
            provider_id=provider_id,
            config=self.config,
            purpose=purpose,
        )
        self._open(session)
        self._acted.add(session_id)
        requester_open(session, content_id, self.directory.get(self.agent_id), offer)
        return session.drain()

    def receive_message(self, message):
        if message.recipient != self.agent_id:
            raise ValueError(f"message for {message.recipient!r} routed to {self.agent_id!r}")
        session = self._sessions.get(message.session_id)
        try:
            body = parse_body(message.action, message.body)
        except ParseError as exc:
            self.remember(f"Dropped malformed message in session {message.session_id}: {exc}")
            return []
        if session is None:
            if message.action != "request_info":
                self.remember(f"Dropped {message.action} for unknown session {message.session_id}.")
                return []
            session = ProviderSession(
                session_id=message.session_id,
                provider_id=self.agent_id,
                requester_id=message.sender,
                config=self.config,
            )
            self._open(session)
        self._acted.add(session.session_id)
        if message.seq <= session.last_seq_seen:
            self.remember(
                f"Dropped replayed {message.action} seq {message.seq}"
                f" in session {message.session_id}."
            )
            return []
        transition = provider_transition if session.role == "provider" else requester_transition
        if self._apply(session, transition, message.action, body):
            session.last_seq_seen = message.seq
        return session.drain()

    def expire_timer(self, session_id):
        session = self._sessions[session_id]
        self._acted.add(session_id)
        if not session.terminal():
            self._apply(session, expire)
        return session.drain()

    def _apply(self, session, protocol_call, *args):
        """Hand ``session`` to the protocol. A violation is only noted
        (False); any other typed error goes to ``_decision_failed``."""
        try:
            protocol_call(session, *args, self)
        except ProtocolViolation as exc:
            self.remember(f"Protocol violation: {exc}")
            return False
        except AtcpipError as exc:
            self._decision_failed(session, exc)
        return True

    def _decision_failed(self, session, exc):
        """Fail the session a decision raised in, unless it is closed already."""
        if session.terminal():
            self.remember(f"Error after session {session.session_id} closed: {exc}")
        else:
            fail(session, self, str(exc))

    def _open(self, session):
        self._ordinal[session.session_id] = len(self._sessions)
        self._sessions[session.session_id] = session

    # -- courtship ------------------------------------------------------------

    def decide_courtship(self, content_id):
        """Pick the best standing offer for the item; reject the rest.

        The standing offers are this agent's sessions held in
        ``evaluating`` for the item, in creation order. Offer utility is
        upfront_fee plus royalty_rate weighted into micro-credits; ties go
        to the lexicographically smallest agent.
        """
        live = [
            session
            for session in self._sessions.values()
            if session.state is ProviderState.EVALUATING and session.content_id == content_id
        ]
        if not live:
            return []
        item = self._require_item(content_id)

        def utility(session):
            fee, rate = session.offer.get("upfront_fee", 0), session.offer.get("royalty_rate", 0)
            return Decimal(fee) + rate * ROYALTY_WEIGHT

        winner = live[0]
        for session in live[1:]:
            best, contender = utility(winner), utility(session)
            if contender > best or (contender == best and session.requester_id < winner.requester_id):
                winner = session
        self._acted.update(session.session_id for session in live)
        for session in live:
            try:
                if session is winner:
                    self._propose(item, session)
                else:
                    refuse(session, "another offer was selected")
            except AtcpipError as exc:
                self._decision_failed(session, exc)
        return [message for session in live for message in session.drain()]

    # -- downstream sales -------------------------------------------------------

    def sell(self, content_id, buyer_id, price, session_id=""):
        """Sell a derived work: upstream rev shares plus the item's own
        negotiated royalty lines, remainder to this agent."""
        item = self._require_item(content_id)
        held = self.tokens.get(item.derived_from) if item.derived_from else None
        license_id = held.license_id if held is not None else None
        obligations = self._royalty_obligations(item, license_id, "downstream_sale")
        plan = compute_split(price, self.agent_id, obligations)
        self.wallets.settle(buyer_id, plan, purpose="downstream_sale", session_id=session_id)
        self.remember(f"Sold {content_id} for {price}; split across {len(plan.lines)} parties.")
        return plan

    # -- provider decisions ------------------------------------------------------

    def evaluate_request(self, session):
        """Refuse the request, ship non-IP content, hold the session for
        courtship, or propose opening terms."""
        item = self.catalog.get(session.content_id)
        if item is None:
            refuse(session, f"no such content: {session.content_id}")
            return
        barred = self._gate(session, item)
        if barred:
            refuse(session, barred)
        elif not self.is_ip_significant(item.content_id):
            provider_non_ip(session, self, item.content)
        elif not item.courtship:  # a courtship request waits in evaluating
            self._propose(item, session)

    def _gate(self, session, item):
        """Why the parties may not deal over ``item``, or ``""``."""
        provider_code = self.directory.get(self.agent_id)
        requester_code = session.jurisdiction or self.directory.get(session.requester_id)
        if provider_code is None or requester_code is None:
            return "jurisdiction unknown for one of the parties"
        for code in (requester_code, provider_code):
            if code not in self.profiles:
                return f"no profile for jurisdiction {code!r}"
        opening = self._opening_terms(item, {})
        return check_compatibility(
            self.blocked_pairs,
            self.profiles[requester_code],
            self.profiles[provider_code],
            item.flags,
            terms=opening,
        )

    def _opening_terms(self, item, offer):
        if item.terms is not None:
            terms = item.terms
        else:
            terms = LicenseTerms(name=item.content_id)
            if "style_guide" in item.tags:
                terms = terms.replace(upfront_fee=0, rev_share=STYLE_GUIDE_REV_SHARE)
        return terms.replace(**offer) if offer else terms

    def _propose(self, item, session):
        try:
            terms = self._opening_terms(item, session.offer)
        except InvalidTerms as exc:
            refuse(session, f"terms invalid: {exc.violations[0].reason}")
            return
        previous_license_id = self._previous_license_id(item, session.requester_id)
        provider_propose(session, self, terms, previous_license_id)

    def _previous_license_id(self, item, requester_id):
        """Renewals chain onto the last license issued to the same holder;
        derived works chain onto the license this agent holds upstream."""
        renewal = self.issued.get((item.content_id, requester_id))
        if renewal is not None:
            return renewal.license_id
        if item.derived_from:
            held = self.tokens.get(item.derived_from)
            if held is not None:
                return held.license_id
        return None

    def mint_draft(self, session, terms):
        self.ledger.mint_draft(session.session_id, self.agent_id, terms)

    def evaluate_counter(self, session, delta):
        """Take the counter as it stands when the risk tier allows it,
        otherwise revise toward it or refuse once the budget is spent. A
        counter whose terms do not build is answered with the standing
        offer."""
        try:
            countered = apply_delta(session.terms, delta)
        except InvalidResult:
            countered = None
        if countered is not None and auto_accepts(self.tier, session.terms, countered):
            revised = countered
        else:
            if session.revisions_used >= self.policy.max_rounds:
                refuse(session, "negotiation budget exhausted")
                return
            session.revisions_used += 1
            if countered is None:
                revised = session.terms
            else:
                revised = revise_terms(self.policy, session.terms, countered)
        echo = revised == countered or revised == session.terms
        provider_revise(session, self, revised, echo)

    def payment_plan(self, session):
        """SplitPlan for the agreed fee: upstream royalties first."""
        item = self._require_item(session.content_id)
        obligations = self._royalty_obligations(item, session.previous_license_id, "sublicense")
        return compute_split(session.terms.upfront_fee, self.agent_id, obligations)

    def _royalty_obligations(self, item, license_id, event):
        """What ``event`` owes along the lineage ending at ``license_id``
        (none without one), then the item's own extra royalty lines."""
        obligations = []
        if license_id is not None:
            lineage = self.ledger.chain_of_ownership(license_id)
            obligations.extend(aggregate_obligations(lineage, event))
        obligations.extend(
            RoyaltyObligation(beneficiary=beneficiary, share=share)
            for beneficiary, share in item.extra_royalties
        )
        return obligations

    def atomic_exchange(self, session, token):
        """Commit the requester's token and deliver, or abort the session.

        The token must be the one the agreed terms make: between these
        parties, for this session and lineage, on these terms, expiring
        when they end, and issued at a height between the session's last
        draft and now."""
        metadata = token.metadata
        fits = (
            metadata.issuer_id == session.provider_id
            and metadata.holder_id == session.requester_id
            and token.session_id == session.session_id
            and metadata.previous_license_id == session.previous_license_id
            and token.terms_hash == terms_hash(session.terms)
            and metadata.expiry_date == session.terms.duration
            and self._last_draft_height(session) <= metadata.issue_date <= self.ledger.height
        )
        try:
            committed = self.ledger.commit_agreement(token) if fits else None
        except AbortedExchange:
            committed = None
        if committed is None:
            fail(session, self, NO_TOKEN_FAILURE)
        else:
            item = self._require_item(session.content_id)
            provider_deliver(session, self, committed, item.content)

    def _last_draft_height(self, session):
        entries = self.ledger.entries_with("session_id", session.session_id)
        return max((e.height for e in entries if e.kind == "draft_token"), default=0)

    def record_issue(self, session):
        token = self.ledger.session_agreement(session.session_id)
        self.issued[(session.content_id, session.requester_id)] = token
        self.remember(f"License issued: {token.license_id}")
        self._store(
            MemoryRecord(
                kind="transaction",
                tick=self.clock(),
                requester_id=session.requester_id,
                content_id=session.content_id,
                terms_hash=terms_hash(session.terms),
                license_id=token.license_id,
                acknowledged=session.acknowledged,
            )
        )
        self.board.record_outcome(self.agent_id, "deal_completed")

    # -- requester decisions -----------------------------------------------------

    def record_license(self, session):
        token = self.ledger.session_agreement(session.session_id)
        self.tokens[session.content_id] = token
        self.remember(f"License token accepted: {token.license_id}")
        self._store(
            MemoryRecord(
                kind="transaction",
                tick=self.clock(),
                requester_id=self.agent_id,
                content_id=session.content_id,
                terms_hash=terms_hash(session.terms),
                license_id=token.license_id,
                acknowledged=session.config.ack_required,
            )
        )
        if session.purpose == "fine_tuning":
            self.remember(f"fine_tuned_on:{session.content_id}")
        self.board.record_outcome(self.agent_id, "deal_completed")

    def answer_offer(self, session):
        """Accept, counter, or refuse the offered terms; a counter past the
        budget, or one whose terms do not build, is a refusal."""
        terms = session.terms
        decision = evaluate_offer(self.policy, terms)
        if isinstance(decision, Accept):
            requester_accept(session, self)
        elif not isinstance(decision, Counter):
            refuse(session, decision.reason)
        elif session.counters_used >= self.policy.max_rounds:
            refuse(session, "negotiation budget exhausted")
        else:
            try:
                countered = apply_delta(terms, decision.delta)
            except InvalidResult as exc:
                refuse(session, f"own counter does not build: {exc}")
                return
            requester_counter(session, self, decision.delta.to_value(), countered)

    def settle(self, session, amount, split):
        """Pay the provider's split, its ``(payee, amount)`` lines, from
        this agent's wallet."""
        plan = SplitPlan(price=amount, lines=split)
        self.wallets.settle(
            self.agent_id, plan, purpose="license_fee", session_id=session.session_id
        )
        requester_paid(session, self, plan.price)

    def prepare_token(self, session):
        terms = session.terms
        token = self.ledger.prepare_agreement(
            self.agent_id,
            session.provider_id,
            terms,
            terms.duration,
            previous_license_id=session.previous_license_id,
            session_id=session.session_id,
        )
        requester_present(session, token)

    def _require_item(self, content_id):
        item = self.catalog.get(content_id)
        if item is None:
            raise UnknownContent(f"no catalog item {content_id!r}")
        return item
