"""Agent runtime: executes the side effects the state machines request.

A runtime owns one agent's catalog, negotiation policy (one policy
for both roles), memory, and open sessions. Transitions stay pure;
every Command they emit is handled here against the shared ledger,
wallet system, and reputation board, and the outcome goes straight
back into the machine as an InternalDecision at the same tick. Entry
points return the outbound messages the caller must put on the wire.

Inbound messages are deduplicated per session by sequence number, and
anything a session cannot take in its current state is dropped with a
memory note rather than crashing the agent.
"""

from collections import deque
from dataclasses import dataclass
from decimal import Decimal

from .canon import fixed4
from .errors import (
    AbortedExchange,
    AtcpipError,
    ParseError,
    ProtocolViolation,
    UnknownContent,
)
from .ledger import token_from_value
from .negotiation import (
    Accept,
    ArbiterDecision,
    Counter,
    NegotiationPolicy,
    RISK_TIERS,
    arbiter_decide,
    evaluate_offer,
    revise_terms,
)
from .payments import RoyaltyObligation, SplitPlan, aggregate_obligations, compute_split
from .protocol import (
    InternalDecision,
    PROVIDER_TIMERS,
    ProtocolMessage,
    ProviderSession,
    REQUESTER_TIMERS,
    RequesterSession,
    SessionConfig,
    TimerExpired,
    provider_transition,
    requester_transition,
)
from .terms import LicenseTerms, apply_delta, delta_from_value, terms_hash, validate
from .trust import GateDecision, check_compatibility

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
        registry,
        rules,
        directory,
        policy=None,
        tier=None,
        config=None,
    ):
        self.agent_id = agent_id
        self.ledger = ledger
        self.wallets = wallets
        self.board = board
        self.registry = registry
        self.rules = rules
        self.directory = directory  # agent_id -> jurisdiction code
        self.policy = policy or NegotiationPolicy()
        self.tier = tier if tier is not None else RISK_TIERS["standard"]
        self.config = config or SessionConfig()
        self.clock = lambda: 0  # the harness points this at its tick
        self.catalog = {}
        self.tokens = {}  # content_id -> held AgreementToken
        self.issued = {}  # (content_id, holder_id) -> issued AgreementToken
        self.inventory = {}  # content_id -> {"content", "licensed"}
        self.memory = []  # MemoryRecord, append-only
        self.on_memory = None  # hook(agent_id, record)
        self._sessions = {}
        self._courtship = {}  # content_id -> [session_id, ...]
        self._purposes = {}  # session_id -> stated purpose of the request

    # -- bookkeeping ----------------------------------------------------------

    def add_item(self, item):
        if item.terms is not None:
            report = validate(item.terms)
            if report:
                raise ValueError(f"catalog terms for {item.content_id!r} invalid: {report}")
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

    def transaction_records(self):
        return [record for record in self.memory if record.kind == "transaction"]

    def is_ip_significant(self, content_id):
        item = self._require_item(content_id)
        if item.ip_significant is not None:
            return bool(item.ip_significant)
        return bool(SIGNIFICANT_TAGS.intersection(item.tags))

    def session(self, session_id):
        return self._sessions[session_id]

    def has_session(self, session_id):
        return session_id in self._sessions

    def sessions(self):
        return dict(self._sessions)

    def timer_for(self, session_id):
        """(kind, ticks) the current state waits on, or None."""
        session = self._sessions[session_id]
        table = PROVIDER_TIMERS if session.role == "provider" else REQUESTER_TIMERS
        spec = table.get(session.state)
        if spec is None:
            return None
        kind, attr = spec
        return kind, getattr(session.config, attr)

    # -- entry points ---------------------------------------------------------

    def start_request(self, session_id, provider_id, content_id, offer=None, purpose=""):
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already open")
        session = RequesterSession(
            session_id=session_id,
            requester_id=self.agent_id,
            provider_id=provider_id,
            config=self.config,
        )
        self._sessions[session_id] = session
        if purpose:
            self._purposes[session_id] = purpose
        data = {"content_id": content_id}
        if offer:
            data["offer"] = dict(offer)
        jurisdiction = self.directory.get(self.agent_id)
        if jurisdiction:
            data["jurisdiction"] = jurisdiction
        return self._dispatch(session, InternalDecision("start", data))

    def receive_message(self, message):
        if message.recipient != self.agent_id:
            raise ValueError(f"message for {message.recipient!r} routed to {self.agent_id!r}")
        session = self._sessions.get(message.session_id)
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
            self._sessions[message.session_id] = session
        if message.seq <= session.last_seq_seen:
            self.remember(
                f"Dropped replayed {message.action} seq {message.seq}"
                f" in session {message.session_id}."
            )
            return []
        try:
            outbound = self._dispatch(session, message)
        except ProtocolViolation as exc:
            self.remember(f"Protocol violation: {exc}")
            return []
        session.last_seq_seen = message.seq
        return outbound

    def expire_timer(self, session_id, kind):
        session = self._sessions[session_id]
        if session.terminal():
            return []
        try:
            return self._dispatch(session, TimerExpired(kind))
        except ProtocolViolation as exc:
            self.remember(f"Protocol violation: {exc}")
            return []

    # -- courtship ------------------------------------------------------------

    def decide_courtship(self, content_id):
        """Pick the best standing offer for the item; reject the rest.

        Offer utility is upfront_fee plus royalty_rate weighted into
        micro-credits; ties go to the lexicographically smallest agent.
        """
        waiting = self._courtship.pop(content_id, [])
        live = [
            self._sessions[session_id]
            for session_id in waiting
            if not self._sessions[session_id].terminal()
        ]
        if not live:
            return []
        item = self._require_item(content_id)

        def utility(session):
            offer = session.request_body.get("offer", {})
            value = Decimal(offer.get("upfront_fee", 0))
            royalty = offer.get("royalty_rate")
            if royalty is not None:
                value += fixed4(royalty) * ROYALTY_WEIGHT
            return value

        winner = live[0]
        for session in live[1:]:
            best, contender = utility(winner), utility(session)
            if contender > best or (contender == best and session.requester_id < winner.requester_id):
                winner = session
        outbound = []
        for session in live:
            if session is winner:
                offer = session.request_body.get("offer", {})
                decision = self._propose_decision(item, session, offer)
            else:
                decision = InternalDecision("gate_fail", {"reason": "another offer was selected"})
            outbound.extend(self._dispatch(session, decision))
        return outbound

    # -- downstream sales -------------------------------------------------------

    def sale_plan(self, content_id, price):
        """Split for selling a derived work: upstream rev shares plus the
        item's own negotiated royalty lines, remainder to this agent."""
        item = self._require_item(content_id)
        obligations = list(self._derivation_obligations(item, "downstream_sale"))
        return compute_split(price, self.agent_id, obligations)

    def sell(self, content_id, buyer_id, price, session_id=""):
        plan = self.sale_plan(content_id, price)
        self.wallets.settle(buyer_id, plan, purpose="downstream_sale", session_id=session_id)
        self.remember(f"Sold {content_id} for {price}; split across {len(plan.lines)} parties.")
        return plan

    # -- command execution ------------------------------------------------------

    def _dispatch(self, session, event):
        transition = provider_transition if session.role == "provider" else requester_transition
        queue = deque([event])
        outbound = []
        while queue:
            current = queue.popleft()
            for output in transition(session, current):
                if isinstance(output, ProtocolMessage):
                    outbound.append(output)
                else:
                    queue.extend(self._handle(session, output))
        return outbound

    def _handle(self, session, command):
        handler = getattr(self, f"_cmd_{command.kind}", None)
        if handler is None:
            raise ProtocolViolation(f"runtime has no handler for command {command.kind!r}")
        return handler(session, command.data)

    def _cmd_log_memory(self, session, data):
        self.remember(data["text"])
        return []

    # provider side

    def _cmd_evaluate_request(self, session, data):
        body = data["body"]
        item = self.catalog.get(session.content_id)
        if item is None:
            return [
                InternalDecision(
                    "gate_fail", {"reason": f"no such content: {session.content_id}"}
                )
            ]
        gate = self._gate(session, body, item)
        if not gate:
            return [InternalDecision("gate_fail", {"reason": gate.reason})]
        if not self.is_ip_significant(item.content_id):
            return [InternalDecision("non_ip", {"content": item.content})]
        if item.courtship:
            self._courtship.setdefault(item.content_id, []).append(session.session_id)
            return [InternalDecision("hold")]
        return [self._propose_decision(item, session, body.get("offer", {}))]

    def _gate(self, session, body, item):
        provider_code = self.directory.get(self.agent_id)
        requester_code = body.get("jurisdiction") or self.directory.get(session.requester_id)
        if provider_code is None or requester_code is None:
            return GateDecision(False, "jurisdiction unknown for one of the parties")
        opening = self._opening_terms(item, {})
        return check_compatibility(
            self.rules,
            self.registry.profile(requester_code),
            self.registry.profile(provider_code),
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
        overrides = {}
        if "upfront_fee" in offer:
            overrides["upfront_fee"] = offer["upfront_fee"]
        if "royalty_rate" in offer:
            overrides["royalty_rate"] = fixed4(offer["royalty_rate"])
        if overrides:
            terms = terms.replace(**overrides)
        return terms

    def _propose_decision(self, item, session, offer):
        terms = self._opening_terms(item, offer)
        report = validate(terms)
        if report:
            return InternalDecision("gate_fail", {"reason": f"terms invalid: {report[0].reason}"})
        data = {"terms": terms, "terms_hash": terms_hash(terms)}
        previous = self._previous_license_id(item, session.requester_id)
        if previous is not None:
            data["previous_license_id"] = previous
        return InternalDecision("propose", data)

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

    def _cmd_mint_draft(self, session, data):
        terms = data["terms"]
        round_number = self.ledger.next_round(session.session_id)
        self.ledger.mint_draft(session.session_id, round_number, self.agent_id, terms)
        return []

    def _cmd_evaluate_counter(self, session, data):
        try:
            delta = delta_from_value(data["suggestions"])
        except ParseError as exc:
            raise ProtocolViolation(f"counter suggestions do not parse: {exc}") from None
        try:
            countered = apply_delta(session.terms, delta)
        except AtcpipError:
            countered = None
        if countered is not None and (
            arbiter_decide(self.tier, session.terms, countered) is ArbiterDecision.AUTO_ACCEPT
        ):
            revised = countered
        else:
            if session.revisions_used >= self.policy.max_rounds:
                return [
                    InternalDecision(
                        "revision_reject", {"reason": "negotiation budget exhausted"}
                    )
                ]
            session.revisions_used += 1
            revised = revise_terms(self.policy, session.terms, delta)
        echo = revised == countered or revised == session.terms
        return [
            InternalDecision(
                "revised",
                {"terms": revised, "terms_hash": terms_hash(revised), "echo": echo},
            )
        ]

    def _cmd_request_payment(self, session, data):
        item = self._require_item(session.content_id)
        price = session.terms.upfront_fee
        obligations = []
        if session.previous_license_id is not None:
            lineage = self.ledger.chain_of_ownership(session.previous_license_id)
            obligations.extend(aggregate_obligations(lineage, "sublicense"))
        obligations.extend(self._extra_obligations(item))
        plan = compute_split(price, self.agent_id, obligations)
        return [
            InternalDecision(
                "payment_plan", {"amount": plan.price, "plan_value": plan.to_value()}
            )
        ]

    def _derivation_obligations(self, item, event):
        held = self.tokens.get(item.derived_from) if item.derived_from else None
        obligations = []
        if held is not None:
            lineage = self.ledger.chain_of_ownership(held.license_id)
            obligations.extend(aggregate_obligations(lineage, event))
        obligations.extend(self._extra_obligations(item))
        return obligations

    def _extra_obligations(self, item):
        return [
            RoyaltyObligation(beneficiary=beneficiary, share=share, source_license_id="")
            for beneficiary, share in item.extra_royalties
        ]

    def _cmd_atomic_exchange(self, session, data):
        try:
            token = token_from_value(data["token"])
        except ParseError:
            return [InternalDecision("exchange_aborted")]
        fits = (
            token.metadata.issuer_id == session.provider_id
            and token.metadata.holder_id == session.requester_id
            and token.session_id == session.session_id
            and token.metadata.previous_license_id == session.previous_license_id
            and token.terms_hash == session.terms_hash
        )
        if not fits:
            return [InternalDecision("exchange_aborted")]
        try:
            committed = self.ledger.commit_agreement(token)
        except AbortedExchange:
            return [InternalDecision("exchange_aborted")]
        item = self._require_item(session.content_id)
        return [
            InternalDecision(
                "exchange_committed", {"token": committed, "content": item.content}
            )
        ]

    def _cmd_record_transaction(self, session, data):
        if session.role == "provider":
            token = session.committed_token
            if token is not None:
                self.issued[(session.content_id, session.requester_id)] = token
                self.remember(f"License issued: {token.license_id}")
                self._store(
                    MemoryRecord(
                        kind="transaction",
                        tick=self.clock(),
                        requester_id=session.requester_id,
                        content_id=session.content_id,
                        terms_hash=session.terms_hash,
                        license_id=token.license_id,
                        acknowledged=session.acknowledged,
                    )
                )
            self.board.record_outcome(self.agent_id, "deal_completed")
            return []
        token = session.received_token
        self.tokens[session.content_id] = token
        self.inventory[session.content_id] = {"content": data["content"], "licensed": True}
        self.remember(f"License token accepted: {token.license_id}")
        self._store(
            MemoryRecord(
                kind="transaction",
                tick=self.clock(),
                requester_id=self.agent_id,
                content_id=session.content_id,
                terms_hash=session.accepted_terms_hash,
                license_id=token.license_id,
                acknowledged=session.config.ack_required,
            )
        )
        if self._purposes.get(session.session_id) == "fine_tuning":
            self.remember(f"fine_tuned_on:{session.content_id}")
        self.board.record_outcome(self.agent_id, "deal_completed")
        return [InternalDecision("finalize")]

    # requester side

    def _cmd_evaluate_offer(self, session, data):
        terms = data["terms"]
        decision = evaluate_offer(self.policy, terms)
        if isinstance(decision, Accept):
            return [InternalDecision("offer_accept", {"terms_hash": terms_hash(terms)})]
        if isinstance(decision, Counter):
            if session.counters_used >= self.policy.max_rounds:
                self.remember("Counter budget exhausted; going silent.")
                return []
            try:
                countered = apply_delta(terms, decision.delta)
            except AtcpipError:
                self.remember("Own counter does not validate; going silent.")
                return []
            return [
                InternalDecision(
                    "offer_counter",
                    {"delta_value": decision.delta.to_value(), "countered_terms": countered},
                )
            ]
        return [InternalDecision("offer_reject", {"reason": decision.reason})]

    def _cmd_settle(self, session, data):
        plan = SplitPlan(
            price=data["amount"],
            lines=tuple((line["to"], line["amount"]) for line in data["split"]),
        )
        try:
            self.wallets.settle(
                self.agent_id, plan, purpose="license_fee", session_id=session.session_id
            )
        except AtcpipError as exc:
            return [InternalDecision("payment_failed", {"reason": str(exc)})]
        return [InternalDecision("payment_settled", {"amount": plan.price})]

    def _cmd_prepare_token(self, session, data):
        terms = session.accepted_terms
        try:
            token = self.ledger.prepare_agreement(
                self.agent_id,
                session.provider_id,
                terms,
                terms.duration,
                previous_license_id=session.offered_previous_license_id,
                session_id=session.session_id,
            )
        except AtcpipError as exc:
            return [InternalDecision("prepare_failed", {"reason": str(exc)})]
        return [InternalDecision("token_prepared", {"token": token})]

    def _cmd_receive_content(self, session, data):
        self.inventory[data["content_id"]] = {
            "content": data["content"],
            "licensed": data["licensed"],
        }
        self.remember(f"Received non-IP content: {data['content_id']}")
        return []

    def _require_item(self, content_id):
        item = self.catalog.get(content_id)
        if item is None:
            raise UnknownContent(f"no catalog item {content_id!r}")
        return item
