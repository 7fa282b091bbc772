"""Licensing session protocol.

Twelve wire actions drive a provider and a requester state machine
through negotiation, payment, token minting, and delivery. A transition
takes a session, one inbound event (a message or a timer expiry), and
the agent runtime that owns the session. Where the next step needs the
agent (judging terms, paying, minting, remembering), the transition
calls the runtime, and the runtime answers by calling one of the step
functions here (``provider_propose``, ``requester_accept``, ...). Steps
set the new state and build the outbound messages, so every session
state change happens in this module, and every call returns the
messages to send in the order they were numbered.

The wire format is a 4-byte big-endian length prefix over the canonical
JSON of the message map, and decoding rejects any frame whose payload
is not byte-identical to its own re-encoding.
"""

import enum
from dataclasses import dataclass, field
from typing import Optional

from . import canon
from .errors import InvalidTerms, MalformedFrame, ParseError, ProtocolViolation
from .ledger import token_from_value, token_to_value
from .terms import delta_from_value, terms_from_value

ACTIONS = (
    "request_info",
    "non_ip_notice",
    "propose_terms",
    "counter_terms",
    "final_terms",
    "accept_terms",
    "payment_required",
    "payment_confirmed",
    "license_token",
    "deliver_ip",
    "acknowledge_receipt",
    "reject",
)

REQUIRED_BODY_KEYS = {
    "request_info": ("content_id",),
    "non_ip_notice": ("content_id", "content", "note"),
    "propose_terms": ("terms", "round"),
    "counter_terms": ("suggestions", "round"),
    "final_terms": ("terms", "round"),
    "accept_terms": ("terms_hash",),
    "payment_required": ("amount", "split"),
    "payment_confirmed": ("amount",),
    "license_token": ("token",),
    "deliver_ip": ("content_id", "content", "token"),
    "acknowledge_receipt": ("license_id",),
    "reject": ("reason",),
}

NON_IP_NOTE = "Content not considered IP; no license required."
NON_IP_MEMORY = "Non-IP content sent without contract."

NO_TOKEN_FAILURE = "No valid license token received."
NO_PAYMENT_FAILURE = "Payment not confirmed by requester."
NO_TERMS_FAILURE = "No terms received."
NO_FINAL_TERMS_FAILURE = "No final terms received."
NO_PAYMENT_REQUEST_FAILURE = "No payment request received."
NO_DELIVERY_FAILURE = "IP delivery not received."


@dataclass(frozen=True)
class ProtocolMessage:
    session_id: str
    seq: int
    sender: str
    recipient: str
    action: str
    body: dict

    def to_value(self):
        return {
            "session_id": self.session_id,
            "seq": self.seq,
            "sender": self.sender,
            "recipient": self.recipient,
            "action": self.action,
            "body": self.body,
        }


def message_from_value(value):
    if not isinstance(value, dict):
        raise ParseError("message must be a map")
    expected = {"session_id", "seq", "sender", "recipient", "action", "body"}
    if set(value) != expected:
        raise ParseError("message must carry exactly session_id/seq/sender/recipient/action/body")
    action = value["action"]
    if action not in REQUIRED_BODY_KEYS:
        raise ParseError(f"unknown action {action!r}")
    seq = value["seq"]
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
        raise ParseError("seq must be a non-negative integer")
    for name in ("session_id", "sender", "recipient"):
        if not isinstance(value[name], str) or not value[name]:
            raise ParseError(f"{name} must be a non-empty string")
    body = value["body"]
    if not isinstance(body, dict):
        raise ParseError("body must be a map")
    missing = [key for key in REQUIRED_BODY_KEYS[action] if key not in body]
    if missing:
        raise ParseError(f"{action} body missing {missing[0]!r}")
    return ProtocolMessage(
        session_id=value["session_id"],
        seq=seq,
        sender=value["sender"],
        recipient=value["recipient"],
        action=action,
        body=body,
    )


FRAME_HEADER = 4


def encode_message(message):
    payload = canon.dumps(message.to_value())
    return len(payload).to_bytes(FRAME_HEADER, "big") + payload


def read_frame(data):
    """Split one frame off the front; returns (message, remaining bytes)."""
    if not isinstance(data, (bytes, bytearray)):
        raise MalformedFrame("frames are raw bytes")
    data = bytes(data)
    if len(data) < FRAME_HEADER:
        raise MalformedFrame("frame shorter than its length header")
    declared = int.from_bytes(data[:FRAME_HEADER], "big")
    end = FRAME_HEADER + declared
    if len(data) < end:
        raise MalformedFrame(f"frame truncated: declares {declared} payload bytes")
    payload = data[FRAME_HEADER:end]
    try:
        value = canon.loads(payload)
    except ParseError as exc:
        raise MalformedFrame(f"payload is not canonical JSON: {exc}") from None
    try:
        message = message_from_value(value)
    except ParseError as exc:
        raise MalformedFrame(str(exc)) from None
    if canon.dumps(value) != payload:
        raise MalformedFrame("payload bytes are not in canonical form")
    return message, data[end:]


def decode_message(data):
    """Decode exactly one frame; trailing bytes are an error."""
    message, rest = read_frame(data)
    if rest:
        raise MalformedFrame(f"{len(rest)} trailing bytes after frame")
    return message


# -- session plumbing ---------------------------------------------------------


@dataclass(frozen=True)
class SessionConfig:
    negotiation_timeout: int = 10
    settlement_timeout: int = 30
    ack_required: bool = False

    def __post_init__(self):
        for name in ("negotiation_timeout", "settlement_timeout"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise ValueError(f"{name} must be a positive tick count")


class ProviderState(enum.Enum):
    IDLE = "idle"
    EVALUATING = "evaluating"
    TERMS_PROPOSED = "terms_proposed"
    NEGOTIATING = "negotiating"
    AWAITING_PAYMENT = "awaiting_payment"
    AWAITING_TOKEN = "awaiting_token"
    DELIVERING = "delivering"
    AWAITING_ACK = "awaiting_ack"
    COMPLETED = "completed"
    REJECTED = "rejected"
    FAILED = "failed"


class RequesterState(enum.Enum):
    REQUESTING = "requesting"
    AWAITING_TERMS = "awaiting_terms"
    EVALUATING_TERMS = "evaluating_terms"
    COUNTERING = "countering"
    PAYING = "paying"
    MINTING = "minting"
    AWAITING_DELIVERY = "awaiting_delivery"
    ACKNOWLEDGING = "acknowledging"
    COMPLETED = "completed"
    REJECTED = "rejected"
    FAILED = "failed"


PROVIDER_TERMINAL = frozenset(
    {ProviderState.COMPLETED, ProviderState.REJECTED, ProviderState.FAILED}
)
REQUESTER_TERMINAL = frozenset(
    {RequesterState.COMPLETED, RequesterState.REJECTED, RequesterState.FAILED}
)

# State entry (re)starts the listed timer; entering any other state
# cancels the previous one. Ack waits reuse the negotiation timeout.
PROVIDER_TIMERS = {
    ProviderState.TERMS_PROPOSED: ("negotiation", "negotiation_timeout"),
    ProviderState.NEGOTIATING: ("negotiation", "negotiation_timeout"),
    ProviderState.AWAITING_PAYMENT: ("settlement", "settlement_timeout"),
    ProviderState.AWAITING_TOKEN: ("settlement", "settlement_timeout"),
    ProviderState.AWAITING_ACK: ("ack", "negotiation_timeout"),
}
REQUESTER_TIMERS = {
    RequesterState.AWAITING_TERMS: ("negotiation", "negotiation_timeout"),
    RequesterState.COUNTERING: ("negotiation", "negotiation_timeout"),
    RequesterState.PAYING: ("settlement", "settlement_timeout"),
    RequesterState.AWAITING_DELIVERY: ("settlement", "settlement_timeout"),
}


@dataclass(frozen=True)
class TimerExpired:
    kind: str  # "negotiation" | "settlement" | "ack"


@dataclass
class ProviderSession:
    session_id: str
    provider_id: str
    requester_id: str
    config: SessionConfig
    state: ProviderState = ProviderState.IDLE
    content_id: str = ""
    request_body: dict = field(default_factory=dict)
    terms: object = None
    terms_hash: str = ""
    previous_license_id: Optional[str] = None
    round: int = 0
    revisions_used: int = 0
    plan_amount: int = 0
    unconfirmed: bool = False
    committed_token: object = None
    acknowledged: bool = False
    failure_reason: str = ""
    reject_reason: str = ""
    out_seq: int = 0
    last_seq_seen: int = -1

    role = "provider"

    @property
    def peer_id(self):
        return self.requester_id

    @property
    def agent_id(self):
        return self.provider_id

    def terminal(self):
        return self.state in PROVIDER_TERMINAL


@dataclass
class RequesterSession:
    session_id: str
    requester_id: str
    provider_id: str
    config: SessionConfig
    state: RequesterState = RequesterState.REQUESTING
    content_id: str = ""
    offered_terms: object = None
    offered_previous_license_id: Optional[str] = None
    round: int = 0
    counters_used: int = 0
    accepted_terms: object = None
    accepted_terms_hash: str = ""
    received_token: object = None
    content: object = None
    content_licensed: bool = False
    failure_reason: str = ""
    reject_reason: str = ""
    out_seq: int = 0
    last_seq_seen: int = -1

    role = "requester"

    @property
    def peer_id(self):
        return self.provider_id

    @property
    def agent_id(self):
        return self.requester_id

    def terminal(self):
        return self.state in REQUESTER_TERMINAL


def _send(session, action, body):
    message = ProtocolMessage(
        session_id=session.session_id,
        seq=session.out_seq,
        sender=session.agent_id,
        recipient=session.peer_id,
        action=action,
        body=body,
    )
    session.out_seq += 1
    return message


def _violation(session, event):
    kind = getattr(event, "action", None) or getattr(event, "kind", type(event).__name__)
    return ProtocolViolation(
        f"{session.role} session {session.session_id!r} in {session.state.value}"
        f" cannot take event {kind!r}"
    )


def _fail(session, agent, reason, state_enum):
    session.failure_reason = reason
    session.state = state_enum.FAILED
    agent.remember(f"Session failed: {reason}")
    return []


# -- provider transition --------------------------------------------------------


def provider_transition(session, event, agent):
    """Apply one inbound message or timer expiry; returns outbound messages in order."""
    state = session.state

    if isinstance(event, ProtocolMessage):
        if event.action == "reject" and not session.terminal():
            session.reject_reason = event.body.get("reason", "")
            session.state = ProviderState.REJECTED
            return []

        if state is ProviderState.IDLE and event.action == "request_info":
            session.content_id = event.body["content_id"]
            session.request_body = dict(event.body)
            session.state = ProviderState.EVALUATING
            return agent.evaluate_request(session)

        if state in (ProviderState.TERMS_PROPOSED, ProviderState.NEGOTIATING):
            if event.action == "counter_terms":
                delta = _parse_delta(event.body["suggestions"])
                session.round = max(session.round, _round_of(event))
                session.state = ProviderState.NEGOTIATING
                return agent.evaluate_counter(session, delta)
            if event.action == "accept_terms":
                if event.body["terms_hash"] != session.terms_hash:
                    raise _violation(session, event)
                return _provider_enter_settlement(session, agent)

        if state is ProviderState.AWAITING_PAYMENT and event.action == "payment_confirmed":
            if event.body["amount"] != session.plan_amount:
                raise _violation(session, event)
            session.state = ProviderState.AWAITING_TOKEN
            return []

        if state is ProviderState.AWAITING_TOKEN and event.action == "license_token":
            session.state = ProviderState.DELIVERING
            return agent.atomic_exchange(session, event.body["token"])

        if state is ProviderState.AWAITING_ACK and event.action == "acknowledge_receipt":
            session.acknowledged = True
            session.state = ProviderState.COMPLETED
            agent.record_issue(session)
            return []

        raise _violation(session, event)

    if isinstance(event, TimerExpired):
        expected = PROVIDER_TIMERS.get(state)
        if expected is None or expected[0] != event.kind:
            raise _violation(session, event)
        if state in (ProviderState.TERMS_PROPOSED, ProviderState.NEGOTIATING):
            # Silent requester: proceed on the standing terms, unconfirmed.
            session.unconfirmed = True
            return _provider_enter_settlement(session, agent)
        if state is ProviderState.AWAITING_PAYMENT:
            return _fail(session, agent, NO_PAYMENT_FAILURE, ProviderState)
        if state is ProviderState.AWAITING_TOKEN:
            return _fail(session, agent, NO_TOKEN_FAILURE, ProviderState)
        # Awaiting an ack that never came: the deal stands, unacknowledged.
        session.acknowledged = False
        session.state = ProviderState.COMPLETED
        agent.record_issue(session)
        return []

    raise _violation(session, event)


def _round_of(event):
    round_number = event.body.get("round", 0)
    if isinstance(round_number, bool) or not isinstance(round_number, int):
        return 0
    return round_number


def _provider_enter_settlement(session, agent):
    if session.terms is not None and session.terms.upfront_fee > 0:
        session.state = ProviderState.AWAITING_PAYMENT
        plan = agent.payment_plan(session)
        session.plan_amount = plan.price
        return [_send(session, "payment_required", plan.to_value())]
    session.state = ProviderState.AWAITING_TOKEN
    return []


# -- provider steps: the runtime's decisions, applied ---------------------------


def provider_propose(session, agent, terms, digest, previous_license_id=None):
    """Offer opening terms: mint them as a draft, then send them."""
    session.terms = terms
    session.terms_hash = digest
    session.previous_license_id = previous_license_id
    session.round += 1
    session.state = ProviderState.TERMS_PROPOSED
    body = {"terms": terms.to_value(), "round": session.round}
    if previous_license_id is not None:
        body["previous_license_id"] = previous_license_id
    agent.mint_draft(session, terms)
    return [_send(session, "propose_terms", body)]


def provider_refuse(session, reason):
    session.reject_reason = reason
    session.state = ProviderState.REJECTED
    return [_send(session, "reject", {"reason": reason})]


def provider_non_ip(session, agent, content):
    """Ship content that needs no license and close the session."""
    session.state = ProviderState.COMPLETED
    notice = _send(
        session,
        "non_ip_notice",
        {"content_id": session.content_id, "content": content, "note": NON_IP_NOTE},
    )
    agent.remember(NON_IP_MEMORY)
    return [notice]


def provider_revise(session, agent, terms, digest, echo):
    """Answer a counter with final terms; ``echo`` terms (the counter
    itself or the standing offer) are not minted again."""
    session.terms = terms
    session.terms_hash = digest
    session.round += 1
    if not echo:
        agent.mint_draft(session, terms)
    return [_send(session, "final_terms", {"terms": terms.to_value(), "round": session.round})]


def provider_deliver(session, agent, token, content):
    """Deliver against the committed token; record the deal unless the
    requester still owes an acknowledgement."""
    session.committed_token = token
    delivery = _send(
        session,
        "deliver_ip",
        {"content_id": session.content_id, "content": content, "token": token_to_value(token)},
    )
    if session.config.ack_required:
        session.state = ProviderState.AWAITING_ACK
    else:
        session.state = ProviderState.COMPLETED
        agent.record_issue(session)
    return [delivery]


def provider_abort(session, agent):
    return _fail(session, agent, NO_TOKEN_FAILURE, ProviderState)


# -- requester transition ---------------------------------------------------------


def requester_transition(session, event, agent):
    """Apply one inbound message or timer expiry; returns outbound messages in order."""
    state = session.state

    if isinstance(event, ProtocolMessage):
        if event.action == "reject" and not session.terminal():
            session.reject_reason = event.body.get("reason", "")
            session.state = RequesterState.REJECTED
            return []

        if state is RequesterState.AWAITING_TERMS and event.action == "non_ip_notice":
            session.content = event.body["content"]
            session.content_licensed = False
            session.state = RequesterState.COMPLETED
            agent.receive_content(event.body["content_id"], event.body["content"])
            return []

        if (
            state in (RequesterState.AWAITING_TERMS, RequesterState.COUNTERING)
            and event.action in ("propose_terms", "final_terms")
        ):
            session.offered_terms = _parse_terms(session, event.body["terms"])
            session.offered_previous_license_id = event.body.get("previous_license_id")
            session.round = max(session.round, _round_of(event))
            session.state = RequesterState.EVALUATING_TERMS
            return agent.answer_offer(session, session.offered_terms)

        if state is RequesterState.PAYING and event.action == "payment_required":
            amount = event.body["amount"]
            split = event.body["split"]
            if (
                isinstance(amount, bool)
                or not isinstance(amount, int)
                or session.accepted_terms is None
                or amount != session.accepted_terms.upfront_fee
            ):
                raise _violation(session, event)
            if not isinstance(split, list) or not all(map(_is_split_line, split)):
                raise _violation(session, event)
            if sum(line["amount"] for line in split) != amount:
                raise _violation(session, event)
            return agent.settle(session, amount, split)

        if state is RequesterState.AWAITING_DELIVERY and event.action == "deliver_ip":
            token = _parse_token(session, event.body["token"])
            if token.height is None or token.terms_hash != session.accepted_terms_hash:
                raise _violation(session, event)
            session.received_token = token
            session.content = event.body["content"]
            session.content_licensed = True
            session.state = RequesterState.ACKNOWLEDGING
            outputs = []
            if session.config.ack_required:
                outputs.append(
                    _send(session, "acknowledge_receipt", {"license_id": token.license_id})
                )
            agent.record_license(session)
            session.state = RequesterState.COMPLETED
            return outputs

        raise _violation(session, event)

    if isinstance(event, TimerExpired):
        expected = REQUESTER_TIMERS.get(state)
        if expected is None or expected[0] != event.kind:
            raise _violation(session, event)
        if state is RequesterState.AWAITING_TERMS:
            return _fail(session, agent, NO_TERMS_FAILURE, RequesterState)
        if state is RequesterState.COUNTERING:
            return _fail(session, agent, NO_FINAL_TERMS_FAILURE, RequesterState)
        if state is RequesterState.PAYING:
            return _fail(session, agent, NO_PAYMENT_REQUEST_FAILURE, RequesterState)
        # Awaiting delivery, the last state with a timer.
        return _fail(session, agent, NO_DELIVERY_FAILURE, RequesterState)

    raise _violation(session, event)


def _parse_terms(session, value):
    try:
        return terms_from_value(value)
    except (ParseError, InvalidTerms) as exc:
        raise ProtocolViolation(f"terms in message do not parse: {exc}") from None


def _parse_delta(value):
    try:
        return delta_from_value(value)
    except ParseError as exc:
        raise ProtocolViolation(f"counter suggestions do not parse: {exc}") from None


def _is_split_line(line):
    """One payout line from the wire: a named payee and a whole,
    non-negative amount. The requester pays exactly these lines."""
    if not isinstance(line, dict) or set(line) != {"to", "amount"}:
        return False
    payee, amount = line["to"], line["amount"]
    return (
        isinstance(payee, str)
        and bool(payee)
        and isinstance(amount, int)
        and not isinstance(amount, bool)
        and amount >= 0
    )


def _parse_token(session, value):
    try:
        return token_from_value(value)
    except (ParseError, InvalidTerms) as exc:
        raise ProtocolViolation(f"token in message does not parse: {exc}") from None


# -- requester steps: the runtime's decisions, applied ----------------------------


def requester_open(session, content_id, jurisdiction=None, offer=None):
    session.content_id = content_id
    session.state = RequesterState.AWAITING_TERMS
    body = {"content_id": content_id}
    if jurisdiction:
        body["jurisdiction"] = jurisdiction
    if offer:
        body["offer"] = dict(offer)
    return [_send(session, "request_info", body)]


def requester_accept(session, agent, digest):
    """Accept the offer; free terms go straight on to minting."""
    session.accepted_terms = session.offered_terms
    session.accepted_terms_hash = digest
    acceptance = _send(session, "accept_terms", {"terms_hash": digest})
    if session.accepted_terms.upfront_fee > 0:
        session.state = RequesterState.PAYING
        return [acceptance]
    session.state = RequesterState.MINTING
    return [acceptance, *agent.prepare_token(session)]


def requester_counter(session, agent, delta_value, countered):
    """Mint the countered terms as a draft, then send the edits."""
    session.counters_used += 1
    session.round += 1
    session.state = RequesterState.COUNTERING
    agent.mint_draft(session, countered)
    return [_send(session, "counter_terms", {"suggestions": delta_value, "round": session.round})]


def requester_refuse(session, reason):
    session.reject_reason = reason
    session.state = RequesterState.REJECTED
    return [_send(session, "reject", {"reason": reason})]


def requester_paid(session, agent, amount):
    """Confirm the payment, then prepare the token."""
    session.state = RequesterState.MINTING
    confirmation = _send(session, "payment_confirmed", {"amount": amount})
    return [confirmation, *agent.prepare_token(session)]


def requester_present(session, token):
    session.state = RequesterState.AWAITING_DELIVERY
    return [_send(session, "license_token", {"token": token_to_value(token)})]


def requester_fail(session, agent, reason):
    return _fail(session, agent, reason, RequesterState)
