"""Licensing session protocol.

Twelve wire actions drive a provider and a requester state machine
through negotiation, payment, token minting, and delivery. A transition
takes a session, one inbound message, and the agent runtime that owns
the session. Where the next step needs the agent (judging terms,
paying, minting, remembering), the transition calls the runtime, and
the runtime answers by calling one of the step functions here
(``provider_propose``, ``requester_accept``, ...). Steps set the new
state and send the outbound messages, so every session state change
happens in this module. Sending numbers a message and queues it on the
session's ``outbox`` in one step, so no call returns messages and a
message once numbered cannot be lost, not even when a later call in the
same step raises; whoever hands the session an event takes the queue
with ``Session.drain``.

The two roles share one event path: one ``Session`` base, one prelude
that takes ``reject``, and the ``refuse`` and ``fail`` steps. What each
waiting state of either role waits on lives in one table, ``WAITS``:
the ``SessionConfig`` field that sets the wait, and the outcome when it
runs out, a failure reason or a step. ``expire`` ends a wait.

The license a session closed on lives on the chain, as the ledger's
agreement for the session id. The requester takes a ``deliver_ip`` only
when that agreement binds the session's terms and the frame carries it
unchanged; the content it delivered is kept on the session.

The wire format is a 4-byte big-endian length prefix over the canonical
JSON of the message map, and decoding rejects any frame whose payload
is not byte-identical to its own re-encoding. ``check_body`` holds a
message body to the keys its action requires, both in the decoder and
where a runtime receives a message.
"""

import enum
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional

from . import canon
from .errors import InvalidTerms, MalformedFrame, ParseError, ProtocolViolation
from .ledger import token_to_value
from .terms import delta_from_value, terms_from_value, terms_hash

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


def check_body(action, body):
    """Raise ParseError unless ``action`` is one of the twelve and
    ``body`` is a map holding every key the action requires; a
    ``request_info`` body opens a session, so its values are checked too,
    and so are a ``reject`` reason and the license a ``propose_terms``
    extends."""
    required = REQUIRED_BODY_KEYS.get(action)
    if required is None:
        raise ParseError(f"unknown action {action!r}")
    if not isinstance(body, dict):
        raise ParseError("body must be a map")
    for key in required:
        if key not in body:
            raise ParseError(f"{action} body missing {key!r}")
    if action == "request_info":
        _check_request(body)
    if action == "reject" and not isinstance(body["reason"], str):
        raise ParseError("reject reason must be a string")
    if action == "propose_terms" and "previous_license_id" in body:
        previous = body["previous_license_id"]
        if not isinstance(previous, str) or not previous:
            raise ParseError("propose_terms previous_license_id must be a non-empty string")


def _check_request(body):
    """The values a provider reads from a ``request_info`` body."""
    content_id, offer = body["content_id"], body.get("offer", {})
    if not isinstance(content_id, str) or not content_id:
        raise ParseError("request_info content_id must be a non-empty string")
    if not isinstance(body.get("jurisdiction", ""), str):
        raise ParseError("request_info jurisdiction must be a string")
    if not isinstance(offer, dict) or not offer.keys() <= {"upfront_fee", "royalty_rate"}:
        raise ParseError("request_info offer must be a map of upfront_fee and royalty_rate")
    fee, rate = offer.get("upfront_fee", 0), offer.get("royalty_rate", 0)
    if isinstance(fee, bool) or not isinstance(fee, int) or fee < 0:
        raise ParseError("request_info offer upfront_fee must be a non-negative integer")
    if isinstance(rate, bool) or not isinstance(rate, (int, Decimal)):
        raise ParseError("request_info offer royalty_rate must be an integer or a decimal")


def message_from_value(value):
    if not isinstance(value, dict):
        raise ParseError("message must be a map")
    expected = {"session_id", "seq", "sender", "recipient", "action", "body"}
    if set(value) != expected:
        raise ParseError("message must carry exactly session_id/seq/sender/recipient/action/body")
    check_body(value["action"], value["body"])
    seq = value["seq"]
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
        raise ParseError("seq must be a non-negative integer")
    for name in ("session_id", "sender", "recipient"):
        if not isinstance(value[name], str) or not value[name]:
            raise ParseError(f"{name} must be a non-empty string")
    return ProtocolMessage(
        session_id=value["session_id"],
        seq=seq,
        sender=value["sender"],
        recipient=value["recipient"],
        action=value["action"],
        body=value["body"],
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
            whole = isinstance(value, int) and not isinstance(value, bool)
            if not whole or not 0 < value <= canon.INT_MAX:
                raise ValueError(f"{name} must be a positive tick count within 64 bits")
        if not isinstance(self.ack_required, bool):
            raise ValueError("ack_required must be a boolean")


class ProviderState(enum.Enum):
    IDLE = "idle"
    EVALUATING = "evaluating"
    TERMS_PROPOSED = "terms_proposed"
    NEGOTIATING = "negotiating"
    AWAITING_PAYMENT = "awaiting_payment"
    AWAITING_TOKEN = "awaiting_token"
    AWAITING_ACK = "awaiting_ack"
    COMPLETED = "completed"
    REJECTED = "rejected"
    FAILED = "failed"


class RequesterState(enum.Enum):
    AWAITING_TERMS = "awaiting_terms"
    EVALUATING_TERMS = "evaluating_terms"
    COUNTERING = "countering"
    PAYING = "paying"
    AWAITING_DELIVERY = "awaiting_delivery"
    COMPLETED = "completed"
    REJECTED = "rejected"
    FAILED = "failed"


TERMINAL = frozenset(
    {ProviderState.COMPLETED, ProviderState.REJECTED, ProviderState.FAILED}
    | {RequesterState.COMPLETED, RequesterState.REJECTED, RequesterState.FAILED}
)

@dataclass(kw_only=True)
class Session:
    """What both sides of one session keep: ``terms`` and
    ``previous_license_id`` are the standing offer as the provider last
    sent it, and ``outbox`` the messages numbered and not yet drained.
    Each role adds its ``state`` and its own fields."""

    session_id: str
    provider_id: str
    requester_id: str
    config: SessionConfig
    content_id: str = ""
    terms: object = None
    previous_license_id: Optional[str] = None
    round: int = 0
    failure_reason: str = ""
    reject_reason: str = ""
    out_seq: int = 0
    last_seq_seen: int = -1
    outbox: list = field(default_factory=list)

    def terminal(self):
        return self.state in TERMINAL

    def drain(self):
        """The messages numbered since the last drain, in order."""
        outbox, self.outbox = self.outbox, []
        return outbox


@dataclass(kw_only=True)
class ProviderSession(Session):
    """The provider's side; the digest and the fee are read from
    ``terms``, not stored."""

    state: ProviderState = ProviderState.IDLE
    request_body: dict = field(default_factory=dict)
    revisions_used: int = 0
    acknowledged: bool = False

    role = "provider"


@dataclass(kw_only=True)
class RequesterSession(Session):
    """The requester's side: ``purpose`` is the use it stated when it
    asked, and ``content`` what was delivered. Whether that content came
    licensed is the chain's to say, not the session's."""

    state: RequesterState = RequesterState.AWAITING_TERMS
    purpose: str = ""
    counters_used: int = 0
    content: object = None

    role = "requester"


def _send(session, action, body):
    """Number the next message from this side of the session to the
    other and queue it on the session's outbox."""
    sender, recipient = session.provider_id, session.requester_id
    if session.role == "requester":
        sender, recipient = recipient, sender
    session.outbox.append(
        ProtocolMessage(
            session_id=session.session_id,
            seq=session.out_seq,
            sender=sender,
            recipient=recipient,
            action=action,
            body=body,
        )
    )
    session.out_seq += 1


def _violation(session, event):
    return ProtocolViolation(
        f"{session.role} session {session.session_id!r} in {session.state.value}"
        f" cannot take event {event.action!r}"
    )


def _prelude(session, event):
    """The start both transitions share. Returns True when ``event`` is
    a ``reject`` that closed the live session, so the transition is
    done."""
    if event.action != "reject" or session.terminal():
        return False
    session.reject_reason = event.body.get("reason", "")
    session.state = type(session.state).REJECTED
    return True


def refuse(session, reason):
    """Close the session by sending ``reject``."""
    session.reject_reason = reason
    session.state = type(session.state).REJECTED
    _send(session, "reject", {"reason": reason})


def fail(session, agent, reason):
    """Close the session as failed; nothing goes on the wire."""
    session.failure_reason = reason
    session.state = type(session.state).FAILED
    agent.remember(f"Session failed: {reason}")


# -- provider transition --------------------------------------------------------


def provider_transition(session, event, agent):
    """Apply one inbound message."""
    if _prelude(session, event):
        return
    state, action = session.state, event.action
    negotiating = state in (ProviderState.TERMS_PROPOSED, ProviderState.NEGOTIATING)

    if state is ProviderState.IDLE and action == "request_info":
        session.content_id = event.body["content_id"]
        session.request_body = dict(event.body)
        session.state = ProviderState.EVALUATING
        agent.evaluate_request(session)
    elif negotiating and action == "counter_terms":
        delta = _parse_delta(event.body["suggestions"])
        session.round = max(session.round, _round_of(event))
        session.state = ProviderState.NEGOTIATING
        agent.evaluate_counter(session, delta)
    elif negotiating and action == "accept_terms":
        if event.body["terms_hash"] != terms_hash(session.terms):
            raise _violation(session, event)
        _provider_enter_settlement(session, agent)
    elif state is ProviderState.AWAITING_PAYMENT and action == "payment_confirmed":
        amount = event.body["amount"]
        if not _is_amount(amount) or amount != session.terms.upfront_fee:
            raise _violation(session, event)
        session.state = ProviderState.AWAITING_TOKEN
    elif state is ProviderState.AWAITING_TOKEN and action == "license_token":
        agent.atomic_exchange(session, event.body["token"])
    elif state is ProviderState.AWAITING_ACK and action == "acknowledge_receipt":
        session.acknowledged = True
        _provider_complete(session, agent)
    else:
        raise _violation(session, event)


def _round_of(event):
    round_number = event.body.get("round", 0)
    if isinstance(round_number, bool) or not isinstance(round_number, int):
        return 0
    return round_number


def _provider_enter_settlement(session, agent):
    """Move on to payment, or straight to the token for free terms."""
    if session.terms is not None and session.terms.upfront_fee > 0:
        session.state = ProviderState.AWAITING_PAYMENT
        _send(session, "payment_required", agent.payment_plan(session).to_value())
    else:
        session.state = ProviderState.AWAITING_TOKEN


def _provider_complete(session, agent):
    """Record the deal; it is acknowledged only if the ack came."""
    session.state = ProviderState.COMPLETED
    agent.record_issue(session)


# -- provider steps: the runtime's decisions, applied ---------------------------


def provider_propose(session, agent, terms, previous_license_id=None):
    """Offer opening terms: mint them as a draft, then send them."""
    session.terms = terms
    session.previous_license_id = previous_license_id
    session.round += 1
    session.state = ProviderState.TERMS_PROPOSED
    body = {"terms": terms.to_value(), "round": session.round}
    if previous_license_id is not None:
        body["previous_license_id"] = previous_license_id
    agent.mint_draft(session, terms)
    _send(session, "propose_terms", body)


def provider_non_ip(session, agent, content):
    """Ship content that needs no license and close the session."""
    session.state = ProviderState.COMPLETED
    _send(
        session,
        "non_ip_notice",
        {"content_id": session.content_id, "content": content, "note": NON_IP_NOTE},
    )
    agent.remember(NON_IP_MEMORY)


def provider_revise(session, agent, terms, echo):
    """Answer a counter with final terms; ``echo`` terms (the counter
    itself or the standing offer) are not minted again."""
    session.terms = terms
    session.round += 1
    if not echo:
        agent.mint_draft(session, terms)
    _send(session, "final_terms", {"terms": terms.to_value(), "round": session.round})


def provider_deliver(session, agent, token, content):
    """Deliver against the committed token; record the deal unless the
    requester still owes an acknowledgement."""
    _send(
        session,
        "deliver_ip",
        {"content_id": session.content_id, "content": content, "token": token_to_value(token)},
    )
    if session.config.ack_required:
        session.state = ProviderState.AWAITING_ACK
    else:
        _provider_complete(session, agent)


# -- requester transition ---------------------------------------------------------


def requester_transition(session, event, agent):
    """Apply one inbound message."""
    if _prelude(session, event):
        return
    state, action = session.state, event.action

    if state is RequesterState.AWAITING_TERMS and action == "non_ip_notice":
        session.content = event.body["content"]
        session.state = RequesterState.COMPLETED
        agent.remember(f"Received non-IP content: {event.body['content_id']}")
    elif (
        state in (RequesterState.AWAITING_TERMS, RequesterState.COUNTERING)
        and action in ("propose_terms", "final_terms")
    ):
        session.terms = _parse_terms(session, event.body["terms"])
        if action == "propose_terms":  # final terms revise the terms only
            session.previous_license_id = event.body.get("previous_license_id")
        session.round = max(session.round, _round_of(event))
        session.state = RequesterState.EVALUATING_TERMS
        agent.answer_offer(session)
    elif state is RequesterState.PAYING and action == "payment_required":
        amount = event.body["amount"]
        split = event.body["split"]
        if not _is_amount(amount) or amount != session.terms.upfront_fee:
            raise _violation(session, event)
        if not isinstance(split, list) or not all(map(_is_split_line, split)):
            raise _violation(session, event)
        if sum(line["amount"] for line in split) != amount:
            raise _violation(session, event)
        agent.settle(session, amount, split)
    elif state is RequesterState.AWAITING_DELIVERY and action == "deliver_ip":
        # The license is the chain's agreement for this session; the
        # frame only has to carry it unchanged.
        agreement = agent.ledger.session_agreement(session.session_id)
        if (
            agreement is None
            or agreement.terms_hash != terms_hash(session.terms)
            or event.body["token"] != token_to_value(agreement)
        ):
            raise _violation(session, event)
        session.content = event.body["content"]
        if session.config.ack_required:
            _send(session, "acknowledge_receipt", {"license_id": agreement.license_id})
        agent.record_license(session)
        session.state = RequesterState.COMPLETED
    else:
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
    return isinstance(payee, str) and bool(payee) and _is_amount(amount) and amount >= 0


def _is_amount(value):
    """Money on the wire is a whole number of micro-credits; a boolean
    or a decimal is not."""
    return isinstance(value, int) and not isinstance(value, bool)


# -- requester steps: the runtime's decisions, applied ----------------------------


def requester_open(session, content_id, jurisdiction=None, offer=None):
    session.content_id = content_id
    body = {"content_id": content_id}
    if jurisdiction:
        body["jurisdiction"] = jurisdiction
    if offer:
        body["offer"] = dict(offer)
    _send(session, "request_info", body)


def requester_accept(session, agent):
    """Accept the standing offer; free terms go straight on to the token."""
    _send(session, "accept_terms", {"terms_hash": terms_hash(session.terms)})
    if session.terms.upfront_fee > 0:
        session.state = RequesterState.PAYING
    else:
        agent.prepare_token(session)


def requester_counter(session, agent, delta_value, countered):
    """Mint the countered terms as a draft, then send the edits."""
    session.counters_used += 1
    session.round += 1
    session.state = RequesterState.COUNTERING
    agent.mint_draft(session, countered)
    _send(session, "counter_terms", {"suggestions": delta_value, "round": session.round})


def requester_paid(session, agent, amount):
    """Confirm the payment, then prepare the token."""
    _send(session, "payment_confirmed", {"amount": amount})
    agent.prepare_token(session)


def requester_present(session, token):
    session.state = RequesterState.AWAITING_DELIVERY
    _send(session, "license_token", {"token": token_to_value(token)})


# -- waits ----------------------------------------------------------------------

# Each state that waits, of either role, mapped to the SessionConfig field
# that sets its wait and to what happens when the wait runs out: a
# failure reason, or a step taken as ``step(session, agent)``. Entering a
# state (re)starts its wait; entering any other state cancels the
# previous one. Ack waits reuse the negotiation timeout. A requester that
# goes silent while negotiating leaves the provider to proceed on the
# standing terms.
WAITS = {
    ProviderState.TERMS_PROPOSED: ("negotiation_timeout", _provider_enter_settlement),
    ProviderState.NEGOTIATING: ("negotiation_timeout", _provider_enter_settlement),
    ProviderState.AWAITING_PAYMENT: ("settlement_timeout", NO_PAYMENT_FAILURE),
    ProviderState.AWAITING_TOKEN: ("settlement_timeout", NO_TOKEN_FAILURE),
    ProviderState.AWAITING_ACK: ("negotiation_timeout", _provider_complete),
    RequesterState.AWAITING_TERMS: ("negotiation_timeout", NO_TERMS_FAILURE),
    RequesterState.COUNTERING: ("negotiation_timeout", NO_FINAL_TERMS_FAILURE),
    RequesterState.PAYING: ("settlement_timeout", NO_PAYMENT_REQUEST_FAILURE),
    RequesterState.AWAITING_DELIVERY: ("settlement_timeout", NO_DELIVERY_FAILURE),
}


def expire(session, agent):
    """End the wait of the session's current state with its outcome. A
    state that waits on nothing cannot expire."""
    wait = WAITS.get(session.state)
    if wait is None:
        raise ProtocolViolation(
            f"{session.role} session {session.session_id!r} in {session.state.value}"
            " waits on nothing"
        )
    outcome = wait[1]
    if isinstance(outcome, str):
        fail(session, agent, outcome)
    else:
        outcome(session, agent)
