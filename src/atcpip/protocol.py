"""Licensing session protocol.

Twelve wire actions drive a provider and a requester state machine
through negotiation, payment, token minting, and delivery. A transition
takes a session, one inbound message's action and parsed body, and the
agent runtime that owns the session. Where the next step needs the
agent (judging terms, paying, minting, remembering), the transition
calls the runtime, and the runtime answers by calling one of the step
functions here (``provider_propose``, ``requester_accept``, ...).
Steps set the new state and send the outbound messages, so every
session state change happens in this module. Sending numbers a message
and queues it on the session's ``outbox`` in one step, so no call
returns messages and a message once numbered cannot be lost, not even
when a later call in the same step raises; whoever hands the session an
event takes the queue with ``Session.drain``.

The two roles share one event path: one ``Session`` base, one prelude
that takes ``reject``, and the ``refuse`` and ``fail`` steps. What each
waiting state of either role waits on lives in one table, ``WAITS``:
the ``SessionConfig`` field that sets the wait, and the outcome when it
runs out, a failure reason or a step. ``expire`` ends a wait.

The license a session closed on lives on the chain, as the ledger's
agreement for the session id. The requester takes a ``deliver_ip`` only
when that agreement binds the session's terms and the frame carries it
unchanged, byte for byte; the content it delivered is kept on the
session.

Terms travel as their canonical text (``LicenseTerms.canonical``), in
``propose_terms``, ``final_terms`` and every token. A receiver takes
the live terms object in the process that wrote that text (the
sender's own offer or counter, or a catalogue offer sent to many
requesters), checked when it was built. Only text that no live object
wrote is parsed and validated in full, as is every frame the wire codec
decodes, whose terms arrive as maps.

The wire format is a 4-byte big-endian length prefix over the canonical
JSON of the message map, and decoding rejects any frame whose payload
is not byte-identical to its own re-encoding. Each action has one body
parser, a row of ``BODIES``: ``parse_body`` checks every key once and
returns typed values (terms, a delta, a token, payout lines, whole
numbers), in the decoder and where a runtime receives a message, which
drops a body that does not parse. The transitions read only those
values, and check them against the session.
"""

import enum
from dataclasses import dataclass, field
from typing import Optional

from . import canon
from .errors import (
    CanonicalizationError,
    InvalidTerms,
    MalformedFrame,
    ParseError,
    ProtocolViolation,
)
from .ledger import token_from_value, token_to_value
from .terms import delta_from_value, terms_from_value, terms_hash, wire_decimal

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


# -- bodies: each action's body parsed once, where it arrives ---------------------
#
# A key's parser takes the value and returns the typed value, or raises
# saying what the value must be. It builds new values and never changes
# the body map, which the sender may still hold and the transcript is
# written from.


def _text(value):
    if not isinstance(value, str):
        raise ParseError("must be a string")
    return value


def _name(value):
    if not isinstance(value, str) or not value:
        raise ParseError("must be a non-empty string")
    return value


def _whole(value):
    """Money in micro-credits: neither a boolean nor a decimal."""
    if type(value) is not int:
        raise ParseError("must be an integer")
    return value


def _round(value):
    """A round one step below the 64-bit bound, so the next round a
    receiver numbers still encodes."""
    if type(value) is not int or not 0 <= value < canon.INT_MAX:
        raise ParseError("must be an integer from 0 below the 64-bit bound")
    return value


def _offer(value):
    """An opening offer: at most a fee and a rate, the rate to four digits."""
    if not isinstance(value, dict) or not value.keys() <= {"upfront_fee", "royalty_rate"}:
        raise ParseError("must be a map of upfront_fee and royalty_rate")
    offer, fee = dict(value), value.get("upfront_fee", 0)
    if type(fee) is not int or fee < 0:
        raise ParseError("upfront_fee must be a non-negative integer")
    if "royalty_rate" in offer:
        offer["royalty_rate"] = wire_decimal("royalty_rate", offer["royalty_rate"])
    return offer


def _split(value):
    """Payout lines as ``(payee, amount)``, exactly the lines the requester pays."""
    if not isinstance(value, list) or not all(
        isinstance(line, dict) and line.keys() == {"to", "amount"} for line in value
    ):
        raise ParseError("must be a list of {to, amount} lines")
    lines = tuple((line["to"], line["amount"]) for line in value)
    for payee, amount in lines:
        if not isinstance(payee, str) or not payee or type(amount) is not int or amount < 0:
            raise ParseError("lines must pay a non-negative integer to a named payee")
    return lines


def _encoded(value):
    """A token the receiver compares byte for byte: its canonical bytes."""
    if not isinstance(value, dict):
        raise ParseError("must be a map")
    return canon.dumps(value)


# Each action's body, key by key, in the order the keys are checked.
BODIES = {
    "request_info": {"content_id": _name, "jurisdiction": _text, "offer": _offer},
    "non_ip_notice": {"content_id": _name, "content": _text, "note": _text},
    "propose_terms": {"terms": terms_from_value, "round": _round, "previous_license_id": _name},
    "counter_terms": {"suggestions": delta_from_value, "round": _round},
    "final_terms": {"terms": terms_from_value, "round": _round},
    "accept_terms": {"terms_hash": _text},
    "payment_required": {"amount": _whole, "split": _split},
    "payment_confirmed": {"amount": _whole},
    "license_token": {"token": token_from_value},
    "deliver_ip": {"content_id": _name, "content": _text, "token": _encoded},
    "acknowledge_receipt": {"license_id": _text},
    "reject": {"reason": _text},
}
ACTIONS = tuple(BODIES)

# The keys a body may leave out, and what each reads as when it does; a
# parsed value is read, never changed.
OPTIONAL = {"jurisdiction": "", "offer": {}, "previous_license_id": None}


def parse_body(action, body):
    """The typed values of one ``action`` body, by key; raises ParseError
    naming the action and the key. Terms text resolves as
    ``terms_from_value`` resolves it."""
    parsers = BODIES.get(action)
    if parsers is None:
        raise ParseError(f"unknown action {action!r}")
    if not isinstance(body, dict):
        raise ParseError("body must be a map")
    typed = {}
    for key, parse in parsers.items():
        if key not in body and key not in OPTIONAL:
            raise ParseError(f"{action} body missing {key!r}")
        try:
            typed[key] = parse(body[key]) if key in body else OPTIONAL[key]
        except (ParseError, InvalidTerms, CanonicalizationError) as exc:
            raise ParseError(f"{action} {key} {exc}") from None
    if action == "payment_required" and sum(line[1] for line in typed["split"]) != typed["amount"]:
        raise ParseError("payment_required split must sum to the amount")
    return typed


def message_from_value(value):
    if not isinstance(value, dict):
        raise ParseError("message must be a map")
    expected = {"session_id", "seq", "sender", "recipient", "action", "body"}
    if set(value) != expected:
        raise ParseError("message must carry exactly session_id/seq/sender/recipient/action/body")
    parse_body(value["action"], value["body"])
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
    """The provider's side: ``jurisdiction`` and ``offer`` are what the
    request stated, as parsed (an empty string, an empty offer when it
    stated none). The digest and the fee are read from ``terms``."""

    state: ProviderState = ProviderState.IDLE
    jurisdiction: str = ""
    offer: dict = field(default_factory=dict)
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


def _violation(session, action):
    return ProtocolViolation(
        f"{session.role} session {session.session_id!r} in {session.state.value}"
        f" cannot take event {action!r}"
    )


def _prelude(session, action, body):
    """The start both transitions share. Returns True when the message
    is a ``reject`` that closed the live session, so the transition is
    done."""
    if action != "reject" or session.terminal():
        return False
    session.reject_reason = body["reason"]
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


def provider_transition(session, action, body, agent):
    """Apply one inbound message: its action and its parsed body."""
    if _prelude(session, action, body):
        return
    state = session.state
    negotiating = state in (ProviderState.TERMS_PROPOSED, ProviderState.NEGOTIATING)

    if state is ProviderState.IDLE and action == "request_info":
        session.content_id = body["content_id"]
        session.jurisdiction, session.offer = body["jurisdiction"], body["offer"]
        session.state = ProviderState.EVALUATING
        agent.evaluate_request(session)
    elif negotiating and action == "counter_terms":
        session.round = max(session.round, body["round"])
        session.state = ProviderState.NEGOTIATING
        agent.evaluate_counter(session, body["suggestions"])
    elif negotiating and action == "accept_terms":
        if body["terms_hash"] != terms_hash(session.terms):
            raise _violation(session, action)
        _provider_enter_settlement(session, agent)
    elif state is ProviderState.AWAITING_PAYMENT and action == "payment_confirmed":
        if body["amount"] != session.terms.upfront_fee:
            raise _violation(session, action)
        session.state = ProviderState.AWAITING_TOKEN
    elif state is ProviderState.AWAITING_TOKEN and action == "license_token":
        agent.atomic_exchange(session, body["token"])
    elif state is ProviderState.AWAITING_ACK and action == "acknowledge_receipt":
        if body["license_id"] != agent.ledger.session_agreement(session.session_id).license_id:
            raise _violation(session, action)
        session.acknowledged = True
        _provider_complete(session, agent)
    else:
        raise _violation(session, action)


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
    body = {"terms": terms.canonical, "round": session.round}
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
    _send(session, "final_terms", {"terms": terms.canonical, "round": session.round})


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


def requester_transition(session, action, body, agent):
    """Apply one inbound message: its action and its parsed body."""
    if _prelude(session, action, body):
        return
    state = session.state

    if state is RequesterState.AWAITING_TERMS and action == "non_ip_notice":
        if body["content_id"] != session.content_id:
            raise _violation(session, action)
        session.content = body["content"]
        session.state = RequesterState.COMPLETED
        agent.remember(f"Received non-IP content: {session.content_id}")
    elif (
        state in (RequesterState.AWAITING_TERMS, RequesterState.COUNTERING)
        and action in ("propose_terms", "final_terms")
    ):
        session.terms = body["terms"]
        if action == "propose_terms":  # final terms revise the terms only
            session.previous_license_id = body["previous_license_id"]
        session.round = max(session.round, body["round"])
        session.state = RequesterState.EVALUATING_TERMS
        agent.answer_offer(session)
    elif state is RequesterState.PAYING and action == "payment_required":
        if body["amount"] != session.terms.upfront_fee:
            raise _violation(session, action)
        agent.settle(session, body["amount"], body["split"])
    elif state is RequesterState.AWAITING_DELIVERY and action == "deliver_ip":
        # The license is the chain's agreement for this session; the
        # frame only has to carry it unchanged, in bytes.
        agreement = agent.ledger.session_agreement(session.session_id)
        if (
            agreement is None
            or body["content_id"] != session.content_id
            or agreement.terms_hash != terms_hash(session.terms)
            or body["token"] != canon.dumps(token_to_value(agreement))
        ):
            raise _violation(session, action)
        session.content = body["content"]
        if session.config.ack_required:
            _send(session, "acknowledge_receipt", {"license_id": agreement.license_id})
        agent.record_license(session)
        session.state = RequesterState.COMPLETED
    else:
        raise _violation(session, action)


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
# previous one. Ack waits reuse the negotiation timeout. A requester whose
# answer never arrives while negotiating leaves the provider to proceed on
# the standing terms.
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
