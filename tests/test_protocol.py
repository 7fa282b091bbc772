"""Protocol: wire codec strictness and per-transition behavior."""

from decimal import Decimal

import pytest

from atcpip.errors import MalformedFrame, ProtocolViolation
from atcpip.ledger import Ledger, token_to_value
from atcpip.protocol import (
    NO_DELIVERY_FAILURE,
    NO_PAYMENT_FAILURE,
    NO_TOKEN_FAILURE,
    NON_IP_NOTE,
    Command,
    InternalDecision,
    ProtocolMessage,
    ProviderSession,
    ProviderState,
    RequesterSession,
    RequesterState,
    SessionConfig,
    TimerExpired,
    decode_message,
    encode_message,
    provider_transition,
    read_frame,
    requester_transition,
)
from atcpip.terms import terms_hash
from conftest import make_terms, mint_agreement


def msg(action, body, sender="requester", recipient="provider", seq=0, session="s1"):
    return ProtocolMessage(session, seq, sender, recipient, action, body)


# -- codec ---------------------------------------------------------------------


def test_encode_decode_round_trip():
    terms = make_terms()
    original = msg("propose_terms", {"terms": terms.to_value(), "round": 1}, sender="provider",
                   recipient="requester")
    assert decode_message(encode_message(original)) == original


def test_frame_is_length_prefixed_canonical_json():
    framed = encode_message(msg("reject", {"reason": "no"}))
    declared = int.from_bytes(framed[:4], "big")
    assert declared == len(framed) - 4
    assert framed[4:5] == b"{"


def test_read_frame_splits_streams():
    one = encode_message(msg("reject", {"reason": "a"}))
    two = encode_message(msg("reject", {"reason": "b"}, seq=1))
    first, rest = read_frame(one + two)
    second, tail = read_frame(rest)
    assert first.body["reason"] == "a" and second.body["reason"] == "b"
    assert tail == b""


def test_decode_rejects_damaged_frames():
    good = encode_message(msg("reject", {"reason": "no"}))
    with pytest.raises(MalformedFrame):
        decode_message(good[:3])  # short header
    with pytest.raises(MalformedFrame):
        decode_message(good[:-1])  # truncated payload
    with pytest.raises(MalformedFrame):
        decode_message(good + b"x")  # trailing bytes
    with pytest.raises(MalformedFrame):
        decode_message(good[:4] + b" " + good[5:])  # whitespace, same length


def _frame(raw):
    return len(raw).to_bytes(4, "big") + raw


def test_decode_rejects_non_canonical_payloads():
    with pytest.raises(MalformedFrame):
        decode_message(_frame(b'{"action":"reject"}'))  # missing fields
    raw = (
        b'{"action":"launch_missiles","body":{"reason":"x"},"recipient":"p",'
        b'"sender":"r","seq":0,"session_id":"s"}'
    )
    with pytest.raises(MalformedFrame):
        decode_message(_frame(raw))  # unknown action
    raw = (
        b'{"action":"reject","body":{},"recipient":"p",'
        b'"sender":"r","seq":0,"session_id":"s"}'
    )
    with pytest.raises(MalformedFrame):
        decode_message(_frame(raw))  # body missing required key
    raw = (
        b'{"action":"reject","body":{"reason":"x"},"recipient":"p",'
        b'"sender":"r","seq":-1,"session_id":"s"}'
    )
    with pytest.raises(MalformedFrame):
        decode_message(_frame(raw))  # negative seq
    raw = (
        b'{"body":{"reason":"x"},"action":"reject","recipient":"p",'
        b'"sender":"r","seq":0,"session_id":"s"}'
    )
    with pytest.raises(MalformedFrame):
        decode_message(_frame(raw))  # keys out of canonical order


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(negotiation_timeout=0)
    with pytest.raises(ValueError):
        SessionConfig(settlement_timeout=-1)
    assert SessionConfig().negotiation_timeout == 10
    assert SessionConfig().settlement_timeout == 30
    assert SessionConfig().ack_required is False


# -- provider transitions ---------------------------------------------------------


def provider_session(**kwargs):
    return ProviderSession("s1", "provider", "requester", SessionConfig(), **kwargs)


def paid_terms():
    return make_terms(upfront_fee=10)


def test_provider_happy_path_states():
    session = provider_session()
    outputs = provider_transition(session, msg("request_info", {"content_id": "data-1"}))
    assert session.state is ProviderState.EVALUATING
    assert outputs == [Command("evaluate_request", {"body": {"content_id": "data-1"}})]

    terms = paid_terms()
    digest = terms_hash(terms)
    outputs = provider_transition(
        session, InternalDecision("propose", {"terms": terms, "terms_hash": digest})
    )
    assert session.state is ProviderState.TERMS_PROPOSED
    assert outputs[0] == Command("mint_draft", {"terms": terms})
    proposal = outputs[1]
    assert proposal.action == "propose_terms" and proposal.body["round"] == 1

    outputs = provider_transition(session, msg("accept_terms", {"terms_hash": digest}))
    assert session.state is ProviderState.AWAITING_PAYMENT
    assert outputs == [Command("request_payment", {})]

    plan_value = {"amount": 10, "split": [{"to": "provider", "amount": 10}]}
    outputs = provider_transition(
        session, InternalDecision("payment_plan", {"amount": 10, "plan_value": plan_value})
    )
    assert outputs[0].action == "payment_required"
    assert outputs[0].body == {"amount": 10, "split": plan_value["split"]}

    provider_transition(session, msg("payment_confirmed", {"amount": 10}, seq=1))
    assert session.state is ProviderState.AWAITING_TOKEN

    outputs = provider_transition(
        session, msg("license_token", {"token": {"fake": True}}, seq=2)
    )
    assert session.state is ProviderState.DELIVERING
    assert outputs == [Command("atomic_exchange", {"token": {"fake": True}})]


def test_provider_zero_fee_skips_payment():
    session = provider_session()
    provider_transition(session, msg("request_info", {"content_id": "c"}))
    terms = make_terms(upfront_fee=0)
    provider_transition(
        session, InternalDecision("propose", {"terms": terms, "terms_hash": terms_hash(terms)})
    )
    provider_transition(session, msg("accept_terms", {"terms_hash": terms_hash(terms)}))
    assert session.state is ProviderState.AWAITING_TOKEN


def test_provider_delivery_and_ack_paths():
    book = Ledger()
    book.register_agent("provider", b"p")
    book.register_agent("requester", b"r")
    terms = make_terms()
    token = mint_agreement(book, "requester", "provider", terms, "2025-01-01", session_id="s1")

    session = provider_session(state=ProviderState.DELIVERING, content_id="c")
    outputs = provider_transition(
        session, InternalDecision("exchange_committed", {"token": token, "content": "bytes"})
    )
    assert session.state is ProviderState.COMPLETED
    assert outputs[0].action == "deliver_ip"
    assert outputs[0].body["token"] == token_to_value(token)
    assert outputs[1] == Command("record_transaction", {})

    acky = ProviderSession("s2", "provider", "requester", SessionConfig(ack_required=True),
                           state=ProviderState.DELIVERING, content_id="c")
    provider_transition(acky, InternalDecision("exchange_committed",
                                               {"token": token, "content": "bytes"}))
    assert acky.state is ProviderState.AWAITING_ACK
    outputs = provider_transition(acky, msg("acknowledge_receipt", {"license_id": "x"}))
    assert acky.state is ProviderState.COMPLETED and acky.acknowledged
    assert outputs == [Command("record_transaction", {})]


def test_provider_ack_timeout_still_completes():
    session = ProviderSession("s1", "provider", "requester", SessionConfig(ack_required=True),
                              state=ProviderState.AWAITING_ACK)
    outputs = provider_transition(session, TimerExpired("ack"))
    assert session.state is ProviderState.COMPLETED
    assert not session.acknowledged
    assert outputs == [Command("record_transaction", {})]


def test_provider_timeout_failures_use_fixed_reasons():
    session = provider_session(state=ProviderState.AWAITING_TOKEN)
    provider_transition(session, TimerExpired("settlement"))
    assert session.state is ProviderState.FAILED
    assert session.failure_reason == NO_TOKEN_FAILURE

    session = provider_session(state=ProviderState.AWAITING_PAYMENT)
    provider_transition(session, TimerExpired("settlement"))
    assert session.failure_reason == NO_PAYMENT_FAILURE


def test_provider_negotiation_timeout_defaults_to_standing_terms():
    session = provider_session(state=ProviderState.TERMS_PROPOSED)
    session.terms = paid_terms()
    session.terms_hash = terms_hash(session.terms)
    outputs = provider_transition(session, TimerExpired("negotiation"))
    assert session.unconfirmed
    assert session.state is ProviderState.AWAITING_PAYMENT
    assert outputs == [Command("request_payment", {})]


def test_provider_exchange_abort_fails_session():
    session = provider_session(state=ProviderState.DELIVERING)
    provider_transition(session, InternalDecision("exchange_aborted", {}))
    assert session.state is ProviderState.FAILED
    assert session.failure_reason == NO_TOKEN_FAILURE


def test_provider_rejects_wrong_accept_hash_and_terminal_events():
    session = provider_session(state=ProviderState.TERMS_PROPOSED)
    session.terms = paid_terms()
    session.terms_hash = terms_hash(session.terms)
    with pytest.raises(ProtocolViolation):
        provider_transition(session, msg("accept_terms", {"terms_hash": "f" * 64}))
    done = provider_session(state=ProviderState.COMPLETED)
    with pytest.raises(ProtocolViolation):
        provider_transition(done, msg("request_info", {"content_id": "c"}))
    with pytest.raises(ProtocolViolation):
        provider_transition(done, TimerExpired("negotiation"))


def test_reject_message_closes_either_side():
    provider = provider_session(state=ProviderState.AWAITING_TOKEN)
    provider_transition(provider, msg("reject", {"reason": "changed my mind"}))
    assert provider.state is ProviderState.REJECTED
    assert provider.reject_reason == "changed my mind"

    requester = requester_session(state=RequesterState.AWAITING_TERMS)
    requester_transition(requester, msg("reject", {"reason": "not for sale"},
                                        sender="provider", recipient="requester"))
    assert requester.state is RequesterState.REJECTED


def test_non_ip_notice_completes_without_license():
    session = requester_session(state=RequesterState.AWAITING_TERMS)
    outputs = requester_transition(
        session,
        msg("non_ip_notice", {"content_id": "c", "content": "plain text", "note": NON_IP_NOTE},
            sender="provider", recipient="requester"),
    )
    assert session.state is RequesterState.COMPLETED
    assert not session.content_licensed
    assert outputs[0].kind == "receive_content"


# -- requester transitions ----------------------------------------------------------


def requester_session(**kwargs):
    return RequesterSession("s1", "requester", "provider", SessionConfig(), **kwargs)


def test_requester_happy_path_states():
    session = requester_session()
    outputs = requester_transition(
        session, InternalDecision("start", {"content_id": "data-1"})
    )
    assert session.state is RequesterState.AWAITING_TERMS
    assert outputs[0].action == "request_info"
    assert outputs[0].body == {"content_id": "data-1"}

    terms = paid_terms()
    outputs = requester_transition(
        session,
        msg("propose_terms", {"terms": terms.to_value(), "round": 1},
            sender="provider", recipient="requester"),
    )
    assert session.state is RequesterState.EVALUATING_TERMS
    assert outputs == [Command("evaluate_offer", {"terms": terms})]

    digest = terms_hash(terms)
    outputs = requester_transition(
        session, InternalDecision("offer_accept", {"terms_hash": digest})
    )
    assert session.state is RequesterState.PAYING
    assert outputs[0].action == "accept_terms"

    outputs = requester_transition(
        session,
        msg("payment_required",
            {"amount": 10, "split": [{"to": "provider", "amount": 10}]},
            sender="provider", recipient="requester", seq=1),
    )
    assert outputs == [Command("settle", {"amount": 10,
                                          "split": [{"to": "provider", "amount": 10}]})]

    outputs = requester_transition(session, InternalDecision("payment_settled", {"amount": 10}))
    assert session.state is RequesterState.MINTING
    assert outputs[0].action == "payment_confirmed"
    assert outputs[1] == Command("prepare_token", {})


def test_requester_counter_flow():
    session = requester_session(state=RequesterState.EVALUATING_TERMS)
    session.offered_terms = make_terms(royalty_rate="0.30")
    countered = session.offered_terms.replace(royalty_rate=Decimal("0.1000"))
    outputs = requester_transition(
        session,
        InternalDecision(
            "offer_counter",
            {"delta_value": [{"path": ["royalty_rate"], "op": "set", "value": Decimal("0.1000")}],
             "countered_terms": countered},
        ),
    )
    assert session.state is RequesterState.COUNTERING
    assert session.counters_used == 1
    assert outputs[0] == Command("mint_draft", {"terms": countered})
    assert outputs[1].action == "counter_terms"
    assert outputs[1].body["round"] == 1

    final = msg("final_terms", {"terms": countered.to_value(), "round": 2},
                sender="provider", recipient="requester", seq=1)
    outputs = requester_transition(session, final)
    assert session.state is RequesterState.EVALUATING_TERMS
    assert session.round == 2


def test_requester_validates_payment_request():
    session = requester_session(state=RequesterState.PAYING)
    session.accepted_terms = paid_terms()
    session.accepted_terms_hash = terms_hash(session.accepted_terms)
    bad_amount = msg("payment_required", {"amount": 11, "split": [{"to": "p", "amount": 11}]},
                     sender="provider", recipient="requester")
    with pytest.raises(ProtocolViolation):
        requester_transition(session, bad_amount)
    bad_split = msg("payment_required", {"amount": 10, "split": [{"to": "p", "amount": 9}]},
                    sender="provider", recipient="requester")
    with pytest.raises(ProtocolViolation):
        requester_transition(session, bad_split)


def test_requester_delivery_checks_token_binding():
    book = Ledger()
    book.register_agent("provider", b"p")
    book.register_agent("requester", b"r")
    terms = make_terms()
    token = mint_agreement(book, "requester", "provider", terms, "2025-01-01", session_id="s1")

    session = requester_session(state=RequesterState.AWAITING_DELIVERY)
    session.accepted_terms = terms
    session.accepted_terms_hash = terms_hash(terms)
    delivery = msg("deliver_ip",
                   {"content_id": "c", "content": "bytes", "token": token_to_value(token)},
                   sender="provider", recipient="requester")
    outputs = requester_transition(session, delivery)
    assert session.state is RequesterState.ACKNOWLEDGING
    assert session.received_token.license_id == token.license_id
    assert outputs[-1].kind == "record_transaction"
    requester_transition(session, InternalDecision("finalize", {}))
    assert session.state is RequesterState.COMPLETED

    # uncommitted token (no height) must be refused
    stale = requester_session(state=RequesterState.AWAITING_DELIVERY)
    stale.accepted_terms = terms
    stale.accepted_terms_hash = terms_hash(terms)
    uncommitted = token_to_value(token)
    del uncommitted["height"]
    with pytest.raises(ProtocolViolation):
        requester_transition(
            stale,
            msg("deliver_ip", {"content_id": "c", "content": "b", "token": uncommitted},
                sender="provider", recipient="requester"),
        )


def test_requester_timeout_reasons():
    for state, reason in [
        (RequesterState.AWAITING_TERMS, "No terms received."),
        (RequesterState.COUNTERING, "No final terms received."),
        (RequesterState.PAYING, "No payment request received."),
        (RequesterState.AWAITING_DELIVERY, NO_DELIVERY_FAILURE),
    ]:
        session = requester_session(state=state)
        kind = "negotiation" if state in (RequesterState.AWAITING_TERMS,
                                          RequesterState.COUNTERING) else "settlement"
        requester_transition(session, TimerExpired(kind))
        assert session.state is RequesterState.FAILED
        assert session.failure_reason == reason


def test_stale_timer_kind_is_a_violation():
    session = requester_session(state=RequesterState.AWAITING_TERMS)
    with pytest.raises(ProtocolViolation):
        requester_transition(session, TimerExpired("settlement"))

