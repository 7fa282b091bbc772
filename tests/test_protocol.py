"""Protocol: wire codec strictness and per-transition behavior."""

from decimal import Decimal

import pytest

from atcpip.errors import MalformedFrame, ProtocolViolation
from atcpip.ledger import Ledger, token_to_value
from atcpip.payments import SplitPlan
from atcpip.protocol import (
    NO_DELIVERY_FAILURE,
    NO_PAYMENT_FAILURE,
    NO_TOKEN_FAILURE,
    NON_IP_NOTE,
    TERMINAL,
    WAITS,
    ProtocolMessage,
    ProviderSession,
    ProviderState,
    RequesterSession,
    RequesterState,
    SessionConfig,
    decode_message,
    encode_message,
    expire,
    fail,
    provider_deliver,
    provider_propose,
    provider_transition,
    read_frame,
    requester_accept,
    requester_counter,
    requester_open,
    requester_paid,
    requester_transition,
)
from atcpip.terms import terms_hash
from atcpip.runtime import CatalogItem
from atcpip.trust import replay_records
from conftest import make_terms, make_world, mint_agreement, pump, transaction_records


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


@pytest.mark.parametrize(
    "fields",
    [
        {"negotiation_timeout": True},
        {"negotiation_timeout": 1.5},
        {"settlement_timeout": 0},
        {"settlement_timeout": 2**63},
        {"ack_required": 1},
        {"ack_required": "yes"},
    ],
)
def test_session_config_refuses_mistyped_fields(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        SessionConfig(**fields)


def test_session_config_takes_timeouts_up_to_64_bits():
    assert SessionConfig(settlement_timeout=2**63 - 1).settlement_timeout == 2**63 - 1


# -- provider transitions ---------------------------------------------------------


class RecordingAgent:
    """Stands in for the runtime behind one session. Each call a
    transition or step makes on it is recorded as (method, session state,
    messages the session had numbered, other arguments) and sends
    nothing; ``payment_plan`` answers with ``plan``, and ``ledger`` is the
    chain the requester checks a delivery against. What the session sent
    is read from its outbox with ``drain``."""

    def __init__(self, session, plan=None, ledger=None):
        self.session, self.plan, self.ledger, self.calls = session, plan, ledger, []

    def __getattr__(self, name):
        def call(*args):
            if args and args[0] is self.session:
                args = args[1:]
            self.calls.append((name, self.session.state, self.session.out_seq, *args))
            return self.plan if name == "payment_plan" else None

        return call


def provider_session(config=SessionConfig(), **kwargs):
    return ProviderSession(
        session_id="s1", provider_id="provider", requester_id="requester", config=config, **kwargs
    )


def paid_terms():
    return make_terms(upfront_fee=10)


def test_provider_happy_path_states():
    session = provider_session()
    agent = RecordingAgent(session, plan=SplitPlan(10, (("provider", 10),)))
    provider_transition(session, msg("request_info", {"content_id": "data-1"}), agent)
    assert session.state is ProviderState.EVALUATING
    assert session.drain() == [] and session.request_body == {"content_id": "data-1"}
    assert agent.calls == [("evaluate_request", ProviderState.EVALUATING, 0)]

    terms = paid_terms()
    digest = terms_hash(terms)
    provider_propose(session, agent, terms)
    assert session.state is ProviderState.TERMS_PROPOSED
    # The draft is minted before the proposal takes seq 0.
    assert agent.calls[-1] == ("mint_draft", ProviderState.TERMS_PROPOSED, 0, terms)
    [proposal] = session.drain()
    assert proposal.action == "propose_terms" and proposal.body["round"] == 1
    assert proposal.seq == 0 and "previous_license_id" not in proposal.body

    provider_transition(session, msg("accept_terms", {"terms_hash": digest}), agent)
    outputs = session.drain()
    assert session.state is ProviderState.AWAITING_PAYMENT
    assert agent.calls[-1] == ("payment_plan", ProviderState.AWAITING_PAYMENT, 1)
    assert outputs[0].action == "payment_required"
    assert outputs[0].body == {"amount": 10, "split": [{"to": "provider", "amount": 10}]}

    provider_transition(session, msg("payment_confirmed", {"amount": 10}, seq=1), agent)
    assert session.state is ProviderState.AWAITING_TOKEN

    provider_transition(session, msg("license_token", {"token": {"fake": True}}, seq=2), agent)
    # The exchange runs while the session still waits for the token.
    assert session.state is ProviderState.AWAITING_TOKEN
    assert session.drain() == []
    assert agent.calls[-1] == ("atomic_exchange", ProviderState.AWAITING_TOKEN, 2, {"fake": True})


def test_provider_zero_fee_skips_payment():
    session = provider_session()
    agent = RecordingAgent(session)
    provider_transition(session, msg("request_info", {"content_id": "c"}), agent)
    terms = make_terms(upfront_fee=0)
    provider_propose(session, agent, terms)
    session.drain()
    provider_transition(session, msg("accept_terms", {"terms_hash": terms_hash(terms)}), agent)
    assert session.state is ProviderState.AWAITING_TOKEN
    assert session.drain() == [] and "payment_plan" not in [call[0] for call in agent.calls]


def test_provider_delivery_and_ack_paths():
    book = Ledger()
    book.register_agent("provider", b"p")
    book.register_agent("requester", b"r")
    terms = make_terms()
    token = mint_agreement(book, "requester", "provider", terms, "2025-01-01", session_id="s1")

    session = provider_session(state=ProviderState.AWAITING_TOKEN, content_id="c")
    agent = RecordingAgent(session)
    provider_deliver(session, agent, token, "bytes")
    outputs = session.drain()
    assert session.state is ProviderState.COMPLETED
    assert outputs[0].action == "deliver_ip"
    assert outputs[0].body["token"] == token_to_value(token)
    # The deal is recorded after the delivery took its seq.
    assert agent.calls == [("record_issue", ProviderState.COMPLETED, 1)]

    acky = ProviderSession(session_id="s2", provider_id="provider", requester_id="requester",
                           config=SessionConfig(ack_required=True),
                           state=ProviderState.AWAITING_TOKEN, content_id="c")
    agent = RecordingAgent(acky)
    provider_deliver(acky, agent, token, "bytes")
    assert acky.state is ProviderState.AWAITING_ACK
    assert agent.calls == []
    assert [message.action for message in acky.drain()] == ["deliver_ip"]
    provider_transition(acky, msg("acknowledge_receipt", {"license_id": "x"}), agent)
    assert acky.state is ProviderState.COMPLETED and acky.acknowledged
    assert acky.drain() == []
    assert agent.calls == [("record_issue", ProviderState.COMPLETED, 1)]


def test_provider_ack_timeout_still_completes():
    session = provider_session(config=SessionConfig(ack_required=True),
                               state=ProviderState.AWAITING_ACK)
    agent = RecordingAgent(session)
    expire(session, agent)
    assert session.state is ProviderState.COMPLETED
    assert not session.acknowledged
    assert session.drain() == []
    assert agent.calls == [("record_issue", ProviderState.COMPLETED, 0)]


def test_provider_timeout_failures_use_fixed_reasons():
    session = provider_session(state=ProviderState.AWAITING_TOKEN)
    agent = RecordingAgent(session)
    expire(session, agent)
    assert session.state is ProviderState.FAILED
    assert session.failure_reason == NO_TOKEN_FAILURE
    assert agent.calls == [
        ("remember", ProviderState.FAILED, 0, f"Session failed: {NO_TOKEN_FAILURE}")
    ]

    session = provider_session(state=ProviderState.AWAITING_PAYMENT)
    expire(session, RecordingAgent(session))
    assert session.failure_reason == NO_PAYMENT_FAILURE


def test_provider_negotiation_timeout_defaults_to_standing_terms():
    session = provider_session(state=ProviderState.TERMS_PROPOSED)
    session.terms = paid_terms()
    agent = RecordingAgent(session, plan=SplitPlan(10, (("provider", 10),)))
    expire(session, agent)
    assert session.state is ProviderState.AWAITING_PAYMENT
    assert agent.calls == [("payment_plan", ProviderState.AWAITING_PAYMENT, 0)]
    assert [message.action for message in session.drain()] == ["payment_required"]


@pytest.mark.parametrize(
    "fee,amount", [(10, 9), (10, 11), (10, Decimal("10.0000")), (1, True)]
)
def test_provider_refuses_a_confirmation_for_another_amount(fee, amount):
    session = provider_session(
        state=ProviderState.AWAITING_PAYMENT, terms=make_terms(upfront_fee=fee)
    )
    agent = RecordingAgent(session)
    with pytest.raises(ProtocolViolation):
        provider_transition(session, msg("payment_confirmed", {"amount": amount}), agent)
    assert session.state is ProviderState.AWAITING_PAYMENT
    assert agent.calls == []


def test_provider_exchange_abort_fails_session():
    session = provider_session(state=ProviderState.AWAITING_TOKEN)
    fail(session, RecordingAgent(session), NO_TOKEN_FAILURE)
    assert session.drain() == []
    assert session.state is ProviderState.FAILED
    assert session.failure_reason == NO_TOKEN_FAILURE


def test_provider_rejects_wrong_accept_hash_and_terminal_events():
    session = provider_session(state=ProviderState.TERMS_PROPOSED)
    session.terms = paid_terms()
    agent = RecordingAgent(session)
    with pytest.raises(ProtocolViolation):
        provider_transition(session, msg("accept_terms", {"terms_hash": "f" * 64}), agent)
    done = provider_session(state=ProviderState.COMPLETED)
    with pytest.raises(ProtocolViolation):
        provider_transition(done, msg("request_info", {"content_id": "c"}), RecordingAgent(done))
    with pytest.raises(ProtocolViolation):
        expire(done, RecordingAgent(done))
    assert agent.calls == [] and session.state is ProviderState.TERMS_PROPOSED


def test_reject_message_closes_either_side():
    provider = provider_session(state=ProviderState.AWAITING_TOKEN)
    provider_transition(provider, msg("reject", {"reason": "changed my mind"}),
                        RecordingAgent(provider))
    assert provider.state is ProviderState.REJECTED
    assert provider.reject_reason == "changed my mind"

    requester = requester_session(state=RequesterState.AWAITING_TERMS)
    requester_transition(requester, msg("reject", {"reason": "not for sale"},
                                        sender="provider", recipient="requester"),
                         RecordingAgent(requester))
    assert requester.state is RequesterState.REJECTED


def test_non_ip_notice_completes_without_license():
    session = requester_session(state=RequesterState.AWAITING_TERMS)
    agent = RecordingAgent(session)
    requester_transition(
        session,
        msg("non_ip_notice", {"content_id": "c", "content": "plain text", "note": NON_IP_NOTE},
            sender="provider", recipient="requester"),
        agent,
    )
    assert session.state is RequesterState.COMPLETED
    assert session.content == "plain text"
    assert session.drain() == []
    assert agent.calls == [("remember", RequesterState.COMPLETED, 0, "Received non-IP content: c")]


# -- requester transitions ----------------------------------------------------------


def requester_session(**kwargs):
    return RequesterSession(
        session_id="s1", requester_id="requester", provider_id="provider", config=SessionConfig(),
        **kwargs,
    )


def test_requester_happy_path_states():
    session = requester_session()
    assert session.state is RequesterState.AWAITING_TERMS
    agent = RecordingAgent(session)
    requester_open(session, "data-1")
    outputs = session.drain()
    assert session.state is RequesterState.AWAITING_TERMS
    assert outputs[0].action == "request_info"
    assert outputs[0].body == {"content_id": "data-1"}

    terms = paid_terms()
    requester_transition(
        session,
        msg("propose_terms", {"terms": terms.to_value(), "round": 1},
            sender="provider", recipient="requester"),
        agent,
    )
    assert session.state is RequesterState.EVALUATING_TERMS
    assert session.drain() == []
    assert agent.calls == [("answer_offer", RequesterState.EVALUATING_TERMS, 1)]
    assert session.terms == terms

    requester_accept(session, agent)
    outputs = session.drain()
    assert session.state is RequesterState.PAYING
    assert [message.action for message in outputs] == ["accept_terms"]
    assert outputs[0].body == {"terms_hash": terms_hash(terms)}

    split = [{"to": "provider", "amount": 10}]
    requester_transition(
        session,
        msg("payment_required", {"amount": 10, "split": split},
            sender="provider", recipient="requester", seq=1),
        agent,
    )
    assert session.drain() == []
    assert agent.calls[-1] == ("settle", RequesterState.PAYING, 2, 10, split)

    requester_paid(session, agent, 10)
    assert session.state is RequesterState.PAYING
    assert [message.action for message in session.drain()] == ["payment_confirmed"]
    # The token is prepared after the confirmation took its seq, while
    # the session still waits in paying.
    assert agent.calls[-1] == ("prepare_token", RequesterState.PAYING, 3)


def test_requester_free_terms_prepare_the_token_while_evaluating():
    session = requester_session(state=RequesterState.EVALUATING_TERMS)
    session.terms = make_terms(upfront_fee=0)
    agent = RecordingAgent(session)
    requester_accept(session, agent)
    assert session.state is RequesterState.EVALUATING_TERMS
    assert [message.action for message in session.drain()] == ["accept_terms"]
    # The token is prepared after the acceptance took its seq.
    assert agent.calls == [("prepare_token", RequesterState.EVALUATING_TERMS, 1)]


def test_requester_counter_flow():
    session = requester_session(state=RequesterState.EVALUATING_TERMS)
    session.terms = make_terms(royalty_rate="0.30")
    countered = session.terms.replace(royalty_rate=Decimal("0.1000"))
    agent = RecordingAgent(session)
    requester_counter(
        session,
        agent,
        [{"path": ["royalty_rate"], "op": "set", "value": Decimal("0.1000")}],
        countered,
    )
    outputs = session.drain()
    assert session.state is RequesterState.COUNTERING
    assert session.counters_used == 1
    # The countered draft is minted before the counter takes seq 0.
    assert agent.calls == [("mint_draft", RequesterState.COUNTERING, 0, countered)]
    assert outputs[0].action == "counter_terms" and outputs[0].seq == 0
    assert outputs[0].body["round"] == 1

    final = msg("final_terms", {"terms": countered.to_value(), "round": 2},
                sender="provider", recipient="requester", seq=1)
    requester_transition(session, final, agent)
    assert session.state is RequesterState.EVALUATING_TERMS
    assert session.round == 2
    assert session.drain() == []


def test_requester_validates_payment_request():
    session = requester_session(state=RequesterState.PAYING)
    session.terms = paid_terms()
    agent = RecordingAgent(session)
    bad_amount = msg("payment_required", {"amount": 11, "split": [{"to": "p", "amount": 11}]},
                     sender="provider", recipient="requester")
    with pytest.raises(ProtocolViolation):
        requester_transition(session, bad_amount, agent)
    for split in (
        [{"to": "p", "amount": 9}],
        [{"to": "p", "amount": 110}, {"to": "bystander", "amount": -100}],
        [{"to": "p", "amount": "10"}],
        [{"to": "p", "amount": 9}, {"to": "q", "amount": True}],
        [{"to": "", "amount": 10}],
        [{"to": 7, "amount": 10}],
        [{"to": "p", "amount": 10, "memo": "x"}],
        [["p", 10]],
        {"p": 10},
    ):
        bad_split = msg("payment_required", {"amount": 10, "split": split},
                        sender="provider", recipient="requester")
        with pytest.raises(ProtocolViolation):
            requester_transition(session, bad_split, agent)
    assert session.state is RequesterState.PAYING
    assert agent.calls == []
    good_split = [{"to": "q", "amount": 0}, {"to": "p", "amount": 10}]
    good = msg("payment_required", {"amount": 10, "split": good_split},
               sender="provider", recipient="requester")
    requester_transition(session, good, agent)
    assert agent.calls == [("settle", RequesterState.PAYING, 0, 10, good_split)]


def test_requester_delivery_checks_token_binding():
    book = Ledger()
    book.register_agent("provider", b"p")
    book.register_agent("requester", b"r")
    terms = make_terms()
    token = mint_agreement(book, "requester", "provider", terms, "2025-01-01", session_id="s1")

    session = requester_session(state=RequesterState.AWAITING_DELIVERY)
    session.terms = terms
    agent = RecordingAgent(session, ledger=book)
    delivery = msg("deliver_ip",
                   {"content_id": "c", "content": "bytes", "token": token_to_value(token)},
                   sender="provider", recipient="requester")
    requester_transition(session, delivery, agent)
    assert session.content == "bytes"
    assert session.drain() == []
    # The license is recorded while the session still awaits delivery,
    # then the session completes.
    assert agent.calls == [("record_license", RequesterState.AWAITING_DELIVERY, 0)]
    assert session.state is RequesterState.COMPLETED

    # uncommitted token (no height) must be refused
    stale = requester_session(state=RequesterState.AWAITING_DELIVERY)
    stale.terms = terms
    uncommitted = token_to_value(token)
    del uncommitted["height"]
    with pytest.raises(ProtocolViolation):
        requester_transition(
            stale,
            msg("deliver_ip", {"content_id": "c", "content": "b", "token": uncommitted},
                sender="provider", recipient="requester"),
            RecordingAgent(stale, ledger=book),
        )


def test_requester_timeout_reasons():
    for state, reason in [
        (RequesterState.AWAITING_TERMS, "No terms received."),
        (RequesterState.COUNTERING, "No final terms received."),
        (RequesterState.PAYING, "No payment request received."),
        (RequesterState.AWAITING_DELIVERY, NO_DELIVERY_FAILURE),
    ]:
        session = requester_session(state=state)
        expire(session, RecordingAgent(session))
        assert session.state is RequesterState.FAILED
        assert session.failure_reason == reason


def test_terms_breaking_a_rule_are_a_protocol_violation_on_receipt():
    _, _, _, runtimes = make_world({"req": {}})
    requester = runtimes["req"]
    requester.start_request("s1", "prov", "item")
    bad = dict(make_terms().to_value(), royalty_rate=Decimal("1.5000"))
    proposal = msg("propose_terms", {"terms": bad, "round": 1}, sender="prov", recipient="req")
    assert requester.receive_message(proposal) == []
    assert requester.session("s1").state is RequesterState.AWAITING_TERMS
    note = requester.memory_texts()[-1]
    assert note.startswith("Protocol violation: terms in message do not parse: ")
    assert note.endswith("royalty_rate: out of range [0,1]")


def test_token_whose_terms_break_a_rule_makes_the_provider_abort():
    item = CatalogItem("item", "content", tags=("dataset",), terms=make_terms())
    ledger, _, _, runtimes = make_world({"prov": {"items": (item,)}, "req": {}})
    provider, requester = runtimes["prov"], runtimes["req"]
    [request] = requester.start_request("s1", "prov", "item")
    [proposal] = provider.receive_message(request)
    acceptance, token_message = requester.receive_message(proposal)
    provider.receive_message(acceptance)
    assert provider.session("s1").state is ProviderState.AWAITING_TOKEN
    token = dict(token_message.body["token"])
    token["terms"] = dict(token["terms"], jurisdiction="ZZ")
    tampered = msg("license_token", {"token": token}, sender="req", recipient="prov",
                   seq=token_message.seq)
    assert provider.receive_message(tampered) == []
    session = provider.session("s1")
    assert session.state is ProviderState.FAILED
    assert session.failure_reason == NO_TOKEN_FAILURE
    assert ledger.session_agreement("s1") is None


# The states that are not terminal and still wait on nothing, each with
# why a session may rest there. Every other state that is not terminal
# has a row in WAITS, so a session in it always ends.
UNCLOCKED = {
    ProviderState.IDLE: "a provider session is created in it and leaves it in the same call",
    ProviderState.EVALUATING: "a courtship request is held here until its item's courtship"
    " is decided, with no clock yet",
    RequesterState.EVALUATING_TERMS: "a requester whose counter budget is spent goes silent"
    " here, with no clock yet",
}


def test_every_resting_state_waits_or_is_named_unclocked():
    states = [*ProviderState, *RequesterState]
    unclocked = [state for state in states if state not in TERMINAL and state not in WAITS]
    assert unclocked == list(UNCLOCKED)


def test_timer_in_evaluating_terms_is_a_violation():
    # evaluating_terms has no wait, so no timer may expire there.
    session = requester_session(state=RequesterState.EVALUATING_TERMS)
    agent = RecordingAgent(session)
    with pytest.raises(ProtocolViolation):
        expire(session, agent)
    assert session.state is RequesterState.EVALUATING_TERMS and agent.calls == []


def _forge_uncommitted(ledger, token_message, genuine):
    # The requester's own token, claiming a height it was never given.
    return dict(token_message.body["token"], height=ledger.height)


def _forge_other_session(ledger, token_message, genuine):
    # A token the chain committed, but for another requester's session.
    return token_to_value(ledger.session_agreement("s0"))


def _forge_one_field(ledger, token_message, genuine):
    # The chain's agreement for this very session, one field changed.
    return dict(genuine.body["token"], requester_signature="0" * 64)


@pytest.mark.parametrize(
    "forge", [_forge_uncommitted, _forge_other_session, _forge_one_field]
)
def test_requester_refuses_a_delivery_the_chain_does_not_back(forge):
    item = CatalogItem("item", "content", tags=("dataset",), terms=make_terms())
    ledger, _, _, runtimes = make_world({"prov": {"items": (item,)}, "req": {}, "other": {}})
    pump(runtimes, runtimes["other"].start_request("s0", "prov", "item"))
    provider, requester = runtimes["prov"], runtimes["req"]
    [request] = requester.start_request("s1", "prov", "item")
    [proposal] = provider.receive_message(request)
    acceptance, token_message = requester.receive_message(proposal)
    provider.receive_message(acceptance)
    genuine = None
    if forge is _forge_one_field:
        [genuine] = provider.receive_message(token_message)
    forged = msg("deliver_ip", {"content_id": "item", "content": "content",
                                "token": forge(ledger, token_message, genuine)},
                 sender="prov", recipient="req", seq=1)

    assert requester.receive_message(forged) == []
    session = requester.session("s1")
    assert session.state is RequesterState.AWAITING_DELIVERY and session.content is None
    assert requester.memory_texts()[-1] == (
        "Protocol violation: requester session 's1' in awaiting_delivery"
        " cannot take event 'deliver_ip'"
    )
    assert "item" not in requester.tokens and not transaction_records(requester)
    assert {"kind": "reputation_event", "agent_id": "req", "event": "deal_completed"} not in [
        entry.payload for entry in ledger.entries()
    ]
    assert replay_records(ledger.entries())["req"].successful_deals == 0

    # The genuine delivery still completes the session afterwards.
    if genuine is None:
        [genuine] = provider.receive_message(token_message)
    assert requester.receive_message(genuine) == []
    assert session.state is RequesterState.COMPLETED
    assert requester.tokens["item"] is ledger.session_agreement("s1")
