"""Simulator: determinism, timers, loss handling, conservation, replay."""

import collections
import gc
import hashlib
import heapq
import pathlib
import tracemalloc
import types
import weakref
from decimal import Decimal

import pytest

from atcpip import canon
from atcpip import runtime as runtime_module
from atcpip import sim as sim_module
from atcpip.errors import AtcpipError, CanonicalizationError, ParseError
from atcpip.protocol import (
    NO_PAYMENT_FAILURE,
    NO_PAYMENT_REQUEST_FAILURE,
    NO_TERMS_FAILURE,
    NO_TOKEN_FAILURE,
    ProtocolMessage,
    ProviderState,
    RequesterSession,
    RequesterState,
    SessionConfig,
    decode_message,
    encode_message,
    message_from_value,
)
from atcpip.scenario import scenario_from_bytes, scenario_from_value
from atcpip.scenarios import BUILTIN_SCENARIOS, builtin_bytes
from atcpip.runtime import AgentRuntime, MemoryRecord
from atcpip.sim import Simulation, check_expectations, replay, run_scenario
from atcpip.terms import LicenseTerms
from atcpip.trust import replay_records
from conftest import make_terms


def two_party_value(**overrides):
    value = {
        "name": "two_party",
        "seed": 9,
        "network": {"latency": 1},
        "agents": [
            {
                "id": "prov",
                "balance": 0,
                "catalog": [
                    {
                        "content_id": "weather",
                        "content": "temp,rain",
                        "tags": ["dataset"],
                        "terms": {"upfront_fee": 1_000_000, "duration": "2030-01-01"},
                    }
                ],
            },
            {"id": "req", "balance": 5_000_000},
        ],
        "script": [
            {
                "tick": 0,
                "action": "request",
                "requester": "req",
                "provider": "prov",
                "content_id": "weather",
                "session_id": "s1",
            }
        ],
    }
    value.update(overrides)
    return value


def transcript_lines(transcript):
    return [canon.loads(line) for line in transcript.splitlines()]


def state_lines(transcript, state):
    return [
        line
        for line in transcript_lines(transcript)
        if line["kind"] == "state" and line["state"] == state
    ]


def test_same_seed_runs_are_byte_identical():
    scenario = scenario_from_value(two_party_value(network={"latency": {"min": 0, "max": 3}}))
    first, _ = run_scenario(scenario)
    second, _ = run_scenario(scenario)
    assert first == second


def test_different_seeds_diverge_when_latency_jitters():
    scenario = scenario_from_value(two_party_value(network={"latency": {"min": 0, "max": 3}}))
    first, _ = run_scenario(scenario, seed=1)
    second, _ = run_scenario(scenario, seed=2)
    assert first != second


def test_replay_true_on_fresh_recording_and_false_after_edit():
    scenario = scenario_from_value(two_party_value())
    transcript, _ = run_scenario(scenario)
    assert replay(scenario, transcript)
    doctored = transcript.replace(b'"amount":1000000', b'"amount":1000001')
    assert doctored != transcript
    assert not replay(scenario, doctored)


def test_replay_follows_the_recorded_seed():
    scenario = scenario_from_value(two_party_value(network={"latency": {"min": 0, "max": 3}}))
    recorded, _ = run_scenario(scenario, seed=77)
    assert canon.loads(recorded.splitlines()[0])["seed"] == 77
    assert replay(scenario, recorded)
    mismatched = recorded.replace(b'"seed":77', b'"seed":78')
    assert not replay(scenario, mismatched)


def test_completed_deal_moves_the_fee_and_conserves_total():
    scenario = scenario_from_value(two_party_value())
    _, world = run_scenario(scenario)
    assert world.wallets.balance("prov") == 1_000_000
    assert world.wallets.balance("req") == 4_000_000
    assert world.conservation_intact()
    assert world.runtimes["req"].session("s1").state is RequesterState.COMPLETED
    assert world.runtimes["prov"].session("s1").state is ProviderState.COMPLETED


def test_settle_past_the_64_bit_range_moves_no_money():
    value = two_party_value()
    value["agents"][0]["balance"] = canon.INT_MAX - 10
    value["agents"][0]["catalog"][0]["terms"]["upfront_fee"] = 1_000
    value["agents"][1]["balance"] = 5_000
    transcript, world = run_scenario(scenario_from_value(value))
    assert [entry.kind for entry in world.ledger.entries()].count("payment") == 0
    assert world.wallets.balances() == {"prov": canon.INT_MAX - 10, "req": 5_000}
    requester = world.runtimes["req"].session("s1")
    assert requester.state is RequesterState.FAILED
    assert "past the 64-bit range" in requester.failure_reason
    assert world.runtimes["prov"].session("s1").failure_reason == NO_PAYMENT_FAILURE
    assert not [line for line in transcript_lines(transcript) if line["kind"] == "balance"]


def test_liveness_under_lossless_network_with_half_timeout_latency():
    value = two_party_value(network={"latency": 5})
    value["agents"][1]["balance"] = 10_000_000
    value["agents"][0]["catalog"].append(
        {
            "content_id": "rainfall",
            "content": "mm",
            "tags": ["dataset"],
            "terms": {"upfront_fee": 2_000_000, "duration": "2030-01-01"},
        }
    )
    value["script"].append(
        {
            "tick": 3,
            "action": "request",
            "requester": "req",
            "provider": "prov",
            "content_id": "rainfall",
            "session_id": "s2",
        }
    )
    scenario = scenario_from_value(value)
    _, world = run_scenario(scenario)
    for session_id in ("s1", "s2"):
        assert world.runtimes["req"].session(session_id).state is RequesterState.COMPLETED
        assert world.runtimes["prov"].session(session_id).state is ProviderState.COMPLETED


def test_dropping_every_license_token_fails_the_provider_at_request_tick_plus_30():
    value = two_party_value(
        network={"latency": 0, "drop": {"license_token": Decimal("1.0000")}}
    )
    value["script"][0]["tick"] = 7
    scenario = scenario_from_value(value)
    transcript, world = run_scenario(scenario)
    session = world.runtimes["prov"].session("s1")
    assert session.state is ProviderState.FAILED
    assert session.failure_reason == NO_TOKEN_FAILURE
    failed = [
        line
        for line in state_lines(transcript, "failed")
        if line["agent"] == "prov" and line["session"] == "s1"
    ]
    assert [line["tick"] for line in failed] == [37]
    assert failed[0]["failure"] == NO_TOKEN_FAILURE
    dropped = [
        line
        for line in transcript_lines(transcript)
        if line["kind"] == "msg" and line["status"] == "dropped"
    ]
    assert dropped and all(line["frame"]["action"] == "license_token" for line in dropped)


def test_dropping_payment_confirmation_fails_the_provider_with_payment_message():
    value = two_party_value(
        network={"latency": 0, "drop": {"payment_confirmed": Decimal("1.0000")}}
    )
    scenario = scenario_from_value(value)
    transcript, world = run_scenario(scenario)
    session = world.runtimes["prov"].session("s1")
    assert session.state is ProviderState.FAILED
    assert session.failure_reason == NO_PAYMENT_FAILURE
    failed = [
        line
        for line in state_lines(transcript, "failed")
        if line["agent"] == "prov"
    ]
    assert [line["tick"] for line in failed] == [30]


def oversubscribed_lineage_value(network):
    """``prov`` resells an item derived from ``up``'s, whose upstream
    royalty of 0.6 plus the item's extra line of 0.6 oversubscribes the
    price. The loader sees only the extra line, so the provider's
    ``payment_plan`` raises when its session ``s1`` moves on to
    settlement."""
    value = two_party_value(network=network)
    value["agents"][0]["balance"] = 10_000
    item = value["agents"][0]["catalog"][0]
    item["terms"]["upfront_fee"] = 1000
    item["derived_from"] = "base"
    item["extra_royalties"] = [{"to": "a", "share": Decimal("0.6000")}]
    upstream = {
        "content_id": "base",
        "content": "x",
        "tags": ["dataset"],
        "terms": {"upfront_fee": 100, "royalty_rate": Decimal("0.6000"), "duration": "2030-01-01"},
    }
    value["agents"] += [{"id": "up", "balance": 0, "catalog": [upstream]}, {"id": "a", "balance": 0}]
    value["script"].insert(
        0,
        {
            "tick": 0,
            "action": "request",
            "requester": "prov",
            "provider": "up",
            "content_id": "base",
            "session_id": "s0",
        },
    )
    value["script"][1]["tick"] = 50
    return value


OVERSUBSCRIBED = "royalty shares sum to 12000 units, past the whole price"


def failed_ticks(transcript):
    return {
        (line["agent"], line["session"]): (line["tick"], line["failure"])
        for line in transcript_lines(transcript)
        if line["kind"] == "state" and line["state"] == "failed"
    }


def test_a_decision_error_on_a_timer_fails_the_session():
    """The provider's negotiation timer moves it on to settlement, and
    the split it then computes raises: the session fails at once, with
    the error as its reason, in place of waiting out its payment
    clock."""
    value = oversubscribed_lineage_value(
        {"latency": 0, "drop": {"accept_terms": Decimal("1.0000")}}
    )
    transcript, world = run_scenario(scenario_from_value(value))
    assert world.conservation_intact()
    provider = world.runtimes["prov"]
    assert provider.session("s0").state is RequesterState.COMPLETED
    assert provider.session("s1").state is ProviderState.FAILED
    assert failed_ticks(transcript) == {
        ("prov", "s1"): (60, OVERSUBSCRIBED),
        ("req", "s1"): (80, NO_PAYMENT_REQUEST_FAILURE),
    }
    assert f"Session failed: {OVERSUBSCRIBED}" in provider.memory_texts()
    assert not any("handling failed" in text for text in provider.memory_texts())


def test_a_decision_error_on_a_message_fails_the_session():
    """The same split, computed when the requester's acceptance arrives."""
    transcript, world = run_scenario(scenario_from_value(oversubscribed_lineage_value({"latency": 0})))
    assert world.conservation_intact()
    provider = world.runtimes["prov"]
    assert provider.session("s1").state is ProviderState.FAILED
    assert failed_ticks(transcript) == {
        ("prov", "s1"): (50, OVERSUBSCRIBED),
        ("req", "s1"): (80, NO_PAYMENT_REQUEST_FAILURE),
    }
    assert not any("handling failed" in text for text in provider.memory_texts())


def test_dropping_terms_times_out_the_requester_after_the_listen_window():
    value = two_party_value(
        network={"latency": 0, "drop": {"propose_terms": Decimal("1.0000")}}
    )
    scenario = scenario_from_value(value)
    transcript, world = run_scenario(scenario)
    session = world.runtimes["req"].session("s1")
    assert session.state is RequesterState.FAILED
    assert session.failure_reason == NO_TERMS_FAILURE
    failed = [
        line for line in state_lines(transcript, "failed") if line["agent"] == "req"
    ]
    assert [line["tick"] for line in failed] == [10]


def test_lossy_network_still_conserves_money():
    value = two_party_value(
        seed=123,
        network={
            "latency": {"min": 0, "max": 2},
            "drop": {
                "propose_terms": Decimal("0.3000"),
                "license_token": Decimal("0.3000"),
                "payment_confirmed": Decimal("0.3000"),
                "deliver_ip": Decimal("0.3000"),
            },
        },
    )
    scenario = scenario_from_value(value)
    for seed in range(20):
        _, world = run_scenario(scenario, seed=seed)
        assert world.conservation_intact()


def test_timer_restarts_while_negotiation_is_alive():
    value = two_party_value(network={"latency": 4})
    value["agents"][1]["policy"] = {
        "bounds": {"royalty_rate": {"min": Decimal("0.0000"), "max": Decimal("0.0100")}}
    }
    scenario = scenario_from_value(value)
    _, world = run_scenario(scenario)
    assert world.runtimes["req"].session("s1").state is RequesterState.COMPLETED
    token = world.runtimes["req"].tokens["weather"]
    assert token.terms.royalty_rate == Decimal("0.0100")


def test_date_break_expires_terms_before_minting():
    value = two_party_value()
    value["clock_date_map"] = {"0": "2024-01-01", "3": "2031-01-01"}
    scenario = scenario_from_value(value)
    _, world = run_scenario(scenario)
    session = world.runtimes["req"].session("s1")
    assert session.state is RequesterState.FAILED
    assert world.wallets.balance("prov") == 1_000_000  # paid before expiry hit minting


def test_usage_and_dispute_script_events_reach_the_ledger():
    value = two_party_value()
    value["agents"][0]["catalog"][0]["terms"]["revocation_conditions"] = ["dispute_loss"]
    value["script"].extend(
        [
            {
                "tick": 20,
                "action": "usage",
                "agent": "req",
                "session_id": "s1",
                "tags": ["redistribute"],
            },
            {
                "tick": 30,
                "action": "dispute",
                "claimant": "prov",
                "session_id": "s1",
                "kind": "usage_violation",
            },
        ]
    )
    scenario = scenario_from_value(value)
    _, world = run_scenario(scenario)
    kinds = [entry.kind for entry in world.ledger.entries()]
    assert "dispute" in kinds and "verdict" in kinds
    token = world.runtimes["req"].tokens["weather"]
    verdict = [entry for entry in world.ledger.entries() if entry.kind == "verdict"][-1]
    assert verdict.payload["revokes_license_id"] == token.license_id
    assert not world.ledger.verify_token(token, token.terms)
    records = replay_records(world.ledger.entries())
    assert records["prov"].disputes_won == 1
    assert records["req"].disputes_lost == 1


def test_dispute_before_any_agreement_becomes_a_memory_note():
    value = two_party_value()
    value["script"] = [
        value["script"][0],
        {
            "tick": 0,
            "action": "dispute",
            "claimant": "prov",
            "session_id": "s1",
            "kind": "payment_default",
        },
    ]
    scenario = scenario_from_value(value)
    _, world = run_scenario(scenario)
    assert any(
        "Dispute without license" in text
        for text in world.runtimes["prov"].memory_texts()
    )


def test_script_events_beyond_max_ticks_are_cut_off():
    value = two_party_value(max_ticks=5)
    value["script"].append(
        {"tick": 50, "action": "log", "agent": "req", "text": "never happens"}
    )
    scenario = scenario_from_value(value)
    _, world = run_scenario(scenario)
    assert "never happens" not in world.runtimes["req"].memory_texts()
    assert world.final_tick <= 5


def test_builtin_expectations_all_hold():
    for name in BUILTIN_SCENARIOS:
        scenario = __import__("atcpip.scenario", fromlist=["scenario_from_bytes"]).scenario_from_bytes(
            builtin_bytes(name)
        )
        _, world = run_scenario(scenario)
        assert check_expectations(scenario, world) == []
        assert world.conservation_intact()


def test_transcript_records_memory_and_balance_lines():
    scenario = scenario_from_value(two_party_value())
    transcript, _ = run_scenario(scenario)
    kinds = {line["kind"] for line in transcript_lines(transcript)}
    assert {"meta", "msg", "ledger", "balance", "state", "memory"} <= kinds
    meta = transcript_lines(transcript)[0]
    assert meta == {"kind": "meta", "scenario": "two_party", "seed": 9}


def test_transcript_hash_is_stable_across_three_runs():
    scenario = scenario_from_value(two_party_value(seed=31))
    hashes = {
        hashlib.sha256(run_scenario(scenario)[0]).hexdigest() for _ in range(3)
    }
    assert len(hashes) == 1


def lossy_jitter_value():
    """Negotiating requesters on a jittery network that loses counters and
    payment confirmations, so negotiation, settlement and delivery timers
    all fire; no built-in scenario has drops or jitter."""
    fee = {"bounds": {"upfront_fee": {"min": 0, "max": 3_600_000}}}
    requests = [(0, "r1"), (0, "r2"), (1, "r3"), (4, "r1"), (6, "r2"), (9, "r1")]
    return {
        "name": "lossy_jitter",
        "seed": 2,
        "network": {
            "latency": {"min": 1, "max": 3},
            "drop": {
                "counter_terms": Decimal("0.3000"),
                "payment_confirmed": Decimal("0.3000"),
            },
        },
        "agents": [
            {
                "id": "prov",
                "tier": "conservative",
                "policy": {"bounds": {"upfront_fee": {"min": 3_500_000, "max": 5_000_000}}},
                "catalog": [
                    {
                        "content_id": "weather",
                        "content": "temp,rain",
                        "tags": ["dataset"],
                        "terms": {"upfront_fee": 4_000_000, "duration": "2030-01-01"},
                    }
                ],
            },
            {"id": "r1", "balance": 20_000_000, "policy": fee},
            {"id": "r2", "balance": 20_000_000, "policy": fee},
            {"id": "r3", "balance": 20_000_000},
        ],
        "script": [
            {
                "tick": tick,
                "action": "request",
                "requester": requester,
                "provider": "prov",
                "content_id": "weather",
                "session_id": f"s{index}",
            }
            for index, (tick, requester) in enumerate(requests)
        ],
    }


# sha256 of each transcript; any change to transcript bytes shows up here.
GOLDEN_DIGESTS = {
    "uc1_dataset": "aace424c60b5ea6b970f1c34a3d456c43a1b72744d18bf8d839b14e62cad6b14",
    "uc2_social_game": "1b342fc6949bca26624d5fec8b7021d6bcf030aaf844072a470f1ab31edcf83e",
    "uc3_style_transfer": "298962b554e4ee380df41147ba0a34174297b64d9f4be13f850c037d9ff5c880",
    "uc4_multihop": "d6c909e7c62c6308795a2f4e8354345185c2c70fcde847f6e9976faa26cb6976",
    "lossy_jitter": "281da881b4e4f114cae942a5a7b38bdd369ed6e99f72dc9d514247fe67545f34",
    "market_60_1": "378ea715f70c787aa67dafb3e4dd1b74ef9b8ccc3e41fd269215c6358df8d98a",
    "hot_provider_60_1": "d67476829c36279bd21dafa8af5eb7a66f828bc84d10c23ee6b8b5b08c925727",
}

WORLDS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "worlds.py"


def load_worlds():
    """The benchmark's world generator, run from its path, so nothing is
    imported from or written into perfbench/."""
    worlds = types.ModuleType("worlds")
    exec(compile(WORLDS_PY.read_text(), str(WORLDS_PY), "exec"), vars(worlds))
    return worlds


def generated_market_value():
    """The benchmark generator's ``market(60, 1)`` world: 60 sessions
    between generated agents on a jittery, lossy network, where many
    frames arrive out of order."""
    return load_worlds().market(60, 1)


def golden_scenario(name):
    if name in BUILTIN_SCENARIOS:
        return scenario_from_bytes(builtin_bytes(name))
    if name == "market_60_1":
        return scenario_from_bytes(canon.dumps(generated_market_value()))
    if name == "hot_provider_60_1":
        # Every session on one provider: the benchmark's hot_provider shape.
        return scenario_from_bytes(canon.dumps(load_worlds().hot_provider(60, 1)))
    return scenario_from_value(lossy_jitter_value())


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_transcript_digests(name):
    transcript, _ = run_scenario(golden_scenario(name))
    assert hashlib.sha256(transcript).hexdigest() == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_transcript_lines_are_canonical(name):
    # Ledger lines are spliced around payload bytes rather than encoded
    # whole; each must still be the canonical encoding of what it says.
    transcript, _ = run_scenario(golden_scenario(name))
    lines = transcript.split(b"\n")
    assert lines.pop() == b""
    ledger_lines = 0
    for line in lines:
        value = canon.loads(line)
        assert canon.dumps(value) == line
        if value["kind"] == "ledger":
            ledger_lines += 1
            entry = value["entry"]
            assert entry["payload_hash"] == canon.sha256_hex(canon.dumps(entry["payload"]))
    assert ledger_lines > 0


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_every_golden_frame_parses_with_nothing_held(name):
    # Each frame as the transcript carries it, its terms as maps: the
    # body parsers take everything the goldens send, off the wire too.
    transcript, _ = run_scenario(golden_scenario(name))
    frames = [line["frame"] for line in map(canon.loads, transcript.splitlines())
              if line["kind"] == "msg"]
    assert frames
    for frame in frames:
        message = message_from_value(frame)
        assert decode_message(encode_message(message)) == message


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_export_bytes_are_the_encoded_export(name):
    # The CLI's ledger export splices each entry's stored payload bytes.
    _, world = run_scenario(golden_scenario(name))
    assert world.ledger.export_bytes() == canon.dumps(world.ledger.export_entries())


def test_a_run_peaks_near_what_it_returns():
    # Each line is written once into the transcript buffer, so the run's
    # high-water mark is what it hands back (transcript plus world) and a
    # little slack, not a second copy of the transcript.
    scenario = golden_scenario("market_60_1")
    gc.collect()
    tracemalloc.start()
    try:
        transcript, world = run_scenario(scenario)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # What it returns is the transcript and the world built around it
    # (about the transcript's size again), nothing kept besides.
    assert retained < 2.5 * len(transcript)
    assert peak <= 1.25 * retained


def test_the_returned_world_does_not_keep_the_simulation():
    simulation = Simulation(golden_scenario("market_60_1"))
    freed = weakref.ref(simulation)
    _, world = simulation.run()
    del simulation
    gc.collect()
    assert freed() is None
    # Each runtime's clock stopped at the final tick.
    assert {runtime.clock() for runtime in world.runtimes.values()} == {world.final_tick}


def test_a_run_checks_no_terms_in_full_and_shares_the_catalogue_objects(monkeypatch):
    # Every terms text a run sends was written by a live catalogue or
    # derived object, so the receiver takes that object; nothing is
    # parsed and checked again.
    scenario = golden_scenario("market_60_1")
    checks = []
    post_init = LicenseTerms.__post_init__

    def counted(self):
        checks.append(self.name)
        post_init(self)

    offered = collections.defaultdict(list)  # (provider, item) -> [(requester, terms)]
    receive_message = AgentRuntime.receive_message

    def receive(runtime, message):
        sent = receive_message(runtime, message)
        if message.action == "propose_terms" and runtime.has_session(message.session_id):
            session = runtime.session(message.session_id)
            if session.role == "requester":
                key = session.provider_id, session.content_id
                offered[key].append((runtime.agent_id, session.terms))
        return sent

    monkeypatch.setattr(LicenseTerms, "__post_init__", counted)
    monkeypatch.setattr(AgentRuntime, "receive_message", receive)
    _, world = run_scenario(scenario)
    assert checks == []
    shared = 0
    for (provider_id, content_id), held in offered.items():
        item = world.runtimes[provider_id].catalog[content_id]
        holders = {requester for requester, terms in held if terms == item.terms}
        assert all(terms is item.terms for _, terms in held if terms == item.terms)
        shared += len(holders) >= 2
    assert shared > 0


# -- templated transcript lines ------------------------------------------------
#
# State, memory, msg and balance lines are written as templates; each must
# be canon.dumps of the map it stands for, escapes included.

ESCAPED = 'q"uote\nline caf\u00e9 \u2603\t'


class OneSession:
    """The runtime side of a sweep that acted on one session."""

    def __init__(self, agent_id, session):
        self.agent_id, self.session = agent_id, session

    def sessions(self, acted=False):
        return {self.session.session_id: self.session}

    def timer_for(self, session_id):
        return None


def bare_simulation():
    sim = Simulation(golden_scenario("uc1_dataset"))
    sim.tick = 7
    return sim


def written_lines(sim):
    """The lines the simulation has written so far, each without the
    newline that ends it."""
    written = sim._transcript.getvalue()
    assert written.endswith(b"\n")
    return written.split(b"\n")[:-1]


@pytest.mark.parametrize(
    "state, failure, reject",
    [
        (RequesterState.COUNTERING, "", ""),
        (RequesterState.FAILED, ESCAPED, ""),
        (RequesterState.REJECTED, "", ESCAPED),
        (RequesterState.FAILED, "failed", ESCAPED),
    ],
    ids=["plain", "failure", "reject", "both"],
)
def test_state_line_is_the_canonical_map(state, failure, reject):
    sim = bare_simulation()
    session = RequesterSession(
        session_id=ESCAPED, requester_id="req", provider_id="prov", config=SessionConfig(),
        state=state, failure_reason=failure, reject_reason=reject,
    )
    sim._sweep(OneSession("agent \u00e9", session))
    value = {
        "kind": "state",
        "tick": 7,
        "agent": "agent \u00e9",
        "session": ESCAPED,
        "role": "requester",
        "state": state.value,
    }
    if failure:
        value["failure"] = failure
    if reject:
        value["reject"] = reject
    assert written_lines(sim)[-1] == canon.dumps(value)


@pytest.mark.parametrize(
    "record",
    [
        MemoryRecord(kind="log", tick=7, text=ESCAPED),
        MemoryRecord(kind="transaction", tick=7, requester_id=ESCAPED, content_id="c\"1",
                     terms_hash="ab" * 32, license_id="f" * 32, acknowledged=True),
        MemoryRecord(kind="transaction", tick=7, requester_id="r", content_id="\u00e9"),
    ],
    ids=["log", "acknowledged", "unacknowledged"],
)
def test_memory_line_is_the_canonical_map(record):
    sim = bare_simulation()
    sim._on_memory(ESCAPED, record)
    value = {"kind": "memory", "tick": 7, "agent": ESCAPED, "record": record.to_value()}
    assert written_lines(sim)[-1] == canon.dumps(value)


@pytest.mark.parametrize("status", ["delivered", "dropped"])
def test_msg_line_is_the_canonical_map(status):
    sim = bare_simulation()
    terms = make_terms(description=ESCAPED)
    message = ProtocolMessage(ESCAPED, 3, "prov \u00e9", 'req "r"', "propose_terms",
                              {"terms": terms.canonical, "round": 1})
    sim._emit_message(status, message)
    frame = dict(message.to_value(), body={"terms": terms.to_value(), "round": 1})
    value = {"kind": "msg", "tick": 7, "status": status, "frame": frame}
    assert written_lines(sim)[-1] == canon.dumps(value)


def test_balance_line_is_the_canonical_map():
    sim = bare_simulation()
    payer, payee = 'payer "p"', "payee\n\u00e9"
    sim.wallets.open_account(payer, 10)
    sim.wallets.open_account(payee, 5)
    payload = {"from": payer, "to": payee, "amount": 3, "purpose": ESCAPED}
    entry = sim.ledger.append("payment", payload)
    ledger_line, balance_line = written_lines(sim)[-2:]
    assert ledger_line == canon.dumps({"kind": "ledger", "tick": 7, "entry": entry.to_value()})
    value = {
        "kind": "balance",
        "tick": 7,
        "from": payer,
        "to": payee,
        "amount": 3,
        "purpose": ESCAPED,
        "from_balance": 10,
        "to_balance": 5,
    }
    assert balance_line == canon.dumps(value)


def test_templated_line_with_a_lone_surrogate_raises_a_canonicalization_error():
    sim = bare_simulation()
    written = sim._transcript.getvalue()
    with pytest.raises(CanonicalizationError):
        sim._on_memory("agent", MemoryRecord(kind="log", tick=7, text="\ud800"))
    session = RequesterSession(
        session_id="s\ud800", requester_id="req", provider_id="prov", config=SessionConfig()
    )
    with pytest.raises(CanonicalizationError):
        sim._sweep(OneSession("agent", session))
    message = ProtocolMessage("s1", 0, "a", "b", "reject", {"reason": "\udfff"})
    with pytest.raises(CanonicalizationError):
        sim._emit_message("delivered", message)
    assert sim._transcript.getvalue() == written


class FullSweepSimulation(Simulation):
    """The oracle for ``Simulation._sweep``: every session the agent ever
    opened, visited after every event, by the same rules."""

    def _sweep(self, runtime, touched_session_id=None):
        for session_id, session in runtime.sessions().items():
            key = (runtime.agent_id, session_id)
            previous = self._session_state.get(key)
            changed = session.state is not previous
            if changed:
                self._session_state[key] = session.state
                value = {
                    "kind": "state",
                    "tick": self.tick,
                    "agent": runtime.agent_id,
                    "session": session_id,
                    "role": session.role,
                    "state": session.state.value,
                }
                if session.failure_reason:
                    value["failure"] = session.failure_reason
                if session.reject_reason:
                    value["reject"] = session.reject_reason
                self._emit(value)
            if changed or session_id == touched_session_id:
                epoch = self._epoch.get(key, 0) + 1
                self._epoch[key] = epoch
                if not session.terminal():
                    ticks = runtime.timer_for(session_id)
                    if ticks is not None:
                        self._push(
                            self.tick + ticks, ("timer", runtime.agent_id, session_id, epoch)
                        )


@pytest.fixture
def checked_sweep(monkeypatch):
    """After every sweep, each of the swept agent's sessions is in the
    state the simulator last recorded for it."""
    sweep = Simulation._sweep

    def checked(sim, runtime, touched_session_id=None):
        sweep(sim, runtime, touched_session_id)
        for session_id, session in runtime.sessions().items():
            assert sim._session_state[(runtime.agent_id, session_id)] is session.state

    monkeypatch.setattr(Simulation, "_sweep", checked)


@pytest.mark.usefixtures("checked_sweep")
@pytest.mark.parametrize(
    "name", [*BUILTIN_SCENARIOS, "lossy_jitter", "market", "hot_provider"]
)
def test_sweep_of_acted_sessions_matches_the_full_sweep(name):
    for seed in range(1, 6):
        if name in ("market", "hot_provider"):
            value = getattr(load_worlds(), name)(60, seed)
            scenario = scenario_from_bytes(canon.dumps(value))
        else:
            scenario = golden_scenario(name)
        transcript, _ = run_scenario(scenario, seed=seed)
        assert transcript == FullSweepSimulation(scenario, seed=seed).run()[0]


def refuse_once_then_raise(monkeypatch):
    """The first refusal closes its session, then raises; the decision
    notes the error and goes on. Returns the note the error leaves."""
    refuse = runtime_module.refuse
    raised = []

    def refuse_then_raise(session, reason):
        outbound = refuse(session, reason)
        if not raised:
            raised.append(True)
            raise AtcpipError("courtship interrupted")
        return outbound

    monkeypatch.setattr(runtime_module, "refuse", refuse_then_raise)
    return b"Error after session uc2-a closed: courtship interrupted"


def decide_then_raise(monkeypatch):
    """The whole decision runs, closing or answering every session, then
    raises, so all of them wait for the agent's next sweep. Returns the
    note the error leaves."""
    decide = AgentRuntime.decide_courtship

    def decide_courtship(runtime, content_id):
        decide(runtime, content_id)
        raise AtcpipError("courtship interrupted")

    monkeypatch.setattr(AgentRuntime, "decide_courtship", decide_courtship)
    return b"Script event 'decide_courtship' failed: courtship interrupted"


@pytest.mark.usefixtures("checked_sweep")
@pytest.mark.parametrize("patch", [refuse_once_then_raise, decide_then_raise])
def test_sessions_acted_on_before_a_raise_are_swept_next_time(patch, monkeypatch):
    """A raising ``decide_courtship`` skips its sweep; the sessions it
    acted on come out of the agent's next sweep, in creation order. An
    error inside the decision is the decision's own, and its sweep runs."""
    scenario = golden_scenario("uc2_social_game")
    with monkeypatch.context() as patched:
        note = patch(patched)
        transcript, _ = run_scenario(scenario)
    with monkeypatch.context() as patched:
        patch(patched)
        oracle, _ = FullSweepSimulation(scenario).run()
    assert transcript == oracle
    assert note in transcript
    assert hashlib.sha256(transcript).hexdigest() != GOLDEN_DIGESTS["uc2_social_game"]


def test_sweep_visits_about_one_session_per_call_at_any_size(monkeypatch):
    """Counts, not times: the sessions each sweep visits do not grow with
    the sessions the hot provider holds."""
    sessions = AgentRuntime.sessions
    visits = []

    def counted(runtime, acted=False):
        found = sessions(runtime, acted)
        if acted:
            visits.append(len(found))
        return found

    monkeypatch.setattr(AgentRuntime, "sessions", counted)
    means = []
    for size in (60, 240):
        visits.clear()
        run_scenario(scenario_from_bytes(canon.dumps(load_worlds().hot_provider(size, 1))))
        means.append(sum(visits) / len(visits))
    assert means[0] == means[1]
    assert means[0] <= 1.1


class HeapQueueSimulation(Simulation):
    """The oracle for the simulator's per-tick buckets: one heap of
    ``(tick, counter, payload)`` tuples, popped one event at a time, so
    events run by tick and, within a tick, in push order."""

    def __init__(self, scenario, seed=None):
        self._queue = []
        self._counter = 0
        self.same_tick_messages = 0
        super().__init__(scenario, seed=seed)

    def _push(self, tick, payload):
        if payload[0] == "msg" and tick == self.tick:
            self.same_tick_messages += 1
        heapq.heappush(self._queue, (tick, self._counter, payload))
        self._counter += 1

    def run(self):
        max_ticks = self.scenario.max_ticks
        while self._queue:
            tick, _, payload = heapq.heappop(self._queue)
            if tick > max_ticks:
                break
            self.tick = tick
            self._advance_date(tick)
            if payload[0] == "msg":
                message = payload[1]
                key = (tick, message.recipient, message.session_id)
                left = self._queued.pop(key) - 1
                if left:
                    self._queued[key] = left
                self._deliver(message)
            elif payload[0] == "timer":
                self._fire_timer(*payload[1:])
            else:
                self._run_script_event(payload[1])
        # Nothing was pushed into the buckets, so the simulator's own run
        # only builds the world and ends the run.
        return super().run()


def zero_latency_market(seed):
    """``market(60, seed)`` on a network whose latency can be 0, so a
    frame can arrive in the tick it was sent."""
    value = load_worlds().market(60, seed)
    value["network"]["latency"] = {"min": 0, "max": 3}
    return scenario_from_bytes(canon.dumps(value))


@pytest.mark.parametrize(
    "name", [*BUILTIN_SCENARIOS, "lossy_jitter", "market", "hot_provider", "zero_latency"]
)
def test_event_buckets_run_events_in_heap_order(name):
    same_tick_messages = 0
    for seed in range(1, 6):
        if name == "zero_latency":
            scenario = zero_latency_market(seed)
        elif name in ("market", "hot_provider"):
            scenario = scenario_from_bytes(canon.dumps(getattr(load_worlds(), name)(60, seed)))
        else:
            scenario = golden_scenario(name)
        transcript, world = run_scenario(scenario, seed=seed)
        oracle = HeapQueueSimulation(scenario, seed=seed)
        assert transcript == oracle.run()[0]
        assert world.final_tick == oracle.tick
        same_tick_messages += oracle.same_tick_messages
    # A frame sent with no latency joins the tick that is running.
    assert (same_tick_messages > 0) is (name == "zero_latency")


def test_event_heap_holds_ticks_not_events(monkeypatch):
    """Counts, not times: the heap takes one push per tick that has
    events, so pushes per session fall as the world grows, far below the
    events each session queues."""
    counts = collections.Counter()

    def heappush(heap, tick):
        counts["push"] += 1
        heapq.heappush(heap, tick)

    def heappop(heap):
        counts["pop"] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(
        sim_module, "heapq", types.SimpleNamespace(heappush=heappush, heappop=heappop)
    )
    per_session = {}
    for shape, size in (("market", 240), ("market", 800), ("hot_provider", 900)):
        counts.clear()
        value = getattr(load_worlds(), shape)(size, 1)
        _, world = run_scenario(scenario_from_bytes(canon.dumps(value)))
        assert counts["push"] == counts["pop"] <= world.final_tick + 1
        per_session[shape, size] = counts["push"] / size
    # The old heap took about 17.4 pushes per session at every size.
    assert per_session["market", 800] <= per_session["market", 240] <= 1
    assert per_session["market", 800] <= 0.4
    assert per_session["hot_provider", 900] <= 0.4


def personal_data_value(jurisdictions=None, item_terms=None):
    """A provider in FR serving a ``personal_data`` item to a requester in DE."""
    value = two_party_value()
    provider, requester = value["agents"]
    provider["jurisdiction"], requester["jurisdiction"] = "FR", "DE"
    item = provider["catalog"][0]
    item["flags"] = ["personal_data"]
    item["terms"].update(item_terms or {})
    if jurisdictions is None:
        jurisdictions = {"FR": {"privacy_regimes": ["gdpr"]}, "DE": {"privacy_regimes": ["gdpr"]}}
    value["jurisdictions"] = jurisdictions
    return value


@pytest.mark.parametrize(
    "jurisdictions,item_terms,state,reason",
    [
        (
            None,
            None,
            "rejected",
            "personal data may not leave FR for DE without adequacy or compliance requirements",
        ),
        (
            {"FR": {"adequacy": ["DE"]}, "DE": {"privacy_regimes": ["gdpr"]}},
            None,
            "completed",
            "",
        ),
        (None, {"compliance_requirements": ["gdpr"]}, "completed", ""),
    ],
)
def test_scenario_jurisdictions_gate_personal_data(jurisdictions, item_terms, state, reason):
    scenario = scenario_from_value(personal_data_value(jurisdictions, item_terms))
    _, world = run_scenario(scenario)
    for agent_id in ("prov", "req"):
        session = world.runtimes[agent_id].session("s1")
        assert (session.state.value, session.reject_reason) == (state, reason)


@pytest.mark.parametrize(
    "jurisdictions",
    [
        {"FR": "civil_law", "DE": {}},
        {"FR": {"currency": "EUR"}, "DE": {}},
        {"FR": {"privacy_regimes": "gdpr"}, "DE": {}},
        {},
    ],
)
def test_malformed_scenario_jurisdictions_fail_to_parse(jurisdictions):
    with pytest.raises(ParseError):
        scenario_from_value(personal_data_value(jurisdictions))
