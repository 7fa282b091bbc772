"""Simulator: determinism, timers, loss handling, conservation, replay."""

import hashlib
from decimal import Decimal

import pytest

from atcpip import canon
from atcpip.protocol import (
    NO_PAYMENT_FAILURE,
    NO_PAYMENT_REQUEST_FAILURE,
    NO_TERMS_FAILURE,
    NO_TOKEN_FAILURE,
    ProviderState,
    RequesterState,
)
from atcpip.scenario import scenario_from_bytes, scenario_from_value
from atcpip.scenarios import BUILTIN_SCENARIOS, builtin_bytes
from atcpip.sim import check_expectations, replay, run_scenario


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


def test_handler_error_on_a_timer_becomes_a_memory_note():
    """Royalty lines past the whole price make the settlement command
    raise when the provider's negotiation timer moves it on; the run must
    survive that the way it survives the same error on a message."""
    value = two_party_value(
        network={"latency": 0, "drop": {"accept_terms": Decimal("1.0000")}}
    )
    item = value["agents"][0]["catalog"][0]
    item["terms"]["upfront_fee"] = 1000
    item["extra_royalties"] = [
        {"to": "a", "share": Decimal("0.6000")},
        {"to": "b", "share": Decimal("0.6000")},
    ]
    value["agents"] += [{"id": "a", "balance": 0}, {"id": "b", "balance": 0}]
    _, world = run_scenario(scenario_from_value(value))
    assert world.conservation_intact()
    provider = world.runtimes["prov"]
    assert provider.session("s1").failure_reason == NO_PAYMENT_FAILURE
    assert world.runtimes["req"].session("s1").failure_reason == NO_PAYMENT_REQUEST_FAILURE
    assert any(text.startswith("Timer handling failed:") for text in provider.memory_texts())


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
    assert world.ledger.is_revoked(token.license_id)
    assert world.board.record("prov").disputes_won == 1
    assert world.board.record("req").disputes_lost == 1


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
}


def golden_scenario(name):
    if name in BUILTIN_SCENARIOS:
        return scenario_from_bytes(builtin_bytes(name))
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
