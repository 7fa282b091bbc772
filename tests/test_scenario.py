"""Scenario loading: strict canonical parsing and reference resolution."""

import copy
import random
from decimal import Decimal

import pytest

from atcpip import canon
from atcpip.errors import ParseError, UnknownJurisdiction, UnresolvedReference
from atcpip.negotiation import NUMERIC_PATHS, ChoiceBound, NumericBound, SetBound
from atcpip.scenario import (
    load_scenario,
    scenario_from_bytes,
    scenario_from_value,
)
from atcpip.scenarios import BUILTIN_SCENARIOS, builtin_bytes
from atcpip.sim import run_scenario
from atcpip.terms import FIELD_ORDER


def base_value():
    return {
        "name": "two_party",
        "seed": 3,
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
        "expectations": {"states": {"s1": "completed"}},
    }


def test_builtin_scenarios_all_load():
    for name in BUILTIN_SCENARIOS:
        scenario = scenario_from_bytes(builtin_bytes(name))
        assert scenario.name == name
        assert len(scenario.agents) >= 2
        assert scenario.script


def test_load_scenario_reads_a_canonical_file(tmp_path):
    path = tmp_path / "two_party.json"
    path.write_bytes(canon.dumps(base_value()) + b"\n")
    scenario = load_scenario(path)
    assert scenario.name == "two_party"
    assert scenario.seed == 3
    assert scenario.agents[0].catalog[0].terms.upfront_fee == 1_000_000
    assert scenario.session_ids() == ("s1",)


def test_non_canonical_bytes_are_rejected(tmp_path):
    pretty = b'{\n  "name": "two_party"\n}\n'
    path = tmp_path / "pretty.json"
    path.write_bytes(pretty)
    with pytest.raises(ParseError, match="canonical"):
        load_scenario(path)


def test_extra_trailing_newline_is_rejected():
    raw = canon.dumps(base_value()) + b"\n\n"
    with pytest.raises(ParseError, match="canonical"):
        scenario_from_bytes(raw)


def test_fewer_than_two_agents_is_a_parse_error():
    value = base_value()
    value["agents"] = value["agents"][:1]
    value["script"] = []
    value["expectations"] = {}
    with pytest.raises(ParseError, match="at least 2 agents"):
        scenario_from_value(value)


def test_unknown_agent_reference_names_the_id():
    value = base_value()
    value["script"][0]["provider"] = "agent_z"
    with pytest.raises(UnresolvedReference, match="agent_z"):
        scenario_from_value(value)


def test_unknown_content_reference_names_the_id():
    value = base_value()
    value["script"][0]["content_id"] = "missing-item"
    with pytest.raises(UnresolvedReference, match="missing-item"):
        scenario_from_value(value)


def test_content_owned_by_someone_else_does_not_resolve():
    value = base_value()
    value["script"][0]["provider"] = "req"
    value["script"][0]["requester"] = "prov"
    with pytest.raises(UnresolvedReference, match="weather"):
        scenario_from_value(value)


def test_expectation_session_must_come_from_the_script():
    value = base_value()
    value["expectations"]["states"] = {"ghost": "completed"}
    with pytest.raises(UnresolvedReference, match="ghost"):
        scenario_from_value(value)


@pytest.mark.parametrize("state", ["delivering", "requesting", "minting", "acknowledging"])
def test_expectation_naming_a_state_no_session_rests_in_is_a_parse_error(state):
    # No state has these names, so no finished run could match them.
    value = base_value()
    value["expectations"]["states"] = {"s1": state}
    with pytest.raises(ParseError, match=f"unknown session state '{state}'"):
        scenario_from_value(value)


def test_duplicate_session_ids_rejected():
    value = base_value()
    value["script"].append(dict(value["script"][0]))
    with pytest.raises(ParseError, match="duplicate session_id"):
        scenario_from_value(value)


def test_duplicate_content_across_catalogs_rejected():
    value = base_value()
    value["agents"][1]["catalog"] = [{"content_id": "weather", "content": "other"}]
    with pytest.raises(ParseError, match="more than one catalog"):
        scenario_from_value(value)


def test_integers_past_64_bits_are_rejected():
    value = base_value()
    value["seed"] = 2**63
    with pytest.raises(ParseError, match="seed"):
        scenario_from_value(value)
    value = base_value()
    value["agents"][0]["balance"] = 2**63
    with pytest.raises(ParseError, match="balance"):
        scenario_from_value(value)


def test_unknown_top_level_field_rejected():
    value = base_value()
    value["sched"] = []
    with pytest.raises(ParseError, match="sched"):
        scenario_from_value(value)


def test_unknown_script_action_rejected():
    value = base_value()
    value["script"].append({"tick": 1, "action": "teleport", "agent": "req"})
    with pytest.raises(ParseError, match="teleport"):
        scenario_from_value(value)


def test_script_ticks_must_not_decrease():
    value = base_value()
    value["script"][0]["tick"] = 5
    value["script"].append(
        {"tick": 1, "action": "log", "agent": "req", "text": "too early"}
    )
    with pytest.raises(ParseError, match="must not decrease"):
        scenario_from_value(value)


def test_drop_probabilities_validate_action_and_range():
    value = base_value()
    value["network"] = {"drop": {"smoke_signal": Decimal("0.5000")}}
    with pytest.raises(ParseError, match="smoke_signal"):
        scenario_from_value(value)
    value["network"] = {"drop": {"license_token": Decimal("1.5000")}}
    with pytest.raises(ParseError, match="license_token"):
        scenario_from_value(value)


def test_latency_range_must_be_ordered():
    value = base_value()
    value["network"] = {"latency": {"min": 4, "max": 2}}
    with pytest.raises(ParseError, match="latency"):
        scenario_from_value(value)


def test_invalid_catalog_terms_rejected_with_field():
    for rate in (Decimal("2.0000"), "0.1"):
        value = base_value()
        value["agents"][0]["catalog"][0]["terms"]["royalty_rate"] = rate
        with pytest.raises(ParseError, match="royalty_rate"):
            scenario_from_value(value)


def test_unknown_terms_field_rejected():
    value = base_value()
    value["agents"][0]["catalog"][0]["terms"]["fee"] = 3
    with pytest.raises(ParseError, match="fee"):
        scenario_from_value(value)


def test_derived_from_must_resolve():
    value = base_value()
    value["agents"][1]["catalog"] = [
        {"content_id": "collage", "content": "art", "derived_from": "nowhere"}
    ]
    with pytest.raises(UnresolvedReference, match="nowhere"):
        scenario_from_value(value)


def test_extra_royalty_beneficiary_must_resolve():
    value = base_value()
    value["agents"][0]["catalog"][0]["extra_royalties"] = [
        {"to": "stranger", "share": Decimal("0.1000")}
    ]
    with pytest.raises(UnresolvedReference, match="stranger"):
        scenario_from_value(value)


def test_extra_royalties_summing_past_one_are_rejected():
    value = base_value()
    value["agents"][0]["catalog"][0]["extra_royalties"] = [
        {"to": "req", "share": Decimal("0.6000")},
        {"to": "prov", "share": Decimal("0.5000")},
    ]
    with pytest.raises(ParseError, match=r"catalog\[0\]: extra_royalties of 'weather' sum to 1.1000"):
        scenario_from_value(value)


def test_extra_royalties_summing_to_exactly_one_load():
    value = base_value()
    value["agents"][0]["catalog"][0]["extra_royalties"] = [
        {"to": "req", "share": Decimal("0.6000")},
        {"to": "prov", "share": Decimal("0.4000")},
    ]
    item = scenario_from_value(value).agents[0].catalog[0]
    assert item.extra_royalties == (("req", Decimal("0.6000")), ("prov", Decimal("0.4000")))


def test_unknown_jurisdiction_code_rejected():
    value = base_value()
    value["agents"][0]["jurisdiction"] = "ATLANTIS"
    with pytest.raises(UnknownJurisdiction, match="ATLANTIS"):
        scenario_from_value(value)


def test_unknown_risk_tier_rejected():
    value = base_value()
    value["agents"][0]["tier"] = "reckless"
    with pytest.raises(ParseError, match="reckless"):
        scenario_from_value(value)


def test_clock_date_map_requires_tick_zero_and_monotonic_dates():
    value = base_value()
    value["clock_date_map"] = {"5": "2024-06-01"}
    with pytest.raises(ParseError, match="tick 0"):
        scenario_from_value(value)
    value["clock_date_map"] = {"0": "2024-06-01", "9": "2024-01-01"}
    with pytest.raises(ParseError, match="backwards"):
        scenario_from_value(value)


def test_policy_bounds_parse_into_typed_bounds():
    value = base_value()
    value["agents"][1]["policy"] = {
        "bounds": {
            "royalty_rate": {"min": Decimal("0.0100"), "max": Decimal("0.1000")},
            "transferability": {"allowed": ["transferable", "non_transferable"]},
            "scope": {"allowed": ["personal", "commercial"]},
        },
        "non_negotiable": ["jurisdiction"],
        "max_rounds": 3,
        "concession_step": Decimal("0.2500"),
    }
    scenario = scenario_from_value(value)
    policy = dict(scenario.agents[1].policy.bounds)
    assert isinstance(policy["royalty_rate"], NumericBound)
    assert isinstance(policy["transferability"], ChoiceBound)
    assert isinstance(policy["scope"], SetBound)
    built = scenario.agents[1].policy
    assert built.max_rounds == 3
    assert built.non_negotiable == frozenset({"jurisdiction"})


def test_policy_rejects_unknown_bound_field_and_bad_step():
    value = base_value()
    value["agents"][1]["policy"] = {"bounds": {"velocity": {"min": 0, "max": 1}}}
    with pytest.raises(ParseError, match="velocity"):
        scenario_from_value(value)
    value["agents"][1]["policy"] = {"concession_step": Decimal("0.0000")}
    with pytest.raises(ParseError, match="concession_step"):
        scenario_from_value(value)
    value["agents"][1]["policy"] = {
        "bounds": {"upfront_fee": {"min": 0, "max": Decimal("900000.0000")}}
    }
    with pytest.raises(ParseError, match="upfront_fee"):
        scenario_from_value(value)


# Bound values a canonical file can hold: plausible numbers and words,
# and values of a type no bound takes.
NUMBERS = (
    0, 1, 7, 1_000_000, 2_000_000,
    Decimal("0.0000"), Decimal("0.0500"), Decimal("0.1000"), Decimal("0.5000"), Decimal("1.0000"),
)
WORDS = (
    "personal", "commercial", "read_only", "no_training", "dispute_loss", "perpetual",
    "2030-01-01", "transferable", "non_transferable", "court", "onchain_arbitration", "US", "XX",
)
MISTYPED = (True, False, -3, "", "0.5", "a", [], ["personal"], {"min": 0}, Decimal("2.0000"))


def pick(rng, pool):
    return rng.choice(MISTYPED) if rng.random() < 0.1 else rng.choice(pool)


def random_bound(rng, name):
    numeric = name in NUMERIC_PATHS
    if rng.random() < 0.2:
        numeric = not numeric
    if numeric:
        edges = [pick(rng, NUMBERS), pick(rng, NUMBERS)]
        if all(isinstance(edge, (int, Decimal)) for edge in edges):
            edges.sort()
        return {"min": edges[0], "max": edges[1]}
    return {"allowed": [pick(rng, WORDS) for _ in range(rng.choice((0, 1, 2, 2, 3)))]}


def random_policy(rng, field):
    names = [field, *rng.sample(FIELD_ORDER + ("colour",), rng.choice((0, 0, 1)))]
    policy = {"bounds": {name: random_bound(rng, name) for name in names}}
    if rng.random() < 0.1:
        policy["non_negotiable"] = [rng.choice(FIELD_ORDER), rng.choice(("colour", 5, "scope"))]
    if rng.random() < 0.15:
        policy["max_rounds"] = rng.choice((0, 1, 2, 3, -1, True, "3"))
    if rng.random() < 0.15:
        policy["concession_step"] = rng.choice(
            (Decimal("0.2500"), Decimal("0.7500"), 1, 0, Decimal("1.5000"), True, "0.5")
        )
    return policy


def test_any_policy_document_loads_and_runs_or_fails_to_parse():
    """The loader builds the policy the runtime uses, so a policy that
    loads cannot fail later: every document either raises ParseError at
    load or runs to the end."""
    rng = random.Random(0x9011C7)
    outcomes = {"loaded": 0, "rejected": 0}
    for trial in range(600):
        field = FIELD_ORDER[trial % len(FIELD_ORDER)]
        value = base_value()
        for agent in rng.sample(value["agents"], rng.choice((1, 1, 2))):
            agent["policy"] = random_policy(rng, field)
        try:
            scenario = scenario_from_bytes(canon.dumps(value))
        except ParseError:
            outcomes["rejected"] += 1
            continue
        run_scenario(scenario)
        outcomes["loaded"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_expectation_payment_parties_must_resolve():
    value = base_value()
    value["expectations"]["payments"] = [{"from": "req", "to": "nobody", "amount": 5}]
    with pytest.raises(UnresolvedReference, match="nobody"):
        scenario_from_value(value)


def test_dispute_event_validates_kind_and_session():
    value = base_value()
    value["script"].append(
        {"tick": 2, "action": "dispute", "claimant": "prov", "session_id": "s1", "kind": "vibes"}
    )
    with pytest.raises(ParseError, match="vibes"):
        scenario_from_value(value)
    value["script"][-1]["kind"] = "payment_default"
    value["script"][-1]["session_id"] = "elsewhere"
    with pytest.raises(UnresolvedReference, match="elsewhere"):
        scenario_from_value(value)


def test_request_offer_shape_is_checked():
    value = base_value()
    value["script"][0]["offer"] = {"upfront_fee": 100, "royalty_rate": Decimal("0.0200")}
    scenario = scenario_from_value(value)
    assert scenario.script[0].body["offer"]["upfront_fee"] == 100
    value = base_value()
    value["script"][0]["offer"] = {"tip": 5}
    with pytest.raises(ParseError, match="tip"):
        scenario_from_value(value)


def test_builtin_bytes_round_trip_is_canonical():
    for name in BUILTIN_SCENARIOS:
        raw = builtin_bytes(name)
        value = canon.loads(raw)
        assert canon.dumps(value) + b"\n" == raw


def test_scenario_value_not_mutated_by_validation():
    value = base_value()
    snapshot = copy.deepcopy(value)
    scenario_from_value(value)
    assert value == snapshot
