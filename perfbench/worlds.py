"""Seeded generator for the benchmark's scenario worlds.

Every world is a plain scenario document; callers encode it with
``canon.dumps`` and hand the bytes to ``scenario_from_bytes``, so the
program only ever sees what its strict loader accepts.

Deal shape, shared by every world:

- a provider opens at a fee above every requester's ceiling, so each
  deal takes at least one counter round;
- the provider's floor sits below the ceilings, so the counter lands in
  bounds and the deal can close;
- latency jitters over 1-3 ticks and a few actions are lossy, so
  timers fire and some sessions fail.

Each (requester, content) pair is requested at most once: a requester
that asks again for an item it already holds renews onto the previous
license, which is a different workload.
"""

import random
from decimal import Decimal

LATENCY = {"min": 1, "max": 3}
DROP = {"counter_terms": Decimal("0.0500"), "payment_confirmed": Decimal("0.0200")}

OPENING_FEE = (2_000_000, 3_000_000)  # provider opening, micro-credits
FLOOR_FEE = 1_000_000  # provider policy minimum
CEILING_FEE = (1_500_000, 1_900_000)  # requester policy maximum
ITEMS_PER_PROVIDER = 8
SESSIONS_PER_MARKET_AGENT = 25
HOT_REQUESTERS = 8
START_SPACING = 3  # sessions started per tick
RESTRICTIONS = ("no_redistribution", "no_training", "read_only")
USAGE_TAGS = ("analyze", "fine_tune", "modify", "redistribute", "train")


def _provider(rng, agent_id, items):
    catalog = []
    for index in range(items):
        restrictions = sorted(rng.sample(RESTRICTIONS, rng.randint(1, 2)))
        catalog.append(
            {
                "content_id": f"{agent_id}-item{index}",
                "content": f"payload of {agent_id} item {index}",
                "tags": ["dataset"],
                "terms": {
                    "name": f"{agent_id} item {index} license",
                    "duration": "2030-01-01",
                    "upfront_fee": rng.randint(*OPENING_FEE),
                    "royalty_rate": Decimal("0.0500"),
                    "ip_restrictions": restrictions,
                    "revocation_conditions": ["dispute_loss"],
                },
            }
        )
    return {
        "id": agent_id,
        "balance": 0,
        "policy": {"bounds": {"upfront_fee": {"min": FLOOR_FEE, "max": OPENING_FEE[1]}}},
        "catalog": catalog,
    }


def _requester(rng, agent_id, sessions):
    return {
        "id": agent_id,
        "balance": (sessions + 1) * OPENING_FEE[1],
        "policy": {"bounds": {"upfront_fee": {"min": 0, "max": rng.randint(*CEILING_FEE)}}},
    }


def _world(rng, name, seed, providers, requesters, requests):
    """requests: [(requester_index, provider_index, item_index)], in start order."""
    per_requester = [0] * requesters
    for requester, _, _ in requests:
        per_requester[requester] += 1
    items = max(item for _, _, item in requests) + 1
    agents = [_provider(rng, f"p{index}", items) for index in range(providers)]
    agents += [
        _requester(rng, f"r{index}", per_requester[index]) for index in range(requesters)
    ]
    script = []
    for number, (requester, provider, item) in enumerate(requests):
        script.append(
            {
                "tick": number // START_SPACING,
                "action": "request",
                "session_id": f"s{number}",
                "requester": f"r{requester}",
                "provider": f"p{provider}",
                "content_id": f"p{provider}-item{item}",
            }
        )
    last_start = script[-1]["tick"] if script else 0
    return {
        "name": name,
        "seed": seed,
        "max_ticks": last_start + 400,
        "network": {"latency": dict(LATENCY), "drop": dict(DROP)},
        "agents": agents,
        "script": script,
    }


def _add_usage(world, rng, events):
    """Recorded usage of the licenses the world issues, for usage disputes.

    Usage events come after every session has had time to close, so
    each one either finds its license or becomes a memory note.
    """
    usage_tick = world["max_ticks"] - 50
    requests = [event for event in world["script"] if event["action"] == "request"]
    for event in sorted(rng.sample(requests, events), key=lambda e: e["session_id"]):
        world["script"].append(
            {
                "tick": usage_tick,
                "action": "usage",
                "agent": event["requester"],
                "session_id": event["session_id"],
                "tags": sorted(rng.sample(USAGE_TAGS, rng.randint(1, 2))),
            }
        )
    return world


def market(sessions, seed, usage_events=0):
    """Many providers and requesters; no agent holds more than a few dozen sessions."""
    rng = random.Random(f"market:{seed}")
    side = max(4, -(-sessions // SESSIONS_PER_MARKET_AGENT))
    pairs = rng.sample(range(side * side * ITEMS_PER_PROVIDER), sessions)
    requests = [
        (code // (side * ITEMS_PER_PROVIDER), code // ITEMS_PER_PROVIDER % side, code % ITEMS_PER_PROVIDER)
        for code in pairs
    ]
    world = _world(rng, f"market-{sessions}", seed, side, side, requests)
    return _add_usage(world, rng, usage_events)


def hot_provider(sessions, seed, usage_events=0):
    """One provider holds every session, spread over a few requesters."""
    rng = random.Random(f"hot_provider:{seed}")
    items = -(-sessions // HOT_REQUESTERS)
    pairs = rng.sample(range(HOT_REQUESTERS * items), sessions)
    requests = [(code // items, 0, code % items) for code in pairs]
    world = _world(rng, f"hot_provider-{sessions}", seed, 1, HOT_REQUESTERS, requests)
    return _add_usage(world, rng, usage_events)
