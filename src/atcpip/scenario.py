"""Scenario files: complete world descriptions for simulation runs.

A scenario fixes everything a run needs so that two machines given the
same file and seed produce byte-identical transcripts: agents with
wallets, jurisdictions, negotiation policies and catalogs; the network
latency and loss model; a script of injected events; a tick-to-date
calendar; and optional expectations checked after the run.

Loading is strict. The file bytes must round-trip through the canonical
encoder, every cross-reference (agent ids, content ids, session ids)
must resolve, and malformed sections fail with ParseError rather than
being papered over with defaults.
"""

from dataclasses import dataclass, field
from decimal import Decimal

from . import canon
from .canon import fixed4
from .disputes import DISPUTE_KINDS
from .errors import AtcpipError, InvalidTerms, ParseError, UnknownJurisdiction, UnresolvedReference
from .negotiation import ChoiceBound, NegotiationPolicy, NumericBound, RISK_TIERS, SetBound
from .protocol import ACTIONS, ProviderState, RequesterState, SessionConfig
from .runtime import CatalogItem
from .terms import LicenseTerms, TAG_FIELDS, is_iso_date, terms_from_value
from .trust import JurisdictionProfile

DEFAULT_START_DATE = "2024-01-01"
DEFAULT_MAX_TICKS = 10_000

# Profiles available when a scenario does not declare its own.
DEFAULT_PROFILES = (
    JurisdictionProfile("US", "common_law", ("ccpa",), ("US", "CA", "GB")),
    JurisdictionProfile("DE", "civil_law", ("gdpr",), ("DE", "FR", "GB")),
)

SCRIPT_ACTIONS = (
    "request",
    "decide_courtship",
    "downstream_sale",
    "usage",
    "dispute",
    "log",
)

STATE_NAMES = frozenset(state.value for state in ProviderState) | frozenset(
    state.value for state in RequesterState
)

# Spread under every partial terms section, never written to.
_DEFAULT_TERMS = LicenseTerms().to_value()

_EXPECTATION_KEYS = frozenset(
    {"balances", "states", "holdings", "memory_contains", "payments"}
)


@dataclass(frozen=True)
class AgentSpec:
    agent_id: str
    jurisdiction: str = "US"
    balance: int = 0
    tier: str = "standard"
    config: SessionConfig = field(default_factory=SessionConfig)
    policy: NegotiationPolicy = None
    catalog: tuple = ()  # CatalogItem instances


@dataclass(frozen=True)
class NetworkSpec:
    latency_min: int = 1
    latency_max: int = 1
    drop: tuple = ()  # ((action, probability), ...)


@dataclass(frozen=True)
class ScriptEvent:
    tick: int
    action: str
    body: dict


@dataclass(frozen=True)
class Scenario:
    name: str
    agents: tuple
    seed: int = 0
    max_ticks: int = DEFAULT_MAX_TICKS
    clock_date_map: tuple = ((0, DEFAULT_START_DATE),)
    jurisdictions: tuple = DEFAULT_PROFILES
    blocked_pairs: tuple = ()
    network: NetworkSpec = field(default_factory=NetworkSpec)
    script: tuple = ()
    expectations: dict = field(default_factory=dict)

    def session_ids(self):
        return tuple(
            event.body["session_id"] for event in self.script if event.action == "request"
        )


# -- field helpers --------------------------------------------------------------

_MISSING = object()


def _get(mapping, key, ctx, default=_MISSING):
    value = mapping.get(key, default)
    if value is _MISSING:
        raise ParseError(f"{ctx}: missing required field {key!r}")
    return value


def _str(mapping, key, ctx, default=_MISSING):
    value = _get(mapping, key, ctx, default)
    if not isinstance(value, str) or (default is _MISSING and not value):
        raise ParseError(f"{ctx}: field {key!r} must be a non-empty string")
    return value


def _int(mapping, key, ctx, default=_MISSING, minimum=0):
    value = _get(mapping, key, ctx, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{ctx}: field {key!r} must be an integer")
    if value < minimum:
        raise ParseError(f"{ctx}: field {key!r} must be >= {minimum}")
    if value > canon.INT_MAX:
        raise ParseError(f"{ctx}: field {key!r} out of 64-bit range")
    return value


def _bool(mapping, key, ctx, default):
    value = mapping.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(f"{ctx}: field {key!r} must be a boolean")
    return value


def _map(value, ctx):
    if not isinstance(value, dict):
        raise ParseError(f"{ctx} must be a map")
    return value


def _list(value, ctx):
    if not isinstance(value, list):
        raise ParseError(f"{ctx} must be a list")
    return value


def _str_list(value, ctx):
    items = _list(value, ctx)
    for item in items:
        if not isinstance(item, str):
            raise ParseError(f"{ctx} entries must be strings")
    return tuple(items)


def _reject_unknown(mapping, allowed, ctx):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ParseError(f"{ctx}: unknown field {sorted(unknown)[0]!r}")


def _rate(value, ctx):
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise ParseError(f"{ctx} must be a number")
    rate = fixed4(value)
    if rate < 0 or rate > 1:
        raise ParseError(f"{ctx} must lie in [0, 1]")
    return rate


# -- section parsers -------------------------------------------------------------


def _build(ctx, constructor, *args, **kwargs):
    """Construct a runtime object; the checks it makes fail as ParseError."""
    try:
        return constructor(*args, **kwargs)
    except (AtcpipError, TypeError, ValueError) as exc:
        raise ParseError(f"{ctx}: {exc}") from None


def _parse_partial_terms(value, ctx):
    """A terms section may state only the fields it cares about; the rest
    keep the conservative defaults."""
    doc = {**_DEFAULT_TERMS, **_map(value, ctx)}
    try:
        return terms_from_value(doc)
    except InvalidTerms as exc:
        first = exc.violations[0]
        where = ".".join(first.path) or "terms"
        raise ParseError(f"{ctx}: invalid terms: {where}: {first.reason}") from None
    except AtcpipError as exc:
        raise ParseError(f"{ctx}: {exc}") from None


def _parse_bound(name, value, ctx):
    body = _map(value, ctx)
    if "allowed" in body:
        _reject_unknown(body, ("allowed",), ctx)
        if name in TAG_FIELDS:
            return _build(ctx, SetBound, _str_list(body["allowed"], f"{ctx}: allowed"))
        return _build(ctx, ChoiceBound, tuple(_list(body["allowed"], f"{ctx}: allowed")))
    _reject_unknown(body, ("min", "max"), ctx)
    edges = [_get(body, key, ctx) for key in ("min", "max")]
    if any(isinstance(edge, bool) or not isinstance(edge, (int, Decimal)) for edge in edges):
        raise ParseError(f"{ctx}: min and max must be numbers")
    return _build(ctx, NumericBound, *edges)


def _parse_policy(value, ctx):
    body = _map(value, ctx)
    _reject_unknown(
        body, ("bounds", "non_negotiable", "max_rounds", "concession_step"), ctx
    )
    step = body.get("concession_step", Decimal("0.5000"))
    if isinstance(step, bool) or not isinstance(step, (int, Decimal)):
        raise ParseError(f"{ctx}: concession_step must be a number")
    return _build(
        ctx,
        NegotiationPolicy,
        bounds={
            name: _parse_bound(name, bound, f"{ctx}: bound for {name!r}")
            for name, bound in _map(body.get("bounds", {}), f"{ctx}: bounds").items()
        },
        non_negotiable=_str_list(body.get("non_negotiable", []), f"{ctx}: non_negotiable"),
        max_rounds=body.get("max_rounds", 4),
        concession_step=step,
    )


_ITEM_KEYS = (
    "content_id",
    "content",
    "tags",
    "flags",
    "ip_significant",
    "terms",
    "derived_from",
    "extra_royalties",
    "courtship",
)


def _parse_item(value, agent_id, agent_ids, ctx):
    body = _map(value, ctx)
    _reject_unknown(body, _ITEM_KEYS, ctx)
    content_id = _str(body, "content_id", ctx)
    royalties = []
    for index, line in enumerate(_list(body.get("extra_royalties", []), f"{ctx}: extra_royalties")):
        line_ctx = f"{ctx}: extra_royalties[{index}]"
        line = _map(line, line_ctx)
        _reject_unknown(line, ("to", "share"), line_ctx)
        beneficiary = _str(line, "to", line_ctx)
        if beneficiary not in agent_ids:
            raise UnresolvedReference(beneficiary)
        royalties.append((beneficiary, _rate(_get(line, "share", line_ctx), f"{line_ctx}: share")))
    total = sum(share for _, share in royalties)
    if total > 1:
        raise ParseError(
            f"{ctx}: extra_royalties of {content_id!r} sum to {total}, more than the whole price"
        )
    ip_significant = body.get("ip_significant")
    if ip_significant is not None and not isinstance(ip_significant, bool):
        raise ParseError(f"{ctx}: field 'ip_significant' must be a boolean")
    terms = body.get("terms")
    if terms is not None:
        terms = _parse_partial_terms(terms, f"{ctx}: terms")
    return _build(
        ctx,
        CatalogItem,
        content_id=content_id,
        content=_str(body, "content", ctx, default=""),
        tags=_str_list(body.get("tags", []), f"{ctx}: tags"),
        flags=_str_list(body.get("flags", []), f"{ctx}: flags"),
        terms=terms,
        ip_significant=ip_significant,
        derived_from=_str(body, "derived_from", ctx, default=""),
        extra_royalties=tuple(royalties),
        courtship=_bool(body, "courtship", ctx, default=False),
    )


_CONFIG_KEYS = ("ack_required", "negotiation_timeout", "settlement_timeout")
_AGENT_KEYS = ("id", "jurisdiction", "balance", "tier", "policy", "catalog", *_CONFIG_KEYS)


def _parse_agent(value, agent_ids, codes, index):
    ctx = f"agents[{index}]"
    body = _map(value, ctx)
    _reject_unknown(body, _AGENT_KEYS, ctx)
    agent_id = _str(body, "id", ctx)
    ctx = f"agent {agent_id!r}"
    jurisdiction = _str(body, "jurisdiction", ctx, default="US")
    if jurisdiction not in codes:
        raise UnknownJurisdiction(f"{ctx}: no profile for jurisdiction {jurisdiction!r}")
    tier = _str(body, "tier", ctx, default="standard")
    if tier not in RISK_TIERS:
        raise ParseError(f"{ctx}: unknown risk tier {tier!r}")
    policy = body.get("policy")
    if policy is not None:
        policy = _parse_policy(policy, f"{ctx}: policy")
    config = _build(ctx, SessionConfig, **{key: body[key] for key in _CONFIG_KEYS if key in body})
    catalog = []
    seen = set()
    for item_index, item_value in enumerate(_list(body.get("catalog", []), f"{ctx}: catalog")):
        item = _parse_item(item_value, agent_id, agent_ids, f"{ctx}: catalog[{item_index}]")
        if item.content_id in seen:
            raise ParseError(f"{ctx}: duplicate content_id {item.content_id!r}")
        seen.add(item.content_id)
        catalog.append(item)
    return AgentSpec(
        agent_id=agent_id,
        jurisdiction=jurisdiction,
        balance=_int(body, "balance", ctx, default=0),
        tier=tier,
        config=config,
        policy=policy,
        catalog=tuple(catalog),
    )


def _parse_network(value):
    ctx = "network"
    body = _map(value, ctx)
    _reject_unknown(body, ("latency", "drop"), ctx)
    latency = body.get("latency", 1)
    if isinstance(latency, dict):
        _reject_unknown(latency, ("min", "max"), f"{ctx}: latency")
        low = _int(latency, "min", f"{ctx}: latency")
        high = _int(latency, "max", f"{ctx}: latency")
        if low > high:
            raise ParseError(f"{ctx}: latency range is empty")
    elif isinstance(latency, bool) or not isinstance(latency, int):
        raise ParseError(f"{ctx}: latency must be an integer or a min/max map")
    elif latency < 0:
        raise ParseError(f"{ctx}: latency must be >= 0")
    else:
        low = high = latency
    drop = []
    for action, probability in _map(body.get("drop", {}), f"{ctx}: drop").items():
        if action not in ACTIONS:
            raise ParseError(f"{ctx}: drop names unknown action {action!r}")
        drop.append((action, _rate(probability, f"{ctx}: drop probability for {action!r}")))
    return NetworkSpec(latency_min=low, latency_max=high, drop=tuple(sorted(drop)))


def _parse_clock(value):
    ctx = "clock_date_map"
    body = _map(value, ctx)
    breaks = []
    for key, date in body.items():
        if not isinstance(key, str) or not key.isdigit():
            raise ParseError(f"{ctx}: keys must be non-negative tick numbers, got {key!r}")
        if not is_iso_date(date):
            raise ParseError(f"{ctx}: {key}: not a calendar date: {date!r}")
        breaks.append((int(key), date))
    breaks.sort()
    if not breaks or breaks[0][0] != 0:
        raise ParseError(f"{ctx}: must map tick 0 to the starting date")
    dates = [date for _, date in breaks]
    if dates != sorted(dates):
        raise ParseError(f"{ctx}: dates must not move backwards")
    return tuple(breaks)


def _parse_jurisdictions(value):
    ctx = "jurisdictions"
    body = _map(value, ctx)
    profiles = []
    for code, profile_value in body.items():
        profile_ctx = f"{ctx}: {code}"
        profile = _map(profile_value, profile_ctx)
        _reject_unknown(profile, ("legal_system", "privacy_regimes", "adequacy"), profile_ctx)
        profiles.append(
            JurisdictionProfile(
                code=code,
                legal_system=_str(profile, "legal_system", profile_ctx, default="civil_law"),
                privacy_regimes=frozenset(
                    _str_list(profile.get("privacy_regimes", []), f"{profile_ctx}: privacy_regimes")
                ),
                adequacy=frozenset(
                    _str_list(profile.get("adequacy", []), f"{profile_ctx}: adequacy")
                ),
            )
        )
    if not profiles:
        raise ParseError(f"{ctx}: at least one profile required")
    return tuple(profiles)


_OFFER_KEYS = ("upfront_fee", "royalty_rate")


def _parse_script_event(value, index, agent_ids, content_owners, session_ids):
    ctx = f"script[{index}]"
    body = dict(_map(value, ctx))
    tick = _int(body, "tick", ctx)
    action = _str(body, "action", ctx)
    if action not in SCRIPT_ACTIONS:
        raise ParseError(f"{ctx}: unknown script action {action!r}")
    ctx = f"script[{index}] {action}"

    def agent_ref(key):
        agent_id = _str(body, key, ctx)
        if agent_id not in agent_ids:
            raise UnresolvedReference(agent_id)
        return agent_id

    def content_ref(key, owner):
        content_id = _str(body, key, ctx)
        if content_owners.get(content_id) != owner:
            raise UnresolvedReference(content_id)
        return content_id

    if action == "request":
        _reject_unknown(
            body,
            ("tick", "action", "requester", "provider", "content_id", "session_id", "offer", "purpose"),
            ctx,
        )
        requester = agent_ref("requester")
        provider = agent_ref("provider")
        if requester == provider:
            raise ParseError(f"{ctx}: requester and provider must differ")
        content_ref("content_id", provider)
        session_id = _str(body, "session_id", ctx)
        if session_id in session_ids:
            raise ParseError(f"{ctx}: duplicate session_id {session_id!r}")
        session_ids.add(session_id)
        offer = body.get("offer")
        if offer is not None:
            offer = _map(offer, f"{ctx}: offer")
            _reject_unknown(offer, _OFFER_KEYS, f"{ctx}: offer")
            if "upfront_fee" in offer:
                _int(offer, "upfront_fee", f"{ctx}: offer")
            if "royalty_rate" in offer:
                _rate(offer["royalty_rate"], f"{ctx}: offer royalty_rate")
        _str(body, "purpose", ctx, default="")
    elif action == "decide_courtship":
        _reject_unknown(body, ("tick", "action", "agent", "content_id"), ctx)
        owner = agent_ref("agent")
        content_ref("content_id", owner)
    elif action == "downstream_sale":
        _reject_unknown(
            body, ("tick", "action", "seller", "buyer", "content_id", "price", "session_id"), ctx
        )
        seller = agent_ref("seller")
        buyer = agent_ref("buyer")
        if seller == buyer:
            raise ParseError(f"{ctx}: seller and buyer must differ")
        content_ref("content_id", seller)
        _int(body, "price", ctx)
        _str(body, "session_id", ctx, default="")
    elif action == "usage":
        _reject_unknown(body, ("tick", "action", "agent", "session_id", "tags"), ctx)
        agent_ref("agent")
        if _str(body, "session_id", ctx) not in session_ids:
            raise UnresolvedReference(body["session_id"])
        _str_list(_get(body, "tags", ctx), f"{ctx}: tags")
    elif action == "dispute":
        _reject_unknown(
            body, ("tick", "action", "claimant", "session_id", "kind", "terms_hash", "clause"), ctx
        )
        agent_ref("claimant")
        if _str(body, "session_id", ctx) not in session_ids:
            raise UnresolvedReference(body["session_id"])
        kind = _str(body, "kind", ctx)
        if kind not in DISPUTE_KINDS:
            raise ParseError(f"{ctx}: unknown dispute kind {kind!r}")
        _str(body, "terms_hash", ctx, default="")
        clause = _str_list(body.get("clause", []), f"{ctx}: clause")
        if len(clause) > 2:
            raise ParseError(f"{ctx}: clause takes a field name and at most one value")
    else:  # log
        _reject_unknown(body, ("tick", "action", "agent", "text"), ctx)
        agent_ref("agent")
        _str(body, "text", ctx)
    body.pop("tick")
    body.pop("action")
    return ScriptEvent(tick=tick, action=action, body=body)


def _parse_expectations(value, agent_ids, content_owners, session_ids):
    ctx = "expectations"
    body = _map(value, ctx)
    _reject_unknown(body, _EXPECTATION_KEYS, ctx)
    for agent_id, balance in _map(body.get("balances", {}), f"{ctx}: balances").items():
        if agent_id not in agent_ids:
            raise UnresolvedReference(agent_id)
        if isinstance(balance, bool) or not isinstance(balance, int):
            raise ParseError(f"{ctx}: balance for {agent_id!r} must be an integer")
    for session_id, state in _map(body.get("states", {}), f"{ctx}: states").items():
        if session_id not in session_ids:
            raise UnresolvedReference(session_id)
        if state not in STATE_NAMES:
            raise ParseError(f"{ctx}: unknown session state {state!r}")
    for agent_id, contents in _map(body.get("holdings", {}), f"{ctx}: holdings").items():
        if agent_id not in agent_ids:
            raise UnresolvedReference(agent_id)
        for content_id in _str_list(contents, f"{ctx}: holdings for {agent_id!r}"):
            if content_id not in content_owners:
                raise UnresolvedReference(content_id)
    for agent_id, needles in _map(
        body.get("memory_contains", {}), f"{ctx}: memory_contains"
    ).items():
        if agent_id not in agent_ids:
            raise UnresolvedReference(agent_id)
        _str_list(needles, f"{ctx}: memory_contains for {agent_id!r}")
    for index, line in enumerate(_list(body.get("payments", []), f"{ctx}: payments")):
        line_ctx = f"{ctx}: payments[{index}]"
        line = _map(line, line_ctx)
        _reject_unknown(line, ("from", "to", "amount"), line_ctx)
        for key in ("from", "to"):
            if _str(line, key, line_ctx) not in agent_ids:
                raise UnresolvedReference(line[key])
        _int(line, "amount", line_ctx)
    return body


_TOP_KEYS = (
    "name",
    "seed",
    "max_ticks",
    "clock_date_map",
    "jurisdictions",
    "blocked_pairs",
    "agents",
    "network",
    "script",
    "expectations",
)


def scenario_from_value(value):
    """Validate a parsed scenario document into a Scenario."""
    body = _map(value, "scenario")
    _reject_unknown(body, _TOP_KEYS, "scenario")
    name = _str(body, "name", "scenario")
    seed = _int(body, "seed", "scenario", default=0)
    max_ticks = _int(body, "max_ticks", "scenario", default=DEFAULT_MAX_TICKS, minimum=1)
    clock = _parse_clock(body.get("clock_date_map", {"0": DEFAULT_START_DATE}))
    if "jurisdictions" in body:
        profiles = _parse_jurisdictions(body["jurisdictions"])
    else:
        profiles = DEFAULT_PROFILES
    codes = {profile.code for profile in profiles}
    blocked = []
    for index, pair in enumerate(_list(body.get("blocked_pairs", []), "blocked_pairs")):
        pair = _str_list(pair, f"blocked_pairs[{index}]")
        if len(pair) != 2:
            raise ParseError(f"blocked_pairs[{index}]: exactly two codes required")
        for code in pair:
            if code not in codes:
                raise UnknownJurisdiction(f"blocked_pairs[{index}]: no profile for {code!r}")
        blocked.append(pair)

    agent_values = _list(_get(body, "agents", "scenario"), "agents")
    if len(agent_values) < 2:
        raise ParseError("scenario: at least 2 agents required")
    agent_ids = []
    for index, agent_value in enumerate(agent_values):
        agent_id = _str(_map(agent_value, f"agents[{index}]"), "id", f"agents[{index}]")
        if agent_id in agent_ids:
            raise ParseError(f"agents[{index}]: duplicate agent id {agent_id!r}")
        agent_ids.append(agent_id)
    agent_ids = tuple(agent_ids)
    agents = tuple(
        _parse_agent(agent_value, agent_ids, codes, index)
        for index, agent_value in enumerate(agent_values)
    )

    content_owners = {}
    for spec in agents:
        for item in spec.catalog:
            if item.content_id in content_owners:
                raise ParseError(
                    f"content_id {item.content_id!r} appears in more than one catalog"
                )
            content_owners[item.content_id] = spec.agent_id
    for spec in agents:
        for item in spec.catalog:
            if item.derived_from and item.derived_from not in content_owners:
                raise UnresolvedReference(item.derived_from)

    network = _parse_network(body.get("network", {}))
    session_ids = set()
    script = []
    last_tick = 0
    for index, event_value in enumerate(_list(body.get("script", []), "script")):
        event = _parse_script_event(event_value, index, agent_ids, content_owners, session_ids)
        if event.tick < last_tick:
            raise ParseError(f"script[{index}]: ticks must not decrease")
        last_tick = event.tick
        script.append(event)
    expectations = _parse_expectations(
        body.get("expectations", {}), agent_ids, content_owners, session_ids
    )
    return Scenario(
        name=name,
        agents=agents,
        seed=seed,
        max_ticks=max_ticks,
        clock_date_map=clock,
        jurisdictions=profiles,
        blocked_pairs=tuple(blocked),
        network=network,
        script=tuple(script),
        expectations=expectations,
    )


def scenario_from_bytes(raw):
    """Parse scenario bytes, insisting on the canonical encoding."""
    value = canon.loads(raw)
    encoded = canon.dumps(value)
    stripped = bytes(raw)
    if stripped.endswith(b"\n"):
        stripped = stripped[:-1]
    if encoded != stripped:
        raise ParseError("scenario file is not in canonical form")
    return scenario_from_value(value)


def load_scenario(path):
    """Load and fully validate a scenario file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    return scenario_from_bytes(raw)
