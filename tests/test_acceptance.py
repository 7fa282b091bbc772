"""Acceptance gate: one test per release criterion.

Each test exercises the public package surface end to end and prints a
single PASS line with the numbers it measured. A failing criterion shows
up as the pytest failure line for that test.
"""

import copy
import hashlib
import random
import time
from decimal import Decimal

from atcpip import canon
from atcpip.disputes import DisputeCourt
from atcpip.ledger import ENTRY_KINDS, Ledger, verify_entries
from atcpip.negotiation import NegotiationPolicy, NumericBound
from atcpip.payments import RoyaltyObligation, WalletSystem, compute_split
from atcpip.protocol import (
    NO_PAYMENT_FAILURE,
    NO_TERMS_FAILURE,
    NO_TOKEN_FAILURE,
    RequesterState,
    SessionConfig,
)
from atcpip.runtime import AgentRuntime, CatalogItem
from atcpip.scenario import scenario_from_bytes, scenario_from_value
from atcpip.scenarios import BUILTIN_SCENARIOS, builtin_bytes
from atcpip.sim import check_expectations, run_scenario
from atcpip.terms import FIELD_ORDER, LicenseTerms, TAG_FIELDS, terms_from_value, terms_hash
from atcpip.trust import ReputationBoard
from conftest import PROFILES, mint_agreement, negotiate, transaction_records


def _deltas(world):
    return {
        agent_id: world.wallets.balance(agent_id) - start
        for agent_id, start in world.initial_balances.items()
    }


def _run_builtin(name):
    scenario = scenario_from_bytes(builtin_bytes(name))
    transcript, world = run_scenario(scenario)
    return scenario, transcript, world


def _failed_state_line(transcript, agent_id):
    for line in transcript.splitlines():
        value = canon.loads(line)
        if (
            value["kind"] == "state"
            and value.get("agent") == agent_id
            and value.get("state") == "failed"
        ):
            return value
    return None


# -- 1: multi-hop royalty routing ------------------------------------------------


def test_c01_multihop_deal_routes_split_payments_exactly():
    scenario = scenario_from_bytes(builtin_bytes("uc4_multihop"))
    started = time.perf_counter()
    transcript, world = run_scenario(scenario)
    elapsed = time.perf_counter() - started
    deltas = _deltas(world)
    assert deltas["agent_f"] == 85_000_000
    assert deltas["agent_g"] == 15_000_000
    assert check_expectations(scenario, world) == []
    assert world.conservation_intact()
    assert elapsed < 1.0
    print(f"PASS 01 multihop split: agent_f +85000000, agent_g +15000000 ({elapsed:.3f}s)")


# -- 2: the split follows the terms, not wired constants --------------------------


def test_c02_split_changes_when_negotiated_extra_line_is_removed():
    value = canon.loads(builtin_bytes("uc4_multihop"))
    removed = 0
    for agent in value["agents"]:
        for item in agent.get("catalog", ()):
            if item.pop("extra_royalties", None) is not None:
                removed += 1
    assert removed == 1
    value.pop("expectations", None)
    transcript, world = run_scenario(scenario_from_value(value))
    deltas = _deltas(world)
    assert deltas["agent_f"] == 95_000_000
    assert deltas["agent_g"] == 5_000_000
    assert world.conservation_intact()
    print("PASS 02 terms-driven split: without the extra line agent_f +95000000, agent_g +5000000")


# -- 3: generated defaults and timeout discipline ----------------------------------


def _drop_scenario(action, request_tick, fee):
    return scenario_from_value(
        {
            "name": f"drop-{action}",
            "seed": 5,
            "max_ticks": 120,
            "network": {"latency": 0, "drop": {action: Decimal("1.0000")}},
            "agents": [
                {"id": "req", "balance": 10_000_000},
                {
                    "id": "prov",
                    "catalog": [
                        {
                            "content_id": "parcel",
                            "content": "payload",
                            "tags": ["dataset"],
                            "terms": {"upfront_fee": fee, "duration": "2030-01-01"},
                        }
                    ],
                },
            ],
            "script": [
                {
                    "tick": request_tick,
                    "action": "request",
                    "requester": "req",
                    "provider": "prov",
                    "content_id": "parcel",
                    "session_id": "s1",
                    "purpose": "inference",
                }
            ],
        }
    )


def test_c03_default_terms_and_timeout_discipline():
    config = SessionConfig()
    assert config.negotiation_timeout == 10
    assert config.settlement_timeout == 30

    # A provider without a stored template formulates the default offer.
    transcript, world = run_scenario(
        scenario_from_value(
            {
                "name": "generated-terms",
                "seed": 3,
                "agents": [
                    {"id": "req", "balance": 50_000_000},
                    {
                        "id": "prov",
                        "catalog": [
                            {"content_id": "plain-set", "content": "rows", "tags": ["dataset"]}
                        ],
                    },
                ],
                "script": [
                    {
                        "tick": 0,
                        "action": "request",
                        "requester": "req",
                        "provider": "prov",
                        "content_id": "plain-set",
                        "session_id": "s1",
                        "purpose": "inference",
                    }
                ],
            }
        )
    )
    token = world.ledger.session_agreement("s1")
    assert token is not None
    assert token.terms.royalty_rate == Decimal("0.0500")
    assert token.terms.duration == "2025-01-01"

    # Token never arrives: the provider gives up on the settlement clock.
    transcript, world = run_scenario(_drop_scenario("license_token", 7, 2_000_000))
    line = _failed_state_line(transcript, "prov")
    assert line is not None
    assert line["tick"] == 7 + 30
    assert line["failure"] == NO_TOKEN_FAILURE == "No valid license token received."

    # Payment never confirmed: same clock, the other failure reason.
    transcript, world = run_scenario(_drop_scenario("payment_confirmed", 5, 2_000_000))
    line = _failed_state_line(transcript, "prov")
    assert line is not None
    assert line["tick"] == 5 + 30
    assert line["failure"] == NO_PAYMENT_FAILURE == "Payment not confirmed by requester."

    # No terms ever offered: the requester stops listening after 10 ticks.
    transcript, world = run_scenario(_drop_scenario("propose_terms", 3, 2_000_000))
    line = _failed_state_line(transcript, "req")
    assert line is not None
    assert line["tick"] == 3 + 10
    assert line["failure"] == NO_TERMS_FAILURE == "No terms received."

    print(
        "PASS 03 defaults and clocks: royalty 0.0500, duration 2025-01-01,"
        " settlement fails at +30, listening stops at +10"
    )


# -- 4: the dataset licensing story end to end -------------------------------------


def test_c04_dataset_deal_completes_with_verified_token_and_matching_records():
    scenario, transcript, world = _run_builtin("uc1_dataset")
    assert check_expectations(scenario, world) == []
    requester = world.runtimes["agent_a"]
    provider = world.runtimes["agent_b"]
    token = requester.tokens["climate-temps-2024"]
    assert world.ledger.verify_token(token, token.terms) is True
    assert _deltas(world)["agent_b"] == 10_000_000
    mine = transaction_records(requester)
    theirs = transaction_records(provider)
    assert len(mine) == 1 and len(theirs) == 1
    assert mine[0].license_id == theirs[0].license_id == token.license_id
    assert mine[0].terms_hash == theirs[0].terms_hash == token.terms_hash
    assert mine[0].content_id == theirs[0].content_id == "climate-temps-2024"
    assert mine[0].requester_id == theirs[0].requester_id == "agent_a"
    assert "fine_tuned_on:climate-temps-2024" in requester.memory_texts()
    print("PASS 04 dataset deal: token verifies, provider +10000000, records match")


# -- 5: deterministic replays ------------------------------------------------------


def test_c05_builtin_scenarios_replay_byte_identical():
    started = time.perf_counter()
    digests = {}
    for name in BUILTIN_SCENARIOS:
        scenario = scenario_from_bytes(builtin_bytes(name))
        runs = {hashlib.sha256(run_scenario(scenario)[0]).hexdigest() for _ in range(3)}
        assert len(runs) == 1, f"{name} produced diverging transcripts"
        digests[name] = runs.pop()
    elapsed = time.perf_counter() - started
    assert len(digests) == 4
    assert elapsed < 5.0
    print(f"PASS 05 determinism: 4 scenarios x 3 runs, one digest each ({elapsed:.3f}s)")


# -- 6: tamper detection over the exported chain -----------------------------------


def _leaf_paths(value, prefix=()):
    if isinstance(value, dict):
        if not value:
            yield prefix, value
        for key, sub in value.items():
            yield from _leaf_paths(sub, prefix + (key,))
    elif isinstance(value, list):
        if not value:
            yield prefix, value
        for position, sub in enumerate(value):
            yield from _leaf_paths(sub, prefix + (position,))
    else:
        yield prefix, value


def _mutate_leaf(rng, payload):
    paths = list(_leaf_paths(payload))
    path, old = paths[rng.randrange(len(paths))]
    parent = payload
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if isinstance(old, bool):
        parent[last] = not old
    elif isinstance(old, int):
        parent[last] = old + 1 + rng.randrange(9)
    elif isinstance(old, Decimal):
        parent[last] = old + Decimal("0.0001")
    elif isinstance(old, str):
        parent[last] = old + "x"
    elif isinstance(old, list):
        parent[last] = ["tampered"]
    else:
        parent[last] = {"tampered": 1}


def _flip_hex(rng, digest):
    position = rng.randrange(len(digest))
    replacement = rng.choice([c for c in "0123456789abcdef" if c != digest[position]])
    return digest[:position] + replacement + digest[position + 1 :]


def test_c06_single_entry_tamperings_are_all_detected():
    _, _, world = _run_builtin("uc4_multihop")
    base = world.ledger.export_entries()
    assert verify_entries(base) is True
    base_head = (len(base), base[-1]["entry_hash"])
    rng = random.Random(0xC6)
    kinds = sorted(ENTRY_KINDS)
    modes = ("leaf", "kind", "height", "payload_hash", "entry_hash", "delete", "duplicate", "swap")
    detected = 0
    for _ in range(1000):
        entries = canon.loads(canon.dumps(base))
        mode = rng.choice(modes)
        index = rng.randrange(len(entries))
        entry = entries[index]
        if mode == "leaf":
            _mutate_leaf(rng, entry["payload"])
        elif mode == "kind":
            entry["kind"] = rng.choice([kind for kind in kinds if kind != entry["kind"]])
        elif mode == "height":
            entry["height"] += rng.choice((-1, 1, 7))
        elif mode == "payload_hash":
            entry["payload_hash"] = _flip_hex(rng, entry["payload_hash"])
        elif mode == "entry_hash":
            entry["entry_hash"] = _flip_hex(rng, entry["entry_hash"])
        elif mode == "delete":
            del entries[index]
        elif mode == "duplicate":
            entries.insert(index, canon.loads(canon.dumps(entry)))
        else:
            other = (index + 1) % len(entries)
            entries[index], entries[other] = entries[other], entries[index]
        # Chain verification covers every in-place edit. Cutting entries
        # off the tail leaves a shorter history that is still internally
        # consistent; only the published head (length and newest digest)
        # can expose that, so the check pins both.
        head = (len(entries), entries[-1]["entry_hash"]) if entries else (0, "")
        if not verify_entries(entries) or head != base_head:
            detected += 1
    assert detected == 1000
    print("PASS 06 tamper detection: 1000/1000 single-entry edits caught")


# -- 7: tokens bind the exact terms -------------------------------------------------


_SCOPES = (
    ("personal",),
    ("personal", "commercial"),
    ("commercial", "sublicensable"),
    ("personal", "commercial", "sublicensable"),
)
_DURATIONS = ("2030-01-01", "2031-06-30", "2040-12-31")
_CODES = ("US", "CA", "DE", "GB", "JP")
_TRANSFER = ("non_transferable", "transferable", "transferable_with_approval")
_RESOLUTION = ("onchain_arbitration", "offchain_arbitration", "court")
_RESTRICTIONS = ("read_only", "no_training", "no_redistribution", "attribution_required")
_COMPLIANCE = ("gdpr", "ccpa", "audit_trail")
_REVOCATION = ("dispute_loss", "non_payment", "misuse")


def _random_terms(rng, label):
    return LicenseTerms(
        name=label,
        description=rng.choice(("", "weights", "full corpus")),
        scope=rng.choice(_SCOPES),
        duration=rng.choice(_DURATIONS),
        jurisdiction=rng.choice(_CODES),
        governing_law=rng.choice(_CODES),
        royalty_rate=Decimal(rng.randrange(0, 4000)) * Decimal("0.0001"),
        transferability=rng.choice(_TRANSFER),
        revocation_conditions=tuple(rng.sample(_REVOCATION, rng.randrange(0, 3))),
        dispute_resolution=rng.choice(_RESOLUTION),
        onchain_enforcement=rng.random() < 0.5,
        offchain_enforcement=rng.random() < 0.5,
        compliance_requirements=tuple(rng.sample(_COMPLIANCE, rng.randrange(0, 3))),
        ip_restrictions=tuple(rng.sample(_RESTRICTIONS, rng.randrange(0, 4))),
        chain_of_ownership=rng.random() < 0.5,
        rev_share=Decimal(rng.randrange(0, 4000)) * Decimal("0.0001"),
        upfront_fee=rng.randrange(0, 10**9),
    )


def _toggle(tags, tag):
    if tag in tags:
        return tuple(value for value in tags if value != tag)
    return tags + (tag,)


def _mutate_terms(rng, base):
    field = rng.choice(FIELD_ORDER)
    if field == "name":
        return base.replace(name=base.name + "x")
    if field == "description":
        return base.replace(description=base.description + "x")
    if field == "scope":
        return base.replace(scope=_toggle(base.scope, "commercial"))
    if field == "duration":
        return base.replace(duration="2050-01-01" if base.duration != "2050-01-01" else "2051-01-01")
    if field == "jurisdiction":
        return base.replace(jurisdiction="FR" if base.jurisdiction != "FR" else "IT")
    if field == "governing_law":
        return base.replace(governing_law="FR" if base.governing_law != "FR" else "IT")
    if field == "royalty_rate":
        return base.replace(royalty_rate=base.royalty_rate + Decimal("0.0001"))
    if field == "transferability":
        pool = [mode for mode in _TRANSFER if mode != base.transferability]
        return base.replace(transferability=rng.choice(pool))
    if field == "revocation_conditions":
        return base.replace(revocation_conditions=_toggle(base.revocation_conditions, "dispute_loss"))
    if field == "dispute_resolution":
        pool = [mode for mode in _RESOLUTION if mode != base.dispute_resolution]
        return base.replace(dispute_resolution=rng.choice(pool))
    if field == "onchain_enforcement":
        return base.replace(onchain_enforcement=not base.onchain_enforcement)
    if field == "offchain_enforcement":
        return base.replace(offchain_enforcement=not base.offchain_enforcement)
    if field == "compliance_requirements":
        return base.replace(compliance_requirements=_toggle(base.compliance_requirements, "audit_trail"))
    if field == "ip_restrictions":
        return base.replace(ip_restrictions=_toggle(base.ip_restrictions, "no_training"))
    if field == "chain_of_ownership":
        return base.replace(chain_of_ownership=not base.chain_of_ownership)
    if field == "rev_share":
        return base.replace(rev_share=base.rev_share + Decimal("0.0001"))
    return base.replace(upfront_fee=base.upfront_fee + 1)


def test_c07_token_verification_rejects_any_terms_edit():
    rng = random.Random(0xC7)
    ledger = Ledger(current_date="2024-01-01")
    ledger.register_agent("issuer", b"issuer-key")
    ledger.register_agent("holder", b"holder-key")
    for trial in range(1000):
        base = _random_terms(rng, f"ip-{trial}")
        token = mint_agreement(
            ledger, "holder", "issuer", base, base.duration, session_id=f"mint-{trial}"
        )
        mutated = _mutate_terms(rng, base)
        assert mutated != base
        assert ledger.verify_token(token, mutated) is False
        assert ledger.verify_token(token, base) is True
    print("PASS 07 token soundness: 1000/1000 edited terms rejected, originals verify")


# -- 8: split conservation ----------------------------------------------------------


def test_c08_royalty_split_conserves_every_price():
    rng = random.Random(0xC8)
    beneficiaries = ("b0", "b1", "b2", "b3", "b4")
    for trial in range(10_000):
        price = rng.randrange(0, 10**12)
        remaining = 10_000
        obligations = []
        for _ in range(rng.randrange(0, 6)):
            units = rng.randrange(0, remaining + 1)
            remaining -= units
            obligations.append(
                RoyaltyObligation(rng.choice(beneficiaries), Decimal(units) * Decimal("0.0001"))
            )
        plan = compute_split(price, "prov", obligations)
        assert sum(amount for _, amount in plan.lines) == price
        assert all(amount >= 0 for _, amount in plan.lines)
    print("PASS 08 split conservation: 10000/10000 random splits sum to the price")


# -- 9: delivery safety under drops, reorders, and replays --------------------------


def _exchange_world(fee):
    ledger = Ledger(current_date="2024-01-01")
    wallets = WalletSystem(ledger)
    board = ReputationBoard(ledger)
    directory = {}
    runtimes = {}
    for agent_id in ("req", "prov"):
        ledger.register_agent(agent_id, agent_id.encode() + b"-key")
        wallets.open_account(agent_id, 10_000_000)
        directory[agent_id] = "US"
        runtimes[agent_id] = AgentRuntime(
            agent_id, ledger, wallets, board, PROFILES, frozenset(), directory
        )
    runtimes["prov"].add_item(
        CatalogItem(
            "parcel",
            "payload-bytes",
            tags=("dataset",),
            terms=LicenseTerms(name="parcel", upfront_fee=fee, duration="2030-01-01"),
        )
    )
    return ledger, runtimes


def _explore_exchange(fee, budget):
    """Walk every fate assignment for every in-flight message.

    Each pending message can be delivered, dropped, or delivered twice in
    a row, and any pending message may arrive first. Branches stop once a
    trace has emitted more messages than the budget allows.
    """
    ledger, runtimes = _exchange_world(fee)
    opening = list(runtimes["req"].start_request("s1", "prov", "parcel", purpose="inference"))
    stats = {"traces": 0, "completed": 0, "gated_deliveries": 0}

    def _assert_delivery_is_safe(book):
        token = book.session_agreement("s1")
        assert token is not None, "content released without a committed token"
        assert book.verify_token(token, token.terms) is True
        stats["gated_deliveries"] += 1

    stack = [(ledger, runtimes, opening, len(opening))]
    while stack:
        ledger, runtimes, pending, emitted = stack.pop()
        if not pending or emitted > budget:
            stats["traces"] += 1
            accepted = sum(
                1
                for text in runtimes["req"].memory_texts()
                if text.startswith("License token accepted")
            )
            assert accepted <= 1, "one session accepted two deliveries"
            requester_done = runtimes["req"].session("s1").state.value == "completed"
            provider_sessions = runtimes["prov"].sessions()
            provider_done = (
                "s1" in provider_sessions and provider_sessions["s1"].state.value == "completed"
            )
            if requester_done and provider_done:
                stats["completed"] += 1
            continue
        for index in range(len(pending)):
            for fate in ("deliver", "drop", "replay"):
                book, agents, queue = copy.deepcopy((ledger, runtimes, pending))
                frame = queue.pop(index)
                grown = emitted
                if fate != "drop":
                    for _ in range(2 if fate == "replay" else 1):
                        if frame.action == "deliver_ip":
                            _assert_delivery_is_safe(book)
                        outbound = agents[frame.recipient].receive_message(frame)
                        for sent in outbound:
                            if sent.action == "deliver_ip":
                                _assert_delivery_is_safe(book)
                        queue.extend(outbound)
                        grown += len(outbound)
                stack.append((book, agents, queue, grown))
    return stats


def test_c09_no_delivery_without_verified_token_under_any_interleaving():
    free = _explore_exchange(fee=0, budget=6)
    assert free["completed"] >= 1
    paid = _explore_exchange(fee=2_000_000, budget=8)
    assert paid["completed"] >= 1
    traces = free["traces"] + paid["traces"]
    print(
        f"PASS 09 delivery safety: {traces} exhaustive traces,"
        f" every release gated by a committed verified token,"
        f" never more than one acceptance per session"
    )


# -- 10: arbitration matches a brute-force reading of the record --------------------


def _clause_holds(clause, terms):
    field = clause[0]
    if field not in FIELD_ORDER:
        return False
    value = getattr(terms, field)
    if len(clause) == 1:
        return bool(value)
    if field in TAG_FIELDS:
        return clause[1] in value
    return str(value) == clause[1]


def _expected_misrepresentation_winner(ledger, claim):
    """Independent scan: read drafts and the final token straight off the
    chain and apply the published decision rule."""
    drafts = []
    final = None
    for entry in ledger.entries():
        if entry.payload.get("session_id") != claim.session_id:
            continue
        if entry.kind == "draft_token":
            drafts.append(terms_from_value(entry.payload["terms"]))
        elif entry.kind == "agreement_token":
            final = terms_from_value(entry.payload["terms"])
    if claim.asserted_clause:
        if _clause_holds(claim.asserted_clause, final):
            return claim.respondent_id
        if any(_clause_holds(claim.asserted_clause, draft) for draft in drafts):
            return claim.claimant_id
        return claim.respondent_id
    if claim.asserted_terms_hash != terms_hash(final):
        return claim.claimant_id
    return claim.respondent_id


def _random_clause(rng, pool_terms):
    field = rng.choice(FIELD_ORDER)
    source = rng.choice(pool_terms)
    if rng.random() < 0.35:
        return (field,)
    if field in TAG_FIELDS:
        tags = getattr(source, field)
        if tags and rng.random() < 0.7:
            return (field, rng.choice(tags))
        return (field, rng.choice(("no_resale", "export_control", "sublicensable")))
    if rng.random() < 0.7:
        return (field, str(getattr(source, field)))
    return (field, rng.choice(("2099-01-01", "court", "0.9999", "owner", "True")))


def test_c10_misrepresentation_verdicts_match_brute_force():
    rng = random.Random(0xC10)
    for trial in range(500):
        ledger = Ledger(current_date="2024-01-01")
        ledger.register_agent("issuer", b"issuer-key")
        ledger.register_agent("holder", b"holder-key")
        board = ReputationBoard(ledger)
        court = DisputeCourt(ledger, board)

        terms = _random_terms(rng, f"case-{trial}")
        drafts = []
        for _ in range(rng.randrange(1, 4)):
            if drafts and rng.random() < 0.7:
                terms = _mutate_terms(rng, terms)
            proposer = rng.choice(("issuer", "holder"))
            ledger.mint_draft("case", proposer, terms)
            drafts.append(terms)
        final = _mutate_terms(rng, drafts[-1]) if rng.random() < 0.4 else drafts[-1]
        mint_agreement(ledger, "holder", "issuer", final, final.duration, session_id="case")

        claimant, respondent = rng.choice((("holder", "issuer"), ("issuer", "holder")))
        pool = drafts + [final, _random_terms(rng, f"other-{trial}")]
        if rng.random() < 0.5:
            clause, asserted_hash = _random_clause(rng, pool), ""
        else:
            clause, asserted_hash = (), terms_hash(rng.choice(pool))
        claim = court.file_dispute(
            "case",
            claimant,
            respondent,
            "misrepresentation",
            asserted_terms_hash=asserted_hash,
            asserted_clause=clause,
        )
        verdict = court.arbitrate(claim.dispute_id)
        assert verdict.winner_id == _expected_misrepresentation_winner(ledger, claim)
    print("PASS 10 arbitration oracle: 500/500 verdicts match the brute-force scan")


# -- 11: overlapping policies always converge ---------------------------------------


def _overlapping_bounds(rng, floor, ceiling, to_value):
    """Two bounds whose intersection is nonempty, plus an opening value
    drawn from the first bound."""
    meet = rng.randint(floor, ceiling)
    join = rng.randint(meet, ceiling)
    first = NumericBound(to_value(rng.randint(floor, meet)), to_value(rng.randint(join, ceiling)))
    second = NumericBound(to_value(rng.randint(floor, meet)), to_value(rng.randint(join, ceiling)))
    opening = to_value(rng.randint(floor, ceiling))
    return first, second, opening


def test_c11_overlapping_policies_converge_within_the_round_limit():
    rng = random.Random(0xC11)
    quarter = lambda units: Decimal(units) * Decimal("0.0001")
    for trial in range(1000):
        provider_bounds, requester_bounds, opening = {}, {}, {}
        for field in ("royalty_rate", "rev_share"):
            mine, theirs, start = _overlapping_bounds(rng, 0, 4000, quarter)
            provider_bounds[field] = mine
            requester_bounds[field] = theirs
            opening[field] = mine.clamp(start)
        mine, theirs, start = _overlapping_bounds(rng, 0, 5_000_000, int)
        provider_bounds["upfront_fee"] = mine
        requester_bounds["upfront_fee"] = theirs
        opening["upfront_fee"] = mine.clamp(start)

        provider = NegotiationPolicy(
            bounds=provider_bounds,
            max_rounds=rng.randint(2, 5),
            concession_step=Decimal(rng.choice(("0.2500", "0.5000", "0.7500", "1.0000"))),
        )
        requester = NegotiationPolicy(
            bounds=requester_bounds,
            max_rounds=provider.max_rounds,
            concession_step=Decimal("0.5000"),
        )
        offer = LicenseTerms(name=f"deal-{trial}", duration="2030-01-01", **opening)

        _, runtimes = negotiate(offer, provider, requester)
        session = runtimes["requester"].session("s1")
        assert session.state is RequesterState.COMPLETED, (
            f"trial {trial} never converged: {runtimes['provider'].session('s1').reject_reason}"
        )
        for field in ("royalty_rate", "rev_share", "upfront_fee"):
            value = getattr(session.terms, field)
            assert provider_bounds[field].contains(value)
            assert requester_bounds[field].contains(value)
    print("PASS 11 negotiation convergence: 1000/1000 overlapping policies agreed in bounds")
