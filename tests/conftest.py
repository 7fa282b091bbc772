"""Shared factories for the test suite."""

from collections import deque

import pytest

from atcpip.ledger import Ledger
from atcpip.negotiation import RISK_TIERS
from atcpip.payments import WalletSystem
from atcpip.runtime import AgentRuntime, CatalogItem
from atcpip.terms import LicenseTerms
from atcpip.trust import JurisdictionProfile, ReputationBoard

US = JurisdictionProfile("US", ("ccpa",), ("US", "CA", "GB"))
EU = JurisdictionProfile("EU", ("gdpr",), ("EU",))
PROFILES = {"US": US, "EU": EU}


def make_terms(**overrides):
    return LicenseTerms(**overrides)


@pytest.fixture
def terms():
    return make_terms()


def mint_agreement(
    ledger, requester_id, issuer_id, terms, expiry_date, previous_license_id=None, session_id=""
):
    """Prepare and commit an agreement token in one step."""
    token = ledger.prepare_agreement(
        requester_id, issuer_id, terms, expiry_date, previous_license_id, session_id
    )
    return ledger.commit_agreement(token)


def transaction_records(runtime):
    return [record for record in runtime.memory if record.kind == "transaction"]


def make_world(agents, blocked_pairs=frozenset(), config=None):
    """agents: {agent_id: kwargs}; returns (ledger, wallets, board, runtimes)."""
    ledger = Ledger(current_date="2024-01-01")
    wallets = WalletSystem(ledger)
    board = ReputationBoard(ledger)
    directory = {}
    runtimes = {}
    for agent_id, kwargs in agents.items():
        kwargs = dict(kwargs)
        jurisdiction = kwargs.pop("jurisdiction", "US")
        balance = kwargs.pop("balance", 0)
        items = kwargs.pop("items", ())
        ledger.register_agent(agent_id, agent_id.encode() + b"-key")
        wallets.open_account(agent_id, balance)
        directory[agent_id] = jurisdiction
        runtime = AgentRuntime(
            agent_id,
            ledger,
            wallets,
            board,
            PROFILES,
            blocked_pairs,
            directory,
            config=config,
            **kwargs,
        )
        for item in items:
            runtime.add_item(item)
        runtimes[agent_id] = runtime
    return ledger, wallets, board, runtimes


def pump(runtimes, messages):
    """Deliver messages directly until both sides go quiet."""
    queue = deque(messages)
    delivered = 0
    while queue:
        message = queue.popleft()
        queue.extend(runtimes[message.recipient].receive_message(message))
        delivered += 1
        assert delivered < 200, "message storm"
    return delivered


def negotiate(opening, provider_policy, requester_policy, tier="conservative"):
    """Run one licensing session over ``opening`` between a "provider" and
    a "requester" runtime, with messages pumped directly; returns
    (ledger, runtimes). The conservative tier auto-accepts no counter, so
    every counter costs the provider a revision."""
    item = CatalogItem("item", "content", tags=("dataset",), terms=opening)
    ledger, _, _, runtimes = make_world(
        {
            "provider": {
                "items": (item,),
                "policy": provider_policy,
                "tier": RISK_TIERS[tier],
            },
            "requester": {"balance": 10**12, "policy": requester_policy},
        }
    )
    pump(runtimes, runtimes["requester"].start_request("s1", "provider", "item"))
    return ledger, runtimes
