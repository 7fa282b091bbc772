"""Payments: split arithmetic, wallet atomicity, lineage obligations."""

from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from atcpip.canon import INT_MAX
from atcpip.errors import BalanceOverflow, InsufficientFunds, OverSubscribed, UnknownAccount
from atcpip.ledger import Ledger
from atcpip.payments import (
    RoyaltyObligation,
    WalletSystem,
    aggregate_obligations,
    compute_split,
    share_units,
)
from conftest import make_terms, mint_agreement

CREDIT = 1_000_000


def obligation(beneficiary, share):
    return RoyaltyObligation(beneficiary, Decimal(share))


def test_split_merges_same_beneficiary_before_flooring():
    plan = compute_split(
        100 * CREDIT,
        "provider",
        [obligation("upstream", "0.05"), obligation("upstream", "0.10")],
    )
    assert plan.lines == (("upstream", 15 * CREDIT), ("provider", 85 * CREDIT))
    assert sum(amount for rid, amount in plan.lines if rid == "upstream") == 15 * CREDIT


def test_split_single_royalty_line():
    plan = compute_split(100 * CREDIT, "provider", [obligation("upstream", "0.05")])
    assert plan.lines == (("upstream", 5 * CREDIT), ("provider", 95 * CREDIT))


def test_split_with_no_obligations_pays_provider_everything():
    assert compute_split(7, "provider").lines == (("provider", 7),)


def test_split_floors_and_hands_residue_to_provider():
    plan = compute_split(999, "provider", [obligation("b", "0.3333")])
    assert plan.lines == (("b", 332), ("provider", 667))


def test_zero_amount_lines_are_kept():
    plan = compute_split(10, "provider", [obligation("b", "0.0001")])
    assert plan.lines == (("b", 0), ("provider", 10))


def test_provider_obligation_line_stays_separate_from_residual():
    plan = compute_split(100, "provider", [obligation("provider", "0.25")])
    assert plan.lines == (("provider", 25), ("provider", 75))
    assert sum(amount for rid, amount in plan.lines if rid == "provider") == 100


def test_oversubscribed_shares_rejected():
    with pytest.raises(OverSubscribed):
        compute_split(100, "p", [obligation("a", "0.6"), obligation("b", "0.5")])
    with pytest.raises(OverSubscribed):
        obligation("a", "1.5")
    # exactly 1.0 in aggregate is allowed
    plan = compute_split(100, "p", [obligation("a", "0.4"), obligation("b", "0.6")])
    assert plan.lines[-1] == ("p", 0)


def test_bad_prices_rejected():
    with pytest.raises(ValueError):
        compute_split(-1, "p")
    with pytest.raises(ValueError):
        compute_split(True, "p")


def test_share_units_exact():
    assert share_units(Decimal("0.0500")) == 500
    assert share_units(Decimal("1")) == 10_000
    assert share_units(Decimal("0.0001")) == 1


@given(
    st.integers(min_value=0, max_value=10**12),
    st.lists(
        st.tuples(st.sampled_from("abcde"), st.integers(min_value=0, max_value=2000)),
        max_size=5,
    ),
)
def test_split_conserves_price_exactly(price, raw_shares):
    obligations = [
        obligation(name, Decimal(units).scaleb(-4)) for name, units in raw_shares
    ]
    plan = compute_split(price, "provider", obligations)
    assert sum(amount for _, amount in plan.lines) == price
    assert all(amount >= 0 for _, amount in plan.lines)
    assert plan.lines[-1][0] == "provider"


# -- lineage obligations -------------------------------------------------------


def lineage_of_two():
    book = Ledger()
    for agent in ("g", "f", "e"):
        book.register_agent(agent, agent.encode())
    root = mint_agreement(
        book, "f", "g", make_terms(royalty_rate="0.05", rev_share="0.10"), "perpetual"
    )
    child = mint_agreement(
        book, "e", "f", make_terms(royalty_rate="0.02", rev_share="0.00"), "perpetual",
        previous_license_id=root.license_id,
    )
    return book.chain_of_ownership(child.license_id)


def test_aggregate_obligations_by_event_kind():
    lineage = lineage_of_two()
    sub = aggregate_obligations(lineage, "sublicense")
    assert [(o.beneficiary, str(o.share)) for o in sub] == [("g", "0.0500"), ("f", "0.0200")]
    sale = aggregate_obligations(lineage, "downstream_sale")
    assert [(o.beneficiary, str(o.share)) for o in sale] == [("g", "0.1000")]
    with pytest.raises(ValueError):
        aggregate_obligations(lineage, "resale")


# -- wallets --------------------------------------------------------------------


def wallet_fixture():
    book = Ledger()
    wallet = WalletSystem(book)
    wallet.open_account("alice", 100)
    wallet.open_account("bob", 0)
    wallet.open_account("carol", 0)
    return book, wallet


def test_duplicate_account_rejected():
    _, wallet = wallet_fixture()
    with pytest.raises(UnknownAccount):
        wallet.open_account("alice")


def test_opening_balance_must_fit_64_bits():
    _, wallet = wallet_fixture()
    wallet.open_account("dave", INT_MAX)
    with pytest.raises(ValueError):
        wallet.open_account("erin", INT_MAX + 1)


def test_settle_past_the_64_bit_range_changes_nothing():
    book, wallet = wallet_fixture()
    wallet.open_account("rich", INT_MAX - 10)
    plan = compute_split(100, "rich", [obligation("carol", "0.15")])
    with pytest.raises(BalanceOverflow):
        wallet.settle("alice", plan)
    assert wallet.balances() == {"alice": 100, "bob": 0, "carol": 0, "rich": INT_MAX - 10}
    assert len(book) == 0


def test_settle_writes_one_entry_per_line():
    book, wallet = wallet_fixture()
    plan = compute_split(100, "bob", [obligation("carol", "0.15")])
    entries = wallet.settle("alice", plan, purpose="fee", session_id="s9")
    assert entries[0].kind == "payment"
    assert entries[0].payload == {
        "kind": "payment", "from": "alice", "to": "carol",
        "amount": 15, "purpose": "fee", "session_id": "s9",
    }
    assert [e.payload["to"] for e in entries] == ["carol", "bob"]
    assert [e.payload["amount"] for e in entries] == [15, 85]
    assert wallet.balances() == {"alice": 0, "bob": 85, "carol": 15}
    assert len(book) == 2


def test_settle_requires_full_price_upfront():
    book, wallet = wallet_fixture()
    plan = compute_split(101, "bob", [obligation("carol", "0.5")])
    with pytest.raises(InsufficientFunds):
        wallet.settle("alice", plan)
    assert wallet.balances() == {"alice": 100, "bob": 0, "carol": 0}
    assert len(book) == 0


def test_settle_to_unknown_recipient_changes_nothing():
    book, wallet = wallet_fixture()
    plan = compute_split(100, "mallory", [obligation("carol", "0.15")])
    with pytest.raises(UnknownAccount):
        wallet.settle("alice", plan)
    assert wallet.balances() == {"alice": 100, "bob": 0, "carol": 0}
    assert len(book) == 0
