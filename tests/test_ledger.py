import random

import pytest

from bondsim.ledger import (
    AppCall,
    AssetTransfer,
    BASE_MIN_BALANCE,
    FLAT_FEE,
    InsufficientBalance,
    Ledger,
    Payment,
    TransactionGroup,
    UnknownAddress,
)
from bondsim.programs import LogicSig, SecretKey, StatelessProgram


@pytest.fixture
def ledger():
    return Ledger()


def funded(ledger, amount=1_000_000, label=None):
    addr = ledger.create_account(label)
    ledger.fund_algos(addr, amount)
    return addr


def opt_in(ledger, holder, asset):
    """The holder's zero self-transfer of the asset, which opts it in."""
    return ledger.submit_group([AssetTransfer(sender=holder, asset_id=asset, receiver=holder, amount=0)])


# ---------------------------------------------------------------------------
# accounts and funding


def test_accounts_are_unique(ledger):
    a = ledger.create_account()
    b = ledger.create_account()
    assert a != b
    assert ledger.algo_balance(a) == 0


def test_duplicate_label_rejected(ledger):
    ledger.create_account("alice")
    with pytest.raises(Exception):
        ledger.create_account("alice")


def test_fund_algos(ledger):
    a = ledger.create_account()
    ledger.fund_algos(a, 10_000_000)
    assert ledger.algo_balance(a) == 10_000_000
    ledger.fund_algos(a, 0)
    assert ledger.algo_balance(a) == 10_000_000
    ledger.fund_algos(a, 5_000_000)
    ledger.fund_algos(a, 5_000_000)
    assert ledger.algo_balance(a) == 20_000_000


def test_fund_unknown_address(ledger):
    with pytest.raises(UnknownAddress):
        ledger.fund_algos("nobody", 1)


def test_base_min_balance(ledger):
    a = funded(ledger)
    assert ledger.min_balance(a) == 100_000


# ---------------------------------------------------------------------------
# assets


def test_create_asset_costs_and_supply(ledger):
    creator = funded(ledger)
    asset = ledger.create_asset(creator, total=1_000_000_000_000, decimals=6)
    assert ledger.asset_balance(creator, asset) == 1_000_000_000_000
    assert ledger.fees_paid(creator) == FLAT_FEE
    assert ledger.min_balance(creator) == BASE_MIN_BALANCE + 100_000


def test_create_asset_requires_funding(ledger):
    poor = ledger.create_account()
    ledger.fund_algos(poor, 150_000)
    before = ledger.observable_state()
    with pytest.raises(InsufficientBalance):
        ledger.create_asset(poor, total=100, decimals=0)
    assert ledger.observable_state() == before


def test_opt_in_asset_cost(ledger):
    creator = funded(ledger)
    asset = ledger.create_asset(creator, total=1000, decimals=0)
    holder = funded(ledger)
    result = opt_in(ledger, holder, asset)
    assert result.approved
    assert ledger.fees_paid(holder) == FLAT_FEE
    assert ledger.min_balance(holder) == 200_000
    assert ledger.asset_balance(holder, asset) == 0


def test_second_opt_in_is_a_plain_zero_transfer(ledger):
    """Only a holder's first zero self-transfer opts it in: a second one moves
    nothing, locks no second entry, and is refused for a frozen asset."""
    creator = funded(ledger)
    asset = ledger.create_asset(creator, total=1000, decimals=0)
    frozen = ledger.create_asset(creator, total=1000, decimals=0, default_frozen=True)
    holder = funded(ledger)
    assert opt_in(ledger, holder, asset).approved
    assert opt_in(ledger, holder, asset).approved
    assert ledger.fees_paid(holder) == 2 * FLAT_FEE
    assert ledger.min_balance(holder) == 200_000
    assert opt_in(ledger, holder, frozen).approved
    result = opt_in(ledger, holder, frozen)
    assert result.rejected and result.rejection.code == "frozen_holding"
    assert ledger.min_balance(holder) == 300_000


def test_transfer_to_non_opted_in_rejected(ledger):
    creator = funded(ledger)
    asset = ledger.create_asset(creator, total=1000, decimals=0)
    other = funded(ledger)
    result = ledger.submit_group([AssetTransfer(sender=creator, asset_id=asset, receiver=other, amount=5)])
    assert result.rejected and result.rejection.code == "not_opted_in"


def test_default_frozen_holding(ledger):
    creator = funded(ledger)
    asset = ledger.create_asset(creator, total=1000, decimals=0, default_frozen=True)
    holder = funded(ledger)
    assert opt_in(ledger, holder, asset).approved
    assert ledger.asset(asset).default_frozen is True
    # the holder's own signature cannot move a frozen holding
    result = ledger.submit_group([AssetTransfer(sender=creator, asset_id=asset, receiver=holder, amount=5)])
    assert result.rejected and result.rejection.code == "frozen_holding"


def test_clawback_moves_frozen_holdings(ledger):
    creator = funded(ledger)
    authority = funded(ledger)
    asset = ledger.create_asset(creator, total=1000, decimals=0, default_frozen=True, clawback_addr=authority)
    holder = funded(ledger)
    assert opt_in(ledger, holder, asset).approved
    result = ledger.submit_group(
        [AssetTransfer(sender=authority, asset_id=asset, receiver=holder, amount=5, revoke_target=creator)]
    )
    assert result.approved
    assert ledger.asset_balance(holder, asset) == 5
    # a non-authority clawback is an authorization failure
    thief = funded(ledger)
    result = ledger.submit_group(
        [AssetTransfer(sender=thief, asset_id=asset, receiver=thief, amount=5, revoke_target=holder)]
    )
    assert result.rejected and result.rejection.code == "bad_signature"


def test_asset_supply_is_conserved(ledger):
    creator = funded(ledger)
    asset = ledger.create_asset(creator, total=1_000, decimals=0)
    holders = [funded(ledger) for _ in range(3)]
    for h in holders:
        assert opt_in(ledger, h, asset).approved
    rng = random.Random(7)
    parties = [creator] + holders
    for _ in range(50):
        src, dst = rng.sample(parties, 2)
        amount = rng.randint(0, 400)
        ledger.submit_group([AssetTransfer(sender=src, asset_id=asset, receiver=dst, amount=amount)])
    assert ledger.asset_supply_held(asset) == 1_000


# ---------------------------------------------------------------------------
# group submission


def test_group_atomicity_example(ledger):
    a = funded(ledger, 500_000)
    b = funded(ledger, 500_000)
    before = ledger.observable_state()
    result = ledger.submit_group(
        [
            Payment(sender=a, receiver=b, amount=100_000),
            Payment(sender=a, receiver=b, amount=10_000_000),  # overdraws
        ]
    )
    assert result.rejected and result.rejection.code == "insufficient_balance"
    assert ledger.observable_state() == before  # no partial application, no fees


def test_fee_only_self_payment(ledger):
    a = funded(ledger, 500_000)
    result = ledger.submit_group([Payment(sender=a, receiver=a, amount=0)])
    assert result.approved
    assert ledger.algo_balance(a) == 499_000


def test_group_size_limits(ledger):
    a = funded(ledger, 50_000_000)
    txns = [Payment(sender=a, receiver=a, amount=0) for _ in range(17)]
    result = ledger.submit_group(txns)
    assert result.rejected and result.rejection.code == "bad_group_size"
    assert ledger.submit_group(txns[:16]).approved
    assert ledger.submit_group(TransactionGroup(())).rejected


def test_bad_signature(ledger):
    a = funded(ledger)
    b = funded(ledger)
    result = ledger.submit_group([Payment(sender=a, receiver=b, amount=1, signature=SecretKey(b))])
    assert result.rejected and result.rejection.code == "bad_signature"


def test_low_fee_rejected(ledger):
    a = funded(ledger)
    result = ledger.submit_group([Payment(sender=a, receiver=a, amount=0, fee=999)])
    assert result.rejected and result.rejection.code == "fee_too_low"


def test_min_balance_enforced_after_group(ledger):
    a = funded(ledger, 200_000)
    b = funded(ledger, 200_000)
    result = ledger.submit_group([Payment(sender=a, receiver=b, amount=150_000)])
    assert result.rejected and result.rejection.code == "min_balance_violation"
    # spending down to exactly the minimum is fine
    assert ledger.submit_group([Payment(sender=a, receiver=b, amount=99_000)]).approved
    assert ledger.algo_balance(a) == BASE_MIN_BALANCE


@pytest.mark.parametrize("order", [("zed", "amy", "kim"), ("kim", "amy", "zed"), ("amy", "zed", "kim")])
def test_min_balance_violation_names_the_smallest_failing_address(ledger, order):
    """The accounts a group wrote are checked in the order it saved them, but
    the rejection names the smallest failing address, whatever that order."""
    for label in order:
        funded(ledger, 200_000, label)
    sink = funded(ledger, label="sink")
    # kim stays at its minimum; amy and zed drop below theirs
    spend = {"amy": 150_000, "zed": 150_000, "kim": 99_000}
    result = ledger.submit_group([Payment(sender=a, receiver=sink, amount=spend[a]) for a in order])
    assert result.rejected and result.rejection.code == "min_balance_violation"
    assert result.rejection.detail == {"address": "amy", "required": BASE_MIN_BALANCE, "available": 49_000}
    assert [ledger.algo_balance(a) for a in order] == [200_000] * 3


def test_payment_to_unknown_address(ledger):
    a = funded(ledger)
    result = ledger.submit_group([Payment(sender=a, receiver="ghost", amount=1)])
    assert result.rejected and result.rejection.code == "unknown_address"


# ---------------------------------------------------------------------------
# time


def test_advance_time(ledger):
    ledger.advance_time(10)
    ledger.advance_time(10)  # same instant is a no-op
    assert ledger.now == 10
    with pytest.raises(ValueError):
        ledger.advance_time(9)


# ---------------------------------------------------------------------------
# contract accounts


def _always(group, idx, now):
    return True


def _never(group, idx, now):
    return False


def test_contract_account_spend_requires_predicate(ledger):
    program = StatelessProgram("gate", ("x",), _never)
    escrow = ledger.register_contract_account(program)
    ledger.fund_algos(escrow, 1_000_000)
    sink = funded(ledger)
    result = ledger.submit_group(
        [Payment(sender=escrow, receiver=sink, amount=100, signature=LogicSig(program))]
    )
    assert result.rejected and result.rejection.code == "logic_rejected"
    open_program = StatelessProgram("open", ("y",), _always)
    escrow2 = ledger.register_contract_account(open_program)
    ledger.fund_algos(escrow2, 1_000_000)
    assert ledger.submit_group(
        [Payment(sender=escrow2, receiver=sink, amount=100, signature=LogicSig(open_program))]
    ).approved


# ---------------------------------------------------------------------------
# properties


def test_algo_conservation_under_random_groups(ledger):
    rng = random.Random(3)
    accounts = [funded(ledger, rng.randrange(1_000_000, 5_000_000)) for _ in range(6)]
    for _ in range(100):
        txns = []
        for _ in range(rng.randint(1, 4)):
            src, dst = rng.sample(accounts, 2)
            txns.append(Payment(sender=src, receiver=dst, amount=rng.randrange(0, 500_000)))
        ledger.submit_group(txns)
    assert ledger.total_algos() == ledger.total_minted() - ledger.total_fees_burned()


def test_atomicity_under_random_failing_suffixes(ledger):
    rng = random.Random(11)
    accounts = [funded(ledger, 10_000_000) for _ in range(5)]
    asset = ledger.create_asset(accounts[0], total=10_000, decimals=0, default_frozen=True)
    rejected = 0
    for _ in range(200):
        n_valid = rng.randint(0, 3)
        txns = []
        for _ in range(n_valid):
            src, dst = rng.sample(accounts, 2)
            txns.append(Payment(sender=src, receiver=dst, amount=rng.randrange(0, 100_000)))
        failing = rng.choice(
            [
                Payment(sender=accounts[0], receiver=accounts[1], amount=10**12),
                Payment(sender=accounts[0], receiver=accounts[1], amount=1, signature=SecretKey(accounts[2])),
                AssetTransfer(sender=accounts[0], asset_id=asset, receiver=accounts[1], amount=1),
                Payment(sender=accounts[0], receiver="ghost", amount=1),
                AppCall(sender=accounts[0], app_id=999_999),
            ]
        )
        position = rng.randint(0, len(txns))
        txns.insert(position, failing)
        before = ledger.observable_state()
        result = ledger.submit_group(txns)
        assert result.rejected
        assert ledger.observable_state() == before
        rejected += 1
    assert rejected == 200


def test_determinism(ledger):
    def script(led):
        a = led.create_account("a")
        b = led.create_account("b")
        led.fund_algos(a, 5_000_000)
        led.fund_algos(b, 5_000_000)
        asset = led.create_asset(a, total=100, decimals=0)
        opt_in(led, b, asset)
        led.submit_group([AssetTransfer(sender=a, asset_id=asset, receiver=b, amount=40)])
        led.advance_time(123)
        led.submit_group([Payment(sender=b, receiver=a, amount=250_000)])
        return led.observable_state()

    assert script(Ledger()) == script(Ledger())
