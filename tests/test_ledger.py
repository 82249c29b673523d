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
    Rejection,
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


def test_a_sender_that_cannot_pay_its_fee_is_refused(ledger):
    """Refused at its fee, as an opt-in makes no balance check of its own."""
    a = funded(ledger)
    poor = funded(ledger, FLAT_FEE - 1)
    asset = ledger.create_asset(a, total=1000, decimals=0)
    before = ledger.observable_state()
    result = ledger.submit_group([Payment(a, a, 0), AssetTransfer(poor, asset, poor, 0)])
    assert result.rejection == Rejection("insufficient_balance", {"txn_index": 1, "address": poor})
    assert ledger.observable_state() == before


def test_a_leg_from_an_unknown_sender_is_refused(ledger):
    a = funded(ledger)
    before = ledger.observable_state()
    result = ledger.submit_group([Payment(a, a, 0), Payment("ghost", a, 1)])
    assert result.rejection == Rejection("unknown_address", {"address": "ghost"})
    assert ledger.observable_state() == before


@pytest.mark.parametrize("kind", ["payment", "asset"])
def test_a_negative_amount_is_refused_and_moves_nothing(ledger, kind):
    """A negative amount would move value from the receiver to the sender,
    without the receiver's signature."""
    victim = funded(ledger, 5_000_000, "victim")
    thief = funded(ledger, 1_000_000, "thief")
    usd = ledger.create_asset(victim, total=1_000_000, decimals=6)
    assert opt_in(ledger, thief, usd).approved
    before = ledger.observable_state()
    leg = Payment(thief, victim, -500_000) if kind == "payment" else AssetTransfer(thief, usd, victim, -1_000)
    result = ledger.submit_group([Payment(thief, thief, 0), leg])
    assert result.rejection == Rejection("bad_amount", {"txn_index": 1})
    assert ledger.observable_state() == before


@pytest.mark.parametrize(
    "sender, asset, receiver, refused",
    [
        ("holder", 999, "holder", Rejection("unknown_asset", {"txn_index": 0})),
        ("holder", 100, "ghost", Rejection("unknown_address", {"address": "ghost", "txn_index": 0})),
        ("outsider", 100, "holder", Rejection("not_opted_in", {"address": "outsider", "txn_index": 0})),
    ],
    ids=["opt-in to an unknown asset", "unknown receiver", "sender not opted in"],
)
def test_an_asset_transfer_needs_a_known_asset_a_known_receiver_and_an_opted_in_sender(
    ledger, sender, asset, receiver, refused
):
    funded(ledger, label="holder")
    funded(ledger, label="outsider")
    assert ledger.create_asset("holder", total=1000, decimals=0) == 100
    before = ledger.observable_state()
    assert ledger.submit_group([AssetTransfer(sender, asset, receiver, 0)]).rejection == refused
    assert ledger.observable_state() == before


@pytest.mark.parametrize(
    "target, receiver, refused",
    [
        ("ghost", "creator", Rejection("unknown_address", {"address": "ghost", "txn_index": 0})),
        ("outsider", "creator", Rejection("not_opted_in", {"address": "outsider", "txn_index": 0})),
        ("creator", "outsider", Rejection("not_opted_in", {"address": "outsider", "txn_index": 0})),
    ],
    ids=["unknown target", "target not opted in", "receiver not opted in"],
)
def test_a_clawback_needs_a_known_target_and_an_opted_in_receiver(ledger, target, receiver, refused):
    funded(ledger, label="creator")
    funded(ledger, label="outsider")
    authority = funded(ledger)
    asset = ledger.create_asset("creator", total=1000, decimals=0, clawback_addr=authority)
    before = ledger.observable_state()
    result = ledger.submit_group([AssetTransfer(authority, asset, receiver, 5, revoke_target=target)])
    assert result.rejection == refused
    assert ledger.observable_state() == before


def test_a_clawback_of_an_unknown_asset_is_refused_before_its_fee_is_checked(ledger):
    authority = funded(ledger)
    holder = funded(ledger)
    clawback = AssetTransfer(authority, 999, authority, 5, revoke_target=holder, fee=FLAT_FEE - 1)
    assert ledger.submit_group([clawback]).rejection == Rejection("unknown_asset", {"txn_index": 0})


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


@pytest.mark.parametrize("delegated", [False, True], ids=["contract account", "delegated"])
def test_a_logic_signature_for_another_sender_is_a_bad_signature(ledger, delegated):
    """A logic signature authorizes only its program's address, or its
    delegator: any other sender is refused before the program runs."""
    program = StatelessProgram("open", ("z",), _always)
    escrow = ledger.register_contract_account(program)
    ledger.fund_algos(escrow, 1_000_000)
    owner, other = funded(ledger), funded(ledger)
    sig = LogicSig(program, delegator=owner) if delegated else LogicSig(program)
    signed = Payment(owner if delegated else escrow, other, 0, signature=sig)
    result = ledger.submit_group([signed, Payment(other, owner, 1, signature=sig)])
    assert result.rejection == Rejection("bad_signature", {"txn_index": 1})


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
