import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondsim import greenbond as gb
from bondsim.ledger import (
    ASSET_CREATE_MIN_BALANCE,
    BASE_MIN_BALANCE,
    FLAT_FEE,
    AppCall,
    AssetTransfer,
    InsufficientBalance,
    Payment,
    Rejection,
)
from bondsim.programs import OnComplete, StatefulProgram, StateSchema

UNIT = gb.UNIT
USD = UNIT  # stablecoin base units per dollar


# ---------------------------------------------------------------------------
# penalty arithmetic


def test_effective_coupon_table():
    base = 5 * USD
    assert gb.effective_coupon(base, 5) == 5_000_000
    assert gb.effective_coupon(base, 4) == 5_500_000
    assert gb.effective_coupon(base, 3) == 6_050_000
    assert gb.effective_coupon(base, 2) == 6_655_000
    assert gb.effective_coupon(base, 1) == 7_320_500
    assert gb.format_usd(gb.effective_coupon(base, 2)) == "$6.66"
    assert gb.format_usd(gb.effective_coupon(base, 1)) == "$7.32"


def test_effective_coupon_range():
    for rating in (0, 6, -3):
        with pytest.raises(ValueError):
            gb.effective_coupon(100, rating)


@settings(max_examples=300, deadline=None)
@given(base=st.integers(min_value=0, max_value=10**12), rating=st.integers(min_value=1, max_value=5))
def test_effective_coupon_matches_rational_oracle(base, rating):
    exact = Fraction(base) * Fraction(11, 10) ** (5 - rating)
    assert gb.effective_coupon(base, rating) == exact.numerator // exact.denominator


# ---------------------------------------------------------------------------
# round/slot arithmetic


def params_stub(rounds, start_buy=0, end_buy=0, maturity=100):
    return gb.BondParams(
        total_bonds=1,
        coupon_rounds=rounds,
        start_buy=start_buy,
        end_buy=end_buy,
        maturity=maturity,
        bond_cost=0,
        coupon_base=0,
        principal=1,
        issuer="i",
        green_verifier="v",
        financial_regulator="r",
        stablecoin_id=0,
    )


def test_coupon_round_at():
    p = params_stub(10, start_buy=-1)
    assert gb.coupon_round_at(p, 0) == 0  # at end_buy: nothing elapsed
    assert gb.coupon_round_at(p, 25) == 2
    assert gb.coupon_round_at(p, 100) == 10  # maturity: clamped to all rounds
    assert gb.coupon_round_at(p, 10**9) == 10
    assert gb.coupon_round_at(params_stub(0, start_buy=-1), 50) == 0


def test_rating_slot_at():
    p = params_stub(10, start_buy=-10)
    assert gb.rating_slot_at(p, -11) == 0  # before the buy window: use of proceeds
    assert gb.rating_slot_at(p, -5) is None  # inside the buy window
    assert gb.rating_slot_at(p, 0) == 1
    assert gb.rating_slot_at(p, 25) == 3
    assert gb.rating_slot_at(p, 99) == 10
    assert gb.rating_slot_at(p, 100) is None  # past the last period


@settings(max_examples=200, deadline=None)
@given(
    rounds=st.integers(min_value=0, max_value=40),
    end_buy=st.integers(min_value=-10**6, max_value=10**6),
    length=st.integers(min_value=1, max_value=10**7),
    base=st.integers(min_value=0, max_value=10**12),
    total_bonds=st.integers(min_value=1, max_value=10**9),
)
def test_cached_schedule_matches_closed_forms(rounds, end_buy, length, base, total_bonds):
    p = dataclasses.replace(
        params_stub(rounds, end_buy=end_buy, maturity=end_buy + length), coupon_base=base, total_bonds=total_bonds
    )
    assert p.coupon_period == (0 if rounds == 0 else length // rounds)
    assert p.supply_base_units == total_bonds * UNIT
    for rating in range(1, 6):
        exact = Fraction(base) * Fraction(11, 10) ** (5 - rating)
        assert p.coupons[rating] == exact.numerator // exact.denominator
    assert p.coupons[0] == p.coupons[5] == base  # an unrated round pays the top rating's coupon
    assert p.coupons is p.coupons and len(p.coupons) == 6
    # the cached values are no fields: equality, hashing and replace ignore them
    assert p == dataclasses.replace(p) and hash(p) == hash(dataclasses.replace(p))


def test_rating_slot_count():
    assert gb.rating_slot_count(0) == 1
    assert gb.rating_slot_count(7) == 1
    assert gb.rating_slot_count(8) == 2
    assert gb.rating_slot_count(10) == 2
    assert gb.rating_slot_count(63) == 8


# ---------------------------------------------------------------------------
# issuance


def test_issuance_artifacts(env):
    dep = env.deploy(total_bonds=100, coupon_rounds=10, approve=False)
    led = env.ledger
    asset = led.asset(dep.bond_asset_id)
    assert asset.default_frozen and asset.decimals == 6
    assert asset.clawback_addr == dep.bond_escrow
    assert asset.total == 100 * UNIT
    assert led.asset_balance(dep.bond_escrow, dep.bond_asset_id) == 100 * UNIT
    assert led.algo_balance(dep.bond_escrow) == 100_000
    assert led.algo_balance(dep.stablecoin_escrow) == 100_000
    assert gb.main_global_state(led, dep) == (0, 0, 0)  # frozen until approved
    assert led.app_config(dep.main_app_id, gb.CFG_PEER_APP) == dep.manage_app_id
    assert led.app_config(dep.manage_app_id, gb.CFG_PEER_APP) == dep.main_app_id
    assert led.app_config(dep.main_app_id, gb.CFG_BOND_ESCROW) == dep.bond_escrow
    assert led.app_config(dep.main_app_id, gb.CFG_STABLECOIN_ESCROW) == dep.stablecoin_escrow


def issuance_rows(env, dep):
    rows = env.ledger.cost.rows_for(env.operator, tag=dep.main_app_id)
    return {r.label: r.total for r in rows}


def test_issuance_costs_ten_rounds(env):
    dep = env.deploy(coupon_rounds=10, start_buy=100, end_buy=200, maturity=1200, approve=False)
    assert issuance_rows(env, dep) == {
        "Create new ASA": 101_000,
        "Fund contract accounts": 203_000,
        "Send green bond to escrow and configure": 2_000,
        "Deploy Main App": 185_000,
        "Deploy Manage App": 201_000,
        "Update Apps": 2_000,
    }


def test_issuance_costs_zero_rounds(env):
    dep = env.deploy(coupon_rounds=0, approve=False)
    assert issuance_rows(env, dep)["Deploy Manage App"] == 151_000


# what issuance spends in the default env: the escrows' funding, seven fees,
# and the minimum-balance entries of the bond asset, the main app and the
# manage app (100,000 plus one rating slot at 50,000)
ISSUANCE_SPEND = gb.ESCROW_FUNDING + 7 * FLAT_FEE + ASSET_CREATE_MIN_BALANCE + gb.MAIN_APP_MIN_BALANCE + 150_000


def test_issuance_spends_exactly_what_it_requires(env):
    assert ISSUANCE_SPEND == 643_000
    env.operator = env.new_account("exact", algos=BASE_MIN_BALANCE + ISSUANCE_SPEND)
    env.deploy()
    led = env.ledger
    assert led.algo_balance(env.operator) == led.min_balance(env.operator)


def test_issuance_requires_operator_funding(env):
    env.operator = env.new_account("pauper", algos=BASE_MIN_BALANCE + ISSUANCE_SPEND - 1)
    led = env.ledger
    before = led.observable_state()
    with pytest.raises(InsufficientBalance, match="operator needs 643000 spendable microAlgos for issuance, has 642999"):
        env.deploy()
    assert led.observable_state() == before  # no app registered, the operator's balance untouched
    assert led.algo_balance(env.operator) == BASE_MIN_BALANCE + ISSUANCE_SPEND - 1


def test_issuance_rejects_bad_params(env):
    with pytest.raises(ValueError):
        env.deploy(start_buy=200, end_buy=100)
    with pytest.raises(ValueError):
        env.deploy(total_bonds=0)
    with pytest.raises(ValueError):
        env.deploy(principal=0)


def test_update_after_finalization_denied(env):
    dep = env.deploy()
    result = env.ledger.submit_group(
        [
            AppCall(
                sender=env.operator,
                app_id=dep.main_app_id,
                on_complete=OnComplete.UPDATE_APPLICATION,
                args=(b"configure",),
            )
        ]
    )
    assert result.rejected and result.rejection.detail["code"] == "finalized"


# ---------------------------------------------------------------------------
# linking: each app's own one-shot check, on a main program registered
# directly, so that no group has linked it yet


def unlinked_main(env):
    dep = env.deploy()
    return dep, env.ledger.register_app(gb.build_main_program(dep.params), env.operator)


def reconfigure(env, app_id, args=(), sender=None, oc=OnComplete.UPDATE_APPLICATION):
    call = AppCall(sender=sender or env.operator, app_id=app_id, on_complete=oc, args=args)
    return env.ledger.submit_group([call])


def link_args(dep):
    escrows = dep.bond_escrow.encode(), dep.stablecoin_escrow.encode()
    return (b"configure", b"%d" % dep.bond_asset_id, *escrows, b"%d" % dep.manage_app_id)


def refused(result, code, **detail):
    return result.reason() == f"app_rejected:{code}" and detail.items() <= result.rejection.detail.items()


def test_a_link_writes_the_configuration_and_then_refuses_every_change(env):
    dep, app = unlinked_main(env)
    assert reconfigure(env, app, link_args(dep)).approved
    config = [env.ledger.app_config(app, key) for key in (gb.CFG_BOND_ASSET, gb.CFG_BOND_ESCROW,
                                                          gb.CFG_STABLECOIN_ESCROW, gb.CFG_PEER_APP)]
    assert config == [dep.bond_asset_id, dep.bond_escrow, dep.stablecoin_escrow, dep.manage_app_id]
    stranger = env.new_account("stranger")
    before = env.ledger.observable_state()
    for args, oc, sender in [
        (link_args(dep), OnComplete.UPDATE_APPLICATION, None),
        ((), OnComplete.UPDATE_APPLICATION, None),
        ((), OnComplete.DELETE_APPLICATION, None),
        ((), OnComplete.DELETE_APPLICATION, stranger),
    ]:
        assert refused(reconfigure(env, app, args, sender, oc), "finalized")
    assert env.ledger.observable_state() == before


def test_only_the_creator_links_or_deletes_an_unlinked_app(env):
    dep, app = unlinked_main(env)
    stranger = env.new_account("stranger")
    assert refused(reconfigure(env, app, link_args(dep), stranger), "not_creator")
    assert refused(reconfigure(env, app, sender=stranger, oc=OnComplete.DELETE_APPLICATION), "not_creator")
    assert reconfigure(env, app, oc=OnComplete.DELETE_APPLICATION).approved


@pytest.mark.parametrize(
    "args",
    [
        (),
        (b"configure",),
        (b"configure", b"bond_asset", b"x"),
        (b"configure", b"bond_escrow", b"\xff"),
        (b"configure", b"bond_asset", b"7", b"peer_app", b"8", b"finalize"),
        (b"configure", b"1", b"A", b"B"),
        (b"configure", b"1", b"A", b"B", b"2", b"finalize"),
        (b"link", b"1", b"A", b"B", b"2"),
    ],
)
def test_a_link_in_any_other_form_is_refused(env, args):
    _, app = unlinked_main(env)
    before = env.ledger.observable_state()
    assert refused(reconfigure(env, app, args), "bad_args")
    assert env.ledger.observable_state() == before


@pytest.mark.parametrize("index, value", [(1, b"x"), (1, b""), (2, b"\xff"), (3, "caf\u00e9".encode()), (4, b"1.5")])
def test_a_link_with_a_bad_id_or_address_is_refused(env, index, value):
    dep, app = unlinked_main(env)
    args = list(link_args(dep))
    args[index] = value
    assert refused(reconfigure(env, app, tuple(args)), "bad_arg", index=index)
    assert env.ledger.app_config(app, gb.CFG_PEER_APP) is None


def test_issuance_submits_link_fund_and_setup_through_their_shapes(env, monkeypatch):
    """Issuance takes the actions' one path, `_submit`, whose rows are the
    groups' fees and payment."""
    submitted = []
    submit = gb._submit

    def spy(ledger, dep, shape, group):
        submitted.append((shape, group.txns))
        return submit(ledger, dep, shape, group)

    monkeypatch.setattr(gb, "_submit", spy)
    dep = env.deploy(approve=False)

    assert [shape for shape, _ in submitted] == [gb._LINK, gb._FUND_CONTRACTS, gb._SETUP]
    (_, link), (_, fund), _ = submitted
    assert [(t.app_id, t.on_complete) for t in link] == [
        (dep.main_app_id, OnComplete.UPDATE_APPLICATION), (dep.manage_app_id, OnComplete.UPDATE_APPLICATION)
    ]
    assert (fund[0].receiver, fund[0].amount) == (dep.bond_escrow, gb.ESCROW_FUNDING)
    rows = {r.label: r for r in env.ledger.cost.rows_for(env.operator, tag=dep.main_app_id)}
    updates, funding = rows[gb.ROW_UPDATE_APPS], rows[gb.ROW_FUND_ESCROWS]
    assert (updates.amount, updates.min_delta, updates.fee) == (0, 0, sum(t.fee for t in link))
    assert (funding.amount, funding.min_delta, funding.fee) == (fund[0].amount, 0, fund[0].fee)


def test_a_refused_issuance_group_raises_with_its_stage(env, monkeypatch):
    def refusing_main_program(params):
        return StatefulProgram("refuses", StateSchema(), lambda ctx: ctx.deny("refused"))

    monkeypatch.setattr(gb, "build_main_program", refusing_main_program)
    with pytest.raises(gb.ProtocolError, match="^issuance failed while linking applications: app_rejected:refused$"):
        env.deploy(approve=False)


# ---------------------------------------------------------------------------
# regulator gating


def test_buy_requires_bond_approval(env):
    dep = env.deploy(approve=False)
    inv = env.new_account(stablecoin=10**12)
    assert gb.register_investor(env.ledger, dep, inv).approved
    assert gb.submit_freeze_account(env.ledger, dep, env.regulator, inv, 1).approved
    env.ledger.advance_time(100)
    result = gb.submit_buy(env.ledger, dep, inv, UNIT)
    assert result.rejected and result.rejection.detail["code"] == "bond_frozen"
    assert gb.submit_freeze_all(env.ledger, dep, env.regulator, 1).approved
    assert gb.submit_buy(env.ledger, dep, inv, UNIT).approved


def test_buy_requires_account_approval(env):
    dep = env.deploy()
    inv = env.new_account(stablecoin=10**12)
    assert gb.register_investor(env.ledger, dep, inv).approved
    env.ledger.advance_time(100)
    result = gb.submit_buy(env.ledger, dep, inv, UNIT)
    assert result.rejected and result.rejection.detail["code"] == "account_frozen"


def test_freeze_all_requires_regulator(env):
    dep = env.deploy(approve=False)
    attacker = env.new_account()
    result = gb.submit_freeze_all(env.ledger, dep, attacker, 1)
    assert result.rejected and result.rejection.detail["code"] == "not_regulator"


def test_freeze_account_is_idempotent_and_gated(env):
    dep = env.deploy()
    inv = env.investor()
    for _ in range(2):
        assert gb.submit_freeze_account(env.ledger, dep, env.regulator, inv, 0).approved
    assert gb.investor_local_state(env.ledger, dep, inv)[2] == 0
    stranger = env.new_account()
    result = gb.submit_freeze_account(env.ledger, dep, env.regulator, stranger, 1)
    assert result.rejected and result.rejection.detail["code"] == "target_not_opted_in"


def test_refreeze_blocks_coupon(env):
    dep = env.deploy(coupon_base=10 * USD)
    inv = env.investor()
    env.ledger.advance_time(100)
    assert gb.submit_buy(env.ledger, dep, inv, UNIT).approved
    assert gb.submit_fund_escrow(env.ledger, dep, env.issuer, 1000 * USD).approved
    env.ledger.advance_time(300)
    assert gb.submit_freeze_account(env.ledger, dep, env.regulator, inv, 0).approved
    result = gb.submit_coupon(env.ledger, dep, inv)
    assert result.rejected and result.rejection.detail["code"] == "account_frozen"
    # global refreeze blocks everyone
    assert gb.submit_freeze_account(env.ledger, dep, env.regulator, inv, 1).approved
    assert gb.submit_freeze_all(env.ledger, dep, env.regulator, 0).approved
    result = gb.submit_coupon(env.ledger, dep, inv)
    assert result.rejected and result.rejection.detail["code"] == "bond_frozen"


# ---------------------------------------------------------------------------
# primary market


def test_buy_moves_bonds_and_stablecoin(env):
    dep = env.deploy(bond_cost=100 * USD)
    inv = env.investor(stablecoin=1_000 * USD)
    led = env.ledger
    led.advance_time(100)
    issuer_before = led.asset_balance(env.issuer, env.stablecoin)
    inv_before = led.asset_balance(inv, env.stablecoin)
    assert gb.submit_buy(led, dep, inv, 5 * UNIT).approved
    assert led.asset_balance(inv, dep.bond_asset_id) == 5 * UNIT
    assert led.asset_balance(env.issuer, env.stablecoin) - issuer_before == 500 * USD
    assert inv_before - led.asset_balance(inv, env.stablecoin) == 500 * USD
    assert gb.bonds_in_circulation(led, dep) == 5 * UNIT


def test_buy_window(env):
    dep = env.deploy(start_buy=100, end_buy=200)
    inv = env.investor()
    result = gb.submit_buy(env.ledger, dep, inv, UNIT)
    assert result.rejected and result.rejection.detail["code"] == "outside_buy_window"
    env.ledger.advance_time(200)
    result = gb.submit_buy(env.ledger, dep, inv, UNIT)
    assert result.rejected and result.rejection.detail["code"] == "outside_buy_window"


def test_buy_underfunded_stablecoin(env):
    dep = env.deploy(bond_cost=100 * USD)
    inv = env.investor(stablecoin=10 * USD)
    env.ledger.advance_time(100)
    before = env.ledger.observable_state()
    result = gb.submit_buy(env.ledger, dep, inv, UNIT)
    assert result.rejected and result.rejection.code == "insufficient_balance"
    assert env.ledger.observable_state() == before


def test_register_investor_min_balance(env):
    dep = env.deploy()
    inv = env.new_account()
    assert env.ledger.min_balance(inv) == 100_000
    assert gb.register_investor(env.ledger, dep, inv).approved
    # base + bond-asset opt-in + main-app opt-in
    assert env.ledger.min_balance(inv) == 100_000 + 100_000 + 184_000


def test_buy_fees(env):
    dep = env.deploy()
    inv = env.investor()
    env.ledger.advance_time(100)
    fees_before = env.ledger.fees_paid(inv)
    assert gb.submit_buy(env.ledger, dep, inv, UNIT).approved
    assert env.ledger.fees_paid(inv) - fees_before == 3_000
    buy_rows = [r for r in env.ledger.cost.rows_for(inv) if r.label == "Buy"]
    assert len(buy_rows) == 1 and buy_rows[0].total == 4_000


def test_tampered_buy_group_rejected(env):
    dep = env.deploy(bond_cost=100 * USD)
    inv = env.investor()
    led = env.ledger
    led.advance_time(100)
    group = gb.build_buy_group(dep, inv, 2 * UNIT)
    # underpay the issuer: stablecoin leg halved
    tampered = list(group.txns)
    leg = tampered[3]
    tampered[3] = AssetTransfer(
        sender=leg.sender, asset_id=leg.asset_id, receiver=leg.receiver, amount=leg.amount // 2
    )
    result = led.submit_group(tampered)
    assert result.rejected and result.rejection.detail["code"] == "bad_group"


# ---------------------------------------------------------------------------
# secondary market


def trade_env(env):
    dep = env.deploy(bond_cost=100 * USD, end_buy=200, maturity=400)
    seller = env.investor("seller", stablecoin=10_000 * USD)
    buyer_a = env.investor("buyerA", stablecoin=10_000 * USD)
    buyer_b = env.investor("buyerB", stablecoin=10_000 * USD)
    env.ledger.advance_time(100)
    assert gb.submit_buy(env.ledger, dep, seller, 5 * UNIT).approved
    return dep, seller, buyer_a, buyer_b


def test_set_trade_round_trip(env):
    dep, seller, *_ = trade_env(env)
    assert gb.submit_set_trade(env.ledger, dep, seller, 2 * UNIT).approved
    assert gb.investor_local_state(env.ledger, dep, seller)[1] == 2 * UNIT
    assert gb.submit_set_trade(env.ledger, dep, seller, 3 * UNIT).approved
    assert gb.investor_local_state(env.ledger, dep, seller)[1] == 3 * UNIT  # last write wins


def test_trade_allowance_sequence(env):
    dep, seller, buyer_a, buyer_b = trade_env(env)
    led = env.ledger
    assert gb.submit_set_trade(led, dep, seller, 2 * UNIT).approved
    offer = gb.make_trade_offer(dep, seller, 1_000 * USD, expiry=10_000)
    a_before = led.asset_balance(buyer_a, env.stablecoin)
    assert gb.submit_trade(led, dep, offer, buyer_a, UNIT // 2).approved
    assert a_before - led.asset_balance(buyer_a, env.stablecoin) == 500 * USD
    assert gb.investor_local_state(led, dep, seller)[1] == 3 * UNIT // 2
    assert gb.submit_trade(led, dep, offer, buyer_b, 3 * UNIT // 2).approved
    assert gb.investor_local_state(led, dep, seller)[1] == 0
    third = gb.submit_trade(led, dep, offer, buyer_a, 1)
    assert third.rejected and third.rejection.detail["code"] == "allowance_exceeded"


def test_trade_over_allowance_leaves_state(env):
    dep, seller, buyer_a, _ = trade_env(env)
    led = env.ledger
    assert gb.submit_set_trade(led, dep, seller, UNIT).approved
    offer = gb.make_trade_offer(dep, seller, 1_000 * USD, expiry=10_000)
    before = led.observable_state()
    result = gb.submit_trade(led, dep, offer, buyer_a, 2 * UNIT)
    assert result.rejected and result.rejection.detail["code"] == "allowance_exceeded"
    assert led.observable_state() == before


def test_trade_zero_allowance(env):
    dep, seller, buyer_a, _ = trade_env(env)
    assert gb.submit_set_trade(env.ledger, dep, seller, 0).approved
    offer = gb.make_trade_offer(dep, seller, 1_000 * USD, expiry=10_000)
    result = gb.submit_trade(env.ledger, dep, offer, buyer_a, 1)
    assert result.rejected and result.rejection.detail["code"] == "allowance_exceeded"


def test_trade_offer_expiry(env):
    dep, seller, buyer_a, _ = trade_env(env)
    assert gb.submit_set_trade(env.ledger, dep, seller, UNIT).approved
    offer = gb.make_trade_offer(dep, seller, 1_000 * USD, expiry=150)
    env.ledger.advance_time(150)
    result = gb.submit_trade(env.ledger, dep, offer, buyer_a, UNIT)
    assert result.rejected and result.rejection.code == "logic_rejected"


def test_trade_gift_at_zero_price(env):
    dep, seller, buyer_a, _ = trade_env(env)
    assert gb.submit_set_trade(env.ledger, dep, seller, UNIT).approved
    offer = gb.make_trade_offer(dep, seller, 0, expiry=10_000)
    assert gb.submit_trade(env.ledger, dep, offer, buyer_a, UNIT).approved
    assert env.ledger.asset_balance(buyer_a, dep.bond_asset_id) == UNIT


def test_trade_requires_approved_buyer(env):
    dep, seller, *_ = trade_env(env)
    outsider = env.new_account(stablecoin=10_000 * USD)
    assert gb.register_investor(env.ledger, dep, outsider).approved  # registered but not approved
    assert gb.submit_set_trade(env.ledger, dep, seller, UNIT).approved
    offer = gb.make_trade_offer(dep, seller, 1_000 * USD, expiry=10_000)
    result = gb.submit_trade(env.ledger, dep, offer, outsider, UNIT)
    assert result.rejected and result.rejection.detail["code"] == "account_frozen"


def test_a_negative_trade_allowance_is_a_bad_argument(env):
    dep, seller, *_ = trade_env(env)
    result = env.ledger.submit_group(gb._SET_TRADE.build(dep, seller, quantity=-1))
    assert result.reason() == "app_rejected:bad_arg" and result.rejection.detail["index"] == 1


@pytest.mark.parametrize("holds_asset", [False, True], ids=["no_asset", "asset_opt_in"])
def test_trade_requires_a_buyer_registered_in_the_main_app(env, holds_asset):
    dep, seller, *_ = trade_env(env)
    led = env.ledger
    outsider = env.new_account(stablecoin=10_000 * USD)
    if holds_asset:
        assert led.submit_group([AssetTransfer(outsider, dep.bond_asset_id, outsider, 0)]).approved
    assert gb.submit_set_trade(led, dep, seller, UNIT).approved
    offer = gb.make_trade_offer(dep, seller, 1_000 * USD, expiry=10_000)
    result = gb.submit_trade(led, dep, offer, outsider, UNIT)
    assert result.reason() == "app_rejected:not_registered" and result.rejection.detail["account"] == outsider


def test_trade_buyer_fee(env):
    dep, seller, buyer_a, _ = trade_env(env)
    led = env.ledger
    assert gb.submit_set_trade(led, dep, seller, UNIT).approved
    offer = gb.make_trade_offer(dep, seller, 1_000 * USD, expiry=10_000)
    fees_before = led.fees_paid(buyer_a)
    assert gb.submit_trade(led, dep, offer, buyer_a, UNIT).approved
    assert led.fees_paid(buyer_a) - fees_before == 1_000


@pytest.mark.parametrize("self_trade", [False, True], ids=["trade", "self_trade"])
def test_trade_rows_count_each_leg_once(env, self_trade):
    """A trade's two rows sum to exactly the fees and escrow refunds its
    payers paid, also when the seller takes its own offer."""
    dep, seller, buyer_a, _ = trade_env(env)
    led = env.ledger
    buyer = seller if self_trade else buyer_a
    assert gb.submit_set_trade(led, dep, seller, UNIT).approved
    offer = gb.make_trade_offer(dep, seller, 1_000 * USD, expiry=10_000)
    payers = {seller, buyer}
    fees_before = {payer: led.fees_paid(payer) for payer in payers}
    group = gb.build_trade_group(dep, offer, buyer, UNIT)
    first_row = len(led.cost.rows)
    assert gb.submit_trade(led, dep, offer, buyer, UNIT).approved
    rows = led.cost.rows[first_row:]
    assert [(row.actor, row.label) for row in rows] == [(seller, "Trade Sell"), (buyer, "Trade Buy")]
    escrows = (dep.bond_escrow, dep.stablecoin_escrow)
    refunds = sum(t.amount for t in group.txns if isinstance(t, Payment) and t.sender in payers and t.receiver in escrows)
    assert sum(row.fee for row in rows) == sum(led.fees_paid(payer) - fees_before[payer] for payer in payers)
    assert sum(row.amount for row in rows) == refunds == 1_000
    assert sum(row.total for row in rows) == 4_000  # three fees and one refund


def test_trade_replay_property(env):
    dep, seller, buyer_a, buyer_b = trade_env(env)
    led = env.ledger
    rng = random.Random(5)
    for _ in range(60):
        allowance = rng.randrange(0, 3 * UNIT)
        assert gb.submit_set_trade(led, dep, seller, allowance).approved
        offer = gb.make_trade_offer(dep, seller, rng.randrange(0, 5 * USD), expiry=10_000)
        transferred = 0
        for _ in range(rng.randint(1, 5)):
            amount = rng.randrange(1, 2 * UNIT)
            buyer = rng.choice([buyer_a, buyer_b])
            if led.asset_balance(seller, dep.bond_asset_id) < amount:
                break
            result = gb.submit_trade(led, dep, offer, buyer, amount)
            if result.approved:
                transferred += amount
        assert transferred <= allowance


# ---------------------------------------------------------------------------
# escrow funding


def test_anyone_may_fund_escrow(env):
    dep = env.deploy()
    donor = env.new_account(stablecoin=1_000 * USD)
    before = env.escrow_funds()
    assert gb.submit_fund_escrow(env.ledger, dep, donor, 250 * USD).approved
    assert env.escrow_funds() - before == 250 * USD
    assert gb.submit_fund_escrow(env.ledger, dep, donor, 0).approved  # fee-only no-op


# ---------------------------------------------------------------------------
# coupons and the default check


def test_coupon_run_through(env):
    dep = env.deploy(total_bonds=15, coupon_rounds=2, coupon_base=100 * USD, end_buy=200, maturity=400)
    led = env.ledger
    inv1 = env.investor("inv1", stablecoin=10_000 * USD)
    inv2 = env.investor("inv2", stablecoin=10_000 * USD)
    led.advance_time(100)
    assert gb.submit_buy(led, dep, inv1, 5 * UNIT).approved
    assert gb.submit_buy(led, dep, inv2, 10 * UNIT).approved
    assert gb.bonds_in_circulation(led, dep) == 15 * UNIT
    assert gb.submit_fund_escrow(led, dep, env.issuer, 1_500 * USD).approved

    led.advance_time(300)  # first coupon round claimable
    assert gb.submit_coupon(led, dep, inv2).approved
    assert gb.main_global_state(led, dep)[:2] == (1, 500 * USD)
    assert env.escrow_funds() == 500 * USD
    assert gb.submit_coupon(led, dep, inv1).approved
    assert gb.main_global_state(led, dep)[:2] == (1, 0)
    assert env.escrow_funds() == 0

    assert gb.submit_fund_escrow(led, dep, env.issuer, 1_000 * USD).approved
    led.advance_time(400)  # second round claimable
    result = gb.submit_coupon(led, dep, inv1)
    assert result.rejected
    assert result.rejection.detail["code"] == "escrow_shortfall"
    assert result.rejection.detail["required"] == 1_500 * USD
    assert result.rejection.detail["available"] == 1_000 * USD
    # the rejected claim left no trace
    assert gb.main_global_state(led, dep)[:2] == (1, 0)
    assert gb.investor_local_state(led, dep, inv1)[0] == 1


def test_coupon_without_bonds(env):
    dep = env.deploy()
    bystander = env.investor()
    env.ledger.advance_time(300)
    result = gb.submit_coupon(env.ledger, dep, bystander)
    assert result.rejected and result.rejection.detail["code"] == "no_bonds"


def test_coupon_double_claim_same_round(env):
    dep = env.deploy(coupon_base=10 * USD)
    inv = env.investor()
    led = env.ledger
    led.advance_time(100)
    assert gb.submit_buy(led, dep, inv, UNIT).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 1_000 * USD).approved
    led.advance_time(300)
    assert gb.submit_coupon(led, dep, inv).approved
    result = gb.submit_coupon(led, dep, inv)
    assert result.rejected and result.rejection.detail["code"] == "nothing_claimable"


def test_coupon_before_first_round(env):
    dep = env.deploy(coupon_base=10 * USD)
    inv = env.investor()
    led = env.ledger
    led.advance_time(100)
    assert gb.submit_buy(led, dep, inv, UNIT).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 1_000 * USD).approved
    result = gb.submit_coupon(led, dep, inv)
    assert result.rejected and result.rejection.detail["code"] == "nothing_claimable"


def test_coupon_amount_uses_round_rating(env):
    dep = env.deploy(coupon_base=100 * USD, coupon_rounds=2, end_buy=200, maturity=400)
    inv = env.investor(stablecoin=10_000 * USD)
    led = env.ledger
    assert gb.submit_rate(led, dep, env.verifier, 5).approved  # use of proceeds, slot 0
    led.advance_time(100)
    assert gb.submit_buy(led, dep, inv, 2 * UNIT).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 10_000 * USD).approved
    led.advance_time(200)
    assert gb.submit_rate(led, dep, env.verifier, 3).approved  # round 1 rated during period 1
    led.advance_time(300)
    before = led.asset_balance(inv, env.stablecoin)
    assert gb.submit_coupon(led, dep, inv).approved
    # 2 bonds x $100 x 1.21 penalty
    assert led.asset_balance(inv, env.stablecoin) - before == 242 * USD
    # round 2 is unrated: defaults to the top-rating coupon
    led.advance_time(400)
    before = led.asset_balance(inv, env.stablecoin)
    assert gb.submit_coupon(led, dep, inv).approved
    assert led.asset_balance(inv, env.stablecoin) - before == 200 * USD


def test_coupon_claims_bounded_by_rounds(env):
    """Brute-force over claim orderings: nobody ever collects more than
    coupon_rounds coupons, whatever the interleaving."""
    for ordering in itertools.permutations([0, 1, 0, 1]):
        env2 = type(env)()
        dep = env2.deploy(total_bonds=10, coupon_rounds=2, coupon_base=10 * USD, end_buy=200, maturity=400)
        led = env2.ledger
        investors = [env2.investor(stablecoin=10**10), env2.investor(stablecoin=10**10)]
        led.advance_time(100)
        for inv in investors:
            assert gb.submit_buy(led, dep, inv, UNIT).approved
        assert gb.submit_fund_escrow(led, dep, env2.issuer, 10_000 * USD).approved
        led.advance_time(400)
        claims = {0: 0, 1: 0}
        for who in ordering:
            if gb.submit_coupon(led, dep, investors[who]).approved:
                claims[who] += 1
        for who in ordering:
            assert gb.submit_coupon(led, dep, investors[who]).rejected
        assert claims == {0: 2, 1: 2}


def test_reserve_soundness_invariant(env):
    dep = env.deploy(total_bonds=20, coupon_rounds=3, coupon_base=7 * USD, end_buy=200, maturity=500)
    led = env.ledger
    rng = random.Random(9)
    investors = [env.investor(stablecoin=10**10) for _ in range(3)]
    led.advance_time(100)
    for inv in investors:
        assert gb.submit_buy(led, dep, inv, rng.randrange(1, 4) * UNIT).approved
    for now in (250, 300, 400, 500):
        led.advance_time(now)
        if rng.random() < 0.8:
            gb.submit_fund_escrow(led, dep, env.issuer, rng.randrange(0, 100) * USD)
        for inv in rng.sample(investors, len(investors)):
            gb.submit_coupon(led, dep, inv)
            reserve = gb.main_global_state(led, dep)[1]
            assert env.escrow_funds() >= reserve


# ---------------------------------------------------------------------------
# principal


def principal_env(env, bonds=UNIT, rounds=1):
    dep = env.deploy(total_bonds=10, coupon_rounds=rounds, coupon_base=5 * USD, end_buy=200, maturity=400)
    inv = env.investor(stablecoin=10_000 * USD)
    led = env.ledger
    led.advance_time(100)
    assert gb.submit_buy(led, dep, inv, bonds).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 10_000 * USD).approved
    return dep, inv


def test_principal_full_bond(env):
    dep, inv = principal_env(env)
    led = env.ledger
    led.advance_time(400)
    assert gb.submit_coupon(led, dep, inv).approved
    before = led.asset_balance(inv, env.stablecoin)
    fees_before = led.fees_paid(inv)
    assert gb.submit_principal(led, dep, inv).approved
    assert led.asset_balance(inv, env.stablecoin) - before == 100 * USD
    assert led.asset_balance(inv, dep.bond_asset_id) == 0
    assert led.fees_paid(inv) - fees_before == 4_000
    row = [r for r in led.cost.rows_for(inv) if r.label == "Claim Principal"][0]
    assert row.total == 6_000


def test_principal_half_bond(env):
    dep, inv = principal_env(env, bonds=UNIT // 2)
    led = env.ledger
    led.advance_time(400)
    assert gb.submit_coupon(led, dep, inv).approved
    before = led.asset_balance(inv, env.stablecoin)
    assert gb.submit_principal(led, dep, inv).approved
    assert led.asset_balance(inv, env.stablecoin) - before == 50 * USD


def test_principal_before_maturity(env):
    dep, inv = principal_env(env)
    env.ledger.advance_time(399)
    result = gb.submit_principal(env.ledger, dep, inv)
    assert result.rejected and result.rejection.detail["code"] in ("before_maturity", "unclaimed_coupons")


def test_principal_requires_all_coupons(env):
    dep, inv = principal_env(env)
    env.ledger.advance_time(400)
    result = gb.submit_principal(env.ledger, dep, inv)
    assert result.rejected and result.rejection.detail["code"] == "unclaimed_coupons"


def test_principal_escrow_shortfall(env):
    dep = env.deploy(total_bonds=10, coupon_rounds=0, end_buy=200, maturity=400, principal=100 * USD)
    inv = env.investor(stablecoin=10_000 * USD)
    led = env.ledger
    led.advance_time(100)
    assert gb.submit_buy(led, dep, inv, 2 * UNIT).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 150 * USD).approved
    led.advance_time(400)
    result = gb.submit_principal(led, dep, inv)
    assert result.rejected and result.rejection.detail["code"] == "escrow_shortfall"
    assert result.rejection.detail["required"] == 200 * USD


# ---------------------------------------------------------------------------
# default claims


def test_default_worked_example(env):
    # $10,000 owed next round, $3,000 available: a 5-bond holder recovers $15
    dep = env.deploy(total_bonds=1_000, coupon_rounds=1, coupon_base=10 * USD, end_buy=200, maturity=400)
    led = env.ledger
    holder = env.investor(stablecoin=10**12)
    rest = env.investor(stablecoin=10**12)
    led.advance_time(100)
    assert gb.submit_buy(led, dep, holder, 5 * UNIT).approved
    assert gb.submit_buy(led, dep, rest, 995 * UNIT).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 3_000 * USD).approved
    before = led.asset_balance(holder, env.stablecoin)
    result = gb.submit_default(led, dep, holder)
    assert result.approved
    assert led.asset_balance(holder, env.stablecoin) - before == 15 * USD
    assert led.asset_balance(holder, dep.bond_asset_id) == 0
    row = [r for r in led.cost.rows_for(holder) if r.label == "Claim Default"][0]
    assert row.total == 6_000


def test_default_sole_holder_takes_everything_above_reserve(env):
    dep = env.deploy(total_bonds=10, coupon_rounds=1, coupon_base=100 * USD, end_buy=200, maturity=400)
    led = env.ledger
    holder = env.investor(stablecoin=10**12)
    led.advance_time(100)
    assert gb.submit_buy(led, dep, holder, 3 * UNIT).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 123_456_789).approved  # < $300 owed
    before = led.asset_balance(holder, env.stablecoin)
    assert gb.submit_default(led, dep, holder).approved
    assert led.asset_balance(holder, env.stablecoin) - before == 123_456_789
    assert env.escrow_funds() == 0


def test_default_rejected_when_funded(env):
    dep = env.deploy(total_bonds=10, coupon_rounds=1, coupon_base=10 * USD, end_buy=200, maturity=400)
    holder = env.investor(stablecoin=10**12)
    env.ledger.advance_time(100)
    assert gb.submit_buy(env.ledger, dep, holder, UNIT).approved
    assert gb.submit_fund_escrow(env.ledger, dep, env.issuer, 1_000 * USD).approved
    result = gb.submit_default(env.ledger, dep, holder)
    assert result.rejected and result.rejection.detail["code"] == "not_in_default"


def test_default_requires_caught_up_coupons(env):
    dep = env.deploy(total_bonds=10, coupon_rounds=2, coupon_base=50 * USD, end_buy=200, maturity=400)
    led = env.ledger
    a = env.investor(stablecoin=10**12)
    b = env.investor(stablecoin=10**12)
    led.advance_time(100)
    assert gb.submit_buy(led, dep, a, UNIT).approved
    assert gb.submit_buy(led, dep, b, UNIT).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 100 * USD).approved
    led.advance_time(300)
    assert gb.submit_coupon(led, dep, a).approved  # unlocks round 1; b is now behind
    result = gb.submit_default(led, dep, b)
    assert result.rejected and result.rejection.detail["code"] == "behind_on_coupons"


def test_sequential_defaults_never_overdraw(env):
    rng = random.Random(17)
    for _ in range(25):
        env2 = type(env)()
        n_holders = rng.randint(1, 4)
        dep = env2.deploy(total_bonds=100, coupon_rounds=1, coupon_base=10 * USD, end_buy=200, maturity=400)
        led = env2.ledger
        holders, holdings = [], []
        for _ in range(n_holders):
            h = env2.investor(stablecoin=10**12)
            holders.append(h)
            holdings.append(rng.randrange(1, 10 * UNIT))
        led.advance_time(100)
        for h, n in zip(holders, holdings):
            assert gb.submit_buy(led, dep, h, n).approved
        owed = sum(holdings) * 10 * USD // UNIT
        funding = rng.randrange(0, max(owed - 1, 1))
        assert gb.submit_fund_escrow(led, dep, env2.issuer, funding).approved
        available = funding
        paid_total = 0
        rng.shuffle(holders)
        for h in holders:
            before = led.asset_balance(h, env2.stablecoin)
            result = gb.submit_default(led, dep, h)
            if result.approved:
                paid_total += led.asset_balance(h, env2.stablecoin) - before
        assert paid_total <= available


def test_the_manage_app_has_no_defaulted_action(env):
    """The manage app knows no `defaulted` action: a call naming it is refused,
    even for an underfunded bond in circulation."""
    dep = env.deploy(total_bonds=10, coupon_rounds=1, coupon_base=10 * USD, end_buy=200, maturity=400)
    led = env.ledger
    holder = env.investor(stablecoin=10**12)
    led.advance_time(100)
    assert gb.submit_buy(led, dep, holder, UNIT).approved
    before = led.observable_state()

    result = led.submit_group([AppCall(holder, dep.manage_app_id, args=(b"defaulted",), accounts=(dep.bond_escrow,))])

    assert result.reason() == "app_rejected:unknown_action"
    assert led.observable_state() == before


# ---------------------------------------------------------------------------
# ratings


def test_rating_packing(env):
    dep = env.deploy(coupon_rounds=10, start_buy=1_000, end_buy=2_000, maturity=12_000)
    led = env.ledger
    ratings = [5, 3, 4, 5, 5, 5, 5, 4, 3]
    assert gb.submit_rate(led, dep, env.verifier, ratings[0]).approved
    for i, stars in enumerate(ratings[1:], start=1):
        led.advance_time(2_000 + (i - 1) * 1_000)
        assert gb.submit_rate(led, dep, env.verifier, stars).approved
    assert led.app_global(dep.manage_app_id, b"0") == bytes.fromhex("0503040505050504")
    assert led.app_global(dep.manage_app_id, b"1") == bytes.fromhex("0300000000000000")
    assert gb.get_rating(led, dep, 2) == 4
    assert gb.get_rating(led, dep, 8) == 3
    assert gb.get_rating(led, dep, 9) == 0  # unset slot
    with pytest.raises(ValueError):
        gb.get_rating(led, dep, 11)
    with pytest.raises(ValueError):
        gb.get_rating(led, dep, -1)


def test_rating_rejections(env):
    dep = env.deploy(start_buy=1_000, end_buy=2_000, maturity=12_000)
    led = env.ledger
    result = gb.submit_rate(led, dep, env.verifier, 6)
    assert result.rejected and result.rejection.detail["code"] == "rating_out_of_range"
    result = gb.submit_rate(led, dep, env.issuer, 3)
    assert result.rejected and result.rejection.detail["code"] == "not_verifier"
    led.advance_time(1_500)  # inside the buy window: nothing to rate
    result = gb.submit_rate(led, dep, env.verifier, 3)
    assert result.rejected and result.rejection.detail["code"] == "no_rateable_period"


def test_rating_overwrites_slot(env):
    dep = env.deploy(start_buy=1_000, end_buy=2_000, maturity=12_000)
    assert gb.submit_rate(env.ledger, dep, env.verifier, 2).approved
    assert gb.submit_rate(env.ledger, dep, env.verifier, 4).approved
    assert gb.get_rating(env.ledger, dep, 0) == 4


# ---------------------------------------------------------------------------
# freeze totality


def test_freeze_totality(env):
    """With the bond frozen, or with a participant frozen, every protocol
    group is refused."""
    dep = env.deploy(total_bonds=10, coupon_rounds=1, coupon_base=5 * USD, end_buy=200, maturity=400)
    led = env.ledger
    holder = env.investor(stablecoin=10**12)
    peer = env.investor(stablecoin=10**12)
    led.advance_time(150)
    assert gb.submit_buy(led, dep, holder, 2 * UNIT).approved
    assert gb.submit_set_trade(led, dep, holder, UNIT).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 10 * USD).approved  # underfunded: default live
    offer = gb.make_trade_offer(dep, holder, 10 * USD, expiry=10_000)

    def holder_attempts():
        return [
            gb.submit_buy(led, dep, holder, UNIT),
            gb.submit_set_trade(led, dep, holder, UNIT),
            gb.submit_trade(led, dep, offer, peer, UNIT // 2),
            gb.submit_coupon(led, dep, holder),
            gb.submit_principal(led, dep, holder),
            gb.submit_default(led, dep, holder),
        ]

    def all_rejected(results, expected_code):
        for result in results:
            assert result.rejected
            assert result.rejection.detail["code"] == expected_code

    assert gb.submit_freeze_all(led, dep, env.regulator, 0).approved
    all_rejected(holder_attempts() + [gb.submit_buy(led, dep, peer, UNIT)], "bond_frozen")
    assert gb.submit_freeze_all(led, dep, env.regulator, 1).approved
    assert gb.submit_freeze_account(led, dep, env.regulator, holder, 0).approved
    # only groups naming the frozen holder are blocked; the peer is free to act
    all_rejected(holder_attempts(), "account_frozen")
    assert gb.submit_buy(led, dep, peer, UNIT).approved


# ---------------------------------------------------------------------------
# supply conservation across the whole lifecycle


def test_bond_supply_conserved_through_lifecycle(env):
    dep = env.deploy(total_bonds=10, coupon_rounds=1, coupon_base=5 * USD, end_buy=200, maturity=400)
    led = env.ledger
    a = env.investor(stablecoin=10**12)
    b = env.investor(stablecoin=10**12)
    supply = dep.params.supply_base_units

    def total():
        return led.asset_supply_held(dep.bond_asset_id)

    led.advance_time(100)
    assert gb.submit_buy(led, dep, a, 4 * UNIT).approved and total() == supply
    assert gb.submit_set_trade(led, dep, a, UNIT).approved
    offer = gb.make_trade_offer(dep, a, 10 * USD, expiry=10_000)
    assert gb.submit_trade(led, dep, offer, b, UNIT).approved and total() == supply
    assert gb.submit_fund_escrow(led, dep, env.issuer, 10_000 * USD).approved
    led.advance_time(400)
    assert gb.submit_coupon(led, dep, a).approved
    assert gb.submit_coupon(led, dep, b).approved
    assert gb.submit_principal(led, dep, a).approved and total() == supply
    assert gb.submit_principal(led, dep, b).approved and total() == supply
    assert gb.bonds_in_circulation(led, dep) == 0


# ---------------------------------------------------------------------------
# the coupon counter travels with the bonds


def holding_twenty(env):
    """`seller` and `other` hold 10 bonds each; the escrow holds 6,000 USD,
    two rounds plus principal for 20 bonds; the clock is in round 1's claims."""
    dep = env.deploy()  # 100 USD per bond per round, 2 rounds
    led = env.ledger
    seller, other = env.investor("seller"), env.investor("other")
    led.advance_time(100)
    assert gb.submit_buy(led, dep, seller, 10 * UNIT).approved
    assert gb.submit_buy(led, dep, other, 10 * UNIT).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 6_000 * USD).approved
    led.advance_time(300)
    return dep, seller, other


def sold_after_round_one(env):
    """`holding_twenty`, then `seller` claims round 1 and sells all 10 bonds to
    a fresh `buyer` through an offer."""
    dep, seller, other = holding_twenty(env)
    buyer = env.investor("buyer")
    assert gb.submit_coupon(env.ledger, dep, seller).approved
    sell(env, dep, seller, buyer, 10 * UNIT)
    return dep, seller, other, buyer


def sell(env, dep, seller, buyer, amount):
    assert gb.submit_set_trade(env.ledger, dep, seller, amount).approved
    offer = gb.make_trade_offer(dep, seller, 90 * USD, expiry=10_000)
    return gb.submit_trade(env.ledger, dep, offer, buyer, amount)


def coupons_paid(env, dep, investor):
    return gb.investor_local_state(env.ledger, dep, investor)[0]


def test_a_round_is_paid_once_on_bonds_that_changed_hands(env):
    """The buyer takes the seller's counter, so its claim on bonds whose round 1
    the seller collected is refused, and `other`, whose round 1 the buyer's
    claim took before, is paid; the escrow then holds what is still owed."""
    dep, seller, other, buyer = sold_after_round_one(env)
    led = env.ledger
    assert coupons_paid(env, dep, buyer) == 1

    refused = gb.submit_coupon(led, dep, buyer)

    assert refused.reason() == "app_rejected:nothing_claimable"
    assert gb.submit_coupon(led, dep, other).approved
    assert env.escrow_funds() == 4_000 * USD  # round 2 and principal for 20 bonds
    assert gb.main_global_state(led, dep)[1] == 0  # round 1's reserve is spent, and not overspent


def test_a_buyer_holding_no_bonds_takes_the_sellers_lower_or_higher_count(env):
    dep, seller, other, buyer = sold_after_round_one(env)
    led = env.ledger
    assert coupons_paid(env, dep, other) == 0  # unclaimed: lower than the buyer's 1
    assert sell(env, dep, buyer, env.investor("empty"), 10 * UNIT).approved  # the buyer holds none again

    assert sell(env, dep, other, buyer, 4 * UNIT).approved

    assert coupons_paid(env, dep, buyer) == 0
    cash = led.asset_balance(buyer, env.stablecoin)
    assert gb.submit_coupon(led, dep, buyer).approved  # round 1, on bonds that were never paid it
    assert led.asset_balance(buyer, env.stablecoin) - cash == 400 * USD
    fresh = env.investor("fresh")
    assert sell(env, dep, buyer, fresh, UNIT).approved
    assert coupons_paid(env, dep, fresh) == 1  # higher than its own 0


def test_a_buyer_holding_bonds_with_another_count_is_refused(env):
    dep, seller, other, buyer = sold_after_round_one(env)
    led = env.ledger
    assert gb.submit_set_trade(led, dep, other, 5 * UNIT).approved
    offer = gb.make_trade_offer(dep, other, 90 * USD, expiry=10_000)
    before = led.observable_state()

    result = gb.submit_trade(led, dep, offer, buyer, 5 * UNIT)

    assert result.reason() == "app_rejected:coupons_differ"
    assert (result.rejection.detail["coupons_paid"], result.rejection.detail["seller_coupons_paid"]) == (1, 0)
    assert led.observable_state() == before


def test_a_self_trade_keeps_the_count(env):
    dep, seller, other, buyer = sold_after_round_one(env)
    before = gb.investor_local_state(env.ledger, dep, buyer)

    assert sell(env, dep, buyer, buyer, 4 * UNIT).approved

    assert gb.investor_local_state(env.ledger, dep, buyer) == before  # the allowance set is spent again
    assert env.ledger.asset_balance(buyer, dep.bond_asset_id) == 10 * UNIT


# ---------------------------------------------------------------------------
# a holder who leaves the main app and comes back keeps its bonds, not its counter

LEAVE = pytest.mark.parametrize("leave", [OnComplete.CLOSE_OUT, OnComplete.CLEAR_STATE], ids=["close_out", "clear"])


def leave_and_return(env, dep, holder, leave):
    """Close out of (or clear) the main app, opt in again, and be re-approved."""
    led = env.ledger
    assert led.submit_group([AppCall(holder, dep.main_app_id, leave)]).approved
    assert led.submit_group([AppCall(holder, dep.main_app_id, OnComplete.OPT_IN)]).approved
    assert gb.submit_freeze_account(led, dep, env.regulator, holder, 1).approved


@LEAVE
def test_a_holder_back_after_leaving_is_not_paid_a_round_twice(env, leave):
    dep, seller, other = holding_twenty(env)
    led = env.ledger
    assert gb.submit_coupon(led, dep, seller).approved
    leave_and_return(env, dep, seller, leave)
    assert coupons_paid(env, dep, seller) == 1

    refused = gb.submit_coupon(led, dep, seller)

    detail = {"txn_index": 0, "app": dep.main_app_id, "code": "nothing_claimable", "coupons_paid": 1, "claimable": 1}
    assert refused.rejection == Rejection("app_rejected", detail)
    assert gb.submit_coupon(led, dep, other).approved
    assert env.escrow_funds() == 4_000 * USD  # round 2 and principal for 20 bonds
    assert gb.main_global_state(led, dep)[1] == 0


@LEAVE
def test_a_holder_who_left_before_claiming_loses_only_the_rounds_opened(env, leave):
    dep, seller, other = holding_twenty(env)
    led = env.ledger
    leave_and_return(env, dep, seller, leave)
    assert coupons_paid(env, dep, seller) == 0  # no round opened yet: nothing lost
    assert gb.submit_coupon(led, dep, other).approved  # opens round 1
    leave_and_return(env, dep, seller, leave)

    assert coupons_paid(env, dep, seller) == 1
    assert gb.submit_coupon(led, dep, seller).reason() == "app_rejected:nothing_claimable"
    led.advance_time(400)
    cash = led.asset_balance(seller, env.stablecoin)
    for holder in (seller, other):
        assert gb.submit_coupon(led, dep, holder).approved
        assert gb.submit_principal(led, dep, holder).approved
    assert led.asset_balance(seller, env.stablecoin) - cash == 2_000 * USD  # round 2 and principal for 10 bonds
    # the seller's forfeited round 1 stays reserved in the escrow
    assert env.escrow_funds() == gb.main_global_state(led, dep)[1] == 1_000 * USD


@LEAVE
def test_a_holder_back_after_leaving_registers_again(env, leave):
    """Registration goes on to the app opt-in when the holder already holds the
    asset, records only the app's row, and the counter starts at the last round
    opened."""
    dep, seller, other = holding_twenty(env)
    led = env.ledger
    assert gb.submit_coupon(led, dep, other).approved  # opens round 1
    assert led.submit_group([AppCall(seller, dep.main_app_id, leave)]).approved
    rows = len(led.cost.rows)

    assert gb.register_investor(led, dep, seller).approved

    assert coupons_paid(env, dep, seller) == gb.main_global_state(led, dep)[0] == 1
    assert [(r.actor, r.label) for r in led.cost.rows[rows:]] == [(seller, gb.ROW_OPT_IN_APP)]
