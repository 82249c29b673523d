"""A payout cannot ride on a head that leaves the main app.

The main app approves an opt-in or a close-out without looking at the group,
so the manage app and a trade offer, which rely on the main app having
checked the group, pin the head to a NoOp call.  Each test below builds an
action's group, turns its head into an opt-in or a close-out and makes the
theft that head would have carried: a coupon or a principal far above what
the holder is owed, a default recovery that keeps the bonds, a trade that
skips the seller's allowance.  Each group must be rejected by that pin and
leave the ledger as it was.
"""
import dataclasses

import pytest

from bondsim import greenbond as gb
from bondsim.ledger import AppCall
from bondsim.programs import OnComplete

UNIT = gb.UNIT
USD = UNIT
LEAVING = (OnComplete.OPT_IN, OnComplete.CLOSE_OUT)


def holder_due(env, action):
    """A deployment and a holder of 10 bonds (of 15 sold) at the time
    `action` is due: the escrow holds 10,000 USD for a coupon or a principal,
    and 300 USD, short of the first coupon round, for a default."""
    dep = env.deploy()  # 100 USD per bond per round, 2 rounds, maturity 400
    holder, other = env.investor("holder"), env.investor("other")
    led = env.ledger
    led.advance_time(100)
    assert gb.submit_buy(led, dep, holder, 10 * UNIT).approved
    assert gb.submit_buy(led, dep, other, 5 * UNIT).approved
    funding = 300 * USD if action == "default" else 10_000 * USD
    assert gb.submit_fund_escrow(led, dep, env.issuer, funding).approved
    led.advance_time(400 if action == "sell" else 300)
    return dep, holder


def leave_main_app(env, dep, holder, on_complete):
    """An opt-in head needs a holder outside the main app: it closes out first."""
    if on_complete is OnComplete.OPT_IN:
        close_out = AppCall(sender=holder, app_id=dep.main_app_id, on_complete=OnComplete.CLOSE_OUT)
        assert env.ledger.submit_group([close_out]).approved


def theft(env, dep, holder, action):
    """The action's group with the amount the theft changes."""
    led = env.ledger
    if action == "coupon":  # the honest coupon is 1,000 USD
        txns = list(gb.build_coupon_group(led, dep, holder).txns)
        txns[3] = dataclasses.replace(txns[3], amount=9_000 * USD)
    elif action == "sell":  # the honest principal is 1,000 USD
        txns = list(gb.build_principal_group(led, dep, holder).txns)
        txns[3] = dataclasses.replace(txns[3], amount=9_000 * USD)
    else:  # the recovery is paid, but no bond comes back
        txns = list(gb.build_default_group(led, dep, holder).txns)
        txns[2] = dataclasses.replace(txns[2], amount=0)
    return txns


@pytest.mark.parametrize("on_complete", LEAVING, ids=lambda oc: oc.value)
@pytest.mark.parametrize("action", ["coupon", "sell", "default"])
def test_payout_cannot_ride_on_a_head_that_leaves_the_main_app(env, action, on_complete):
    dep, holder = holder_due(env, action)
    leave_main_app(env, dep, holder, on_complete)
    txns = theft(env, dep, holder, action)
    txns[0] = dataclasses.replace(txns[0], on_complete=on_complete)
    before = env.ledger.observable_state()
    escrow = env.escrow_funds()

    result = env.ledger.submit_group(txns)

    assert result.rejected and str(result.rejection) == "app_rejected:bad_group"
    detail = result.rejection.detail
    assert (detail["txn_index"], detail["app"]) == (1, dep.manage_app_id)
    assert (detail["leg"], detail["field"]) == (0, "on_complete")
    assert env.escrow_funds() == escrow
    assert env.ledger.observable_state() == before


@pytest.mark.parametrize("on_complete", LEAVING, ids=lambda oc: oc.value)
def test_trade_offer_signs_no_head_that_leaves_the_main_app(env, on_complete):
    """Such a head would skip the seller's allowance, which is 0 here."""
    dep = env.deploy()
    seller, buyer = env.investor("seller"), env.investor("buyer")
    led = env.ledger
    led.advance_time(100)
    assert gb.submit_buy(led, dep, seller, 10 * UNIT).approved
    leave_main_app(env, dep, seller, on_complete)
    offer = gb.make_trade_offer(dep, seller, 90 * USD, 300)
    txns = list(gb.build_trade_group(dep, offer, buyer, 10 * UNIT).txns)
    txns[0] = dataclasses.replace(txns[0], on_complete=on_complete)
    before = led.observable_state()

    result = led.submit_group(txns)

    assert result.rejected and result.rejection.code == "logic_rejected"
    assert result.rejection.detail["txn_index"] == 0
    assert led.observable_state() == before
