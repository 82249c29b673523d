"""Python-level calls per action, counted with `sys.setprofile` on a small
fixed lifecycle after every builder and check has been compiled.  A count
repeats exactly from run to run, so a regression in the fixed cost of an
action shows here without timing noise.  Each count is pinned at the value
last measured (the same on 3.10 to 3.13), so a saved call cannot creep back.
"coupon" is an investor's first claim, which builds the investor's fixed
legs; "repeat coupon" is a later claim, which looks them up.  Parsing is
pinned the same way: the calls that one more `offer` line costs.
The collector is held off while counting: a collection that happens to fall
inside an action would add the collector's own callbacks to its count
(hypothesis, once imported by another test, registers one that times every
collection)."""
import gc
import sys

import pytest

from bondsim import greenbond as gb
from bondsim.scenario import parse_scenario

from conftest import BondEnv
from test_verb_table import SETUP

UNIT = gb.UNIT
MOST_CALLS = {
    "registration": 44,
    "buy": 50,
    "trade": 67,
    "coupon": 72,
    "repeat coupon": 69,
    "first coupon of a round": 73,
    "principal": 75,
}

MOST_CALLS_PER_OFFER_PARSED = 7


def calls_made(fn, *args) -> tuple:
    """`fn(*args)` and the number of Python functions it called."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return result, calls


def counted(counts: dict, action: str, submit, *args) -> None:
    """Submit one action, counting the Python functions it calls."""
    result, counts[action] = calls_made(submit, *args)
    assert result.approved, result.reason()


@pytest.fixture(scope="module")
def counts():
    """Every action counted once on a two-round bond; the first investor of
    each kind warms the compiled builders and checks."""
    env, counts = BondEnv(), {}
    dep = env.deploy(coupon_rounds=2, start_buy=100, end_buy=200, maturity=400)
    led = env.ledger
    a, b, c = env.investor("a"), env.investor("b"), env.investor("c")
    late = env.new_account("late", stablecoin=10**12)
    led.advance_time(100)
    assert gb.submit_buy(led, dep, a, 10 * UNIT).approved
    counted(counts, "buy", gb.submit_buy, led, dep, b, 10 * UNIT)
    assert gb.submit_buy(led, dep, c, 10 * UNIT).approved
    counted(counts, "registration", gb.register_investor, led, dep, late)
    assert gb.submit_set_trade(led, dep, a, 10 * UNIT).approved
    offer = gb.make_trade_offer(dep, a, 90 * UNIT, 300)
    assert gb.submit_trade(led, dep, offer, b, UNIT).approved
    counted(counts, "trade", gb.submit_trade, led, dep, offer, b, UNIT)
    assert gb.submit_fund_escrow(led, dep, env.issuer, 10**11).approved
    led.advance_time(300)
    assert gb.submit_coupon(led, dep, a).approved
    counted(counts, "coupon", gb.submit_coupon, led, dep, b)
    assert gb.submit_coupon(led, dep, c).approved
    led.advance_time(400)
    counted(counts, "first coupon of a round", gb.submit_coupon, led, dep, a)
    counted(counts, "repeat coupon", gb.submit_coupon, led, dep, b)
    assert gb.submit_coupon(led, dep, c).approved
    assert gb.submit_principal(led, dep, a).approved
    counted(counts, "principal", gb.submit_principal, led, dep, b)
    return counts


@pytest.mark.parametrize("action", MOST_CALLS)
def test_action_makes_no_more_python_calls_than_pinned(counts, action):
    assert counts[action] <= MOST_CALLS[action]


def test_parsing_an_offer_line_makes_no_more_python_calls_than_pinned():
    offers = "".join(f"offer bond1 o{i} seller=inv1 price=$100 expiry=10000\n" for i in range(100))
    parse_scenario(SETUP + offers)  # warm every parser once
    _, setup_only = calls_made(parse_scenario, SETUP)
    _, with_offers = calls_made(parse_scenario, SETUP + offers)
    assert (with_offers - setup_only) / 100 <= MOST_CALLS_PER_OFFER_PARSED
