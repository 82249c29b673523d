"""A leg whose every value comes from the deployment and the actor is built
once per deployment and actor, kept in `BondDeployment._fixed_legs`, and
looked up by every later group that has a leg of the same source.  These
tests hold each cached leg to the same leg built fresh with keyword
arguments, check which groups share legs and which never do, hold a
ledger that caches to one that builds every leg afresh, and bound what a
repeat claim leaves for the collector (`test_applied_log.py` bounds a
first claim)."""
import gc
import platform
from dataclasses import astuple, replace

import pytest

from bondsim import greenbond as gb
from bondsim.greenbond import ESCROW_FUNDING, ESCROW_SEED, UNIT
from bondsim.programs import LogicSig
from bondsim.reports import ReportNote

from conftest import BondEnv
from test_applied_log import coupon_ready
from test_builders import SHAPES, keyword_build

USD = UNIT
# the legs of each shape that take no operand of the action and no earlier
# leg; a shape whose every leg is such (the link, the two opt-ins) is sent
# once per actor and caches none
FIXED = {"_SETUP": (0,), "_BUY": (0, 1), "_COUPON": (0, 1, 2), "_PRINCIPAL": (0, 1, 4, 5), "_DEFAULT": (0, 1, 4, 5)}


def cached_ids(dep) -> set:
    return {id(leg) for legs in dep._fixed_legs.values() for leg in legs.values()}


def own_operands(dep, actor, other) -> dict:
    offer = gb.make_trade_offer(dep, actor, 90 * UNIT, expiry=300)
    return {
        "_LINK": dict(),
        "_FUND_CONTRACTS": dict(funding=ESCROW_FUNDING),
        "_SETUP": dict(supply=dep.params.supply_base_units, seed=ESCROW_SEED),
        "_FREEZE_ALL": dict(value=1),
        "_FREEZE": dict(target=other, value=0),
        "_SET_TRADE": dict(quantity=3 * UNIT),
        "_RATE": dict(rating=4),
        "_FUND_ESCROW": dict(quantity=7 * UNIT),
        "_BUY": dict(quantity=5 * UNIT),
        "_TRADE": dict(buyer=other, quantity=2 * UNIT, price=offer.price_per_bond, offer=offer.lsig),
        "_COUPON": dict(payout=9 * UNIT),
        "_PRINCIPAL": dict(holdings=11 * UNIT),
        "_DEFAULT": dict(holdings=11 * UNIT, payout=13 * UNIT),
        "_OPT_IN_ASSET": dict(),
        "_OPT_IN_MAIN": dict(),
        "_ANCHOR": dict(note=ReportNote(dep.manage_app_id, "ab" * 32).render()),
    }


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_cached_legs_equal_legs_built_fresh_by_keyword(env, name):
    dep = env.deploy()
    actor, other = env.investor("actor"), env.investor("other")
    own = own_operands(dep, actor, other)[name]
    shape = SHAPES[name]
    group = shape.build(dep, actor, **own)
    assert group == keyword_build(shape)(dep, actor, **own)
    cached = cached_ids(dep)
    assert tuple(i for i, leg in enumerate(group.txns) if id(leg) in cached) == FIXED.get(name, ())
    again = shape.build(dep, actor, **own)
    for i in FIXED.get(name, ()):
        assert again.txns[i] is group.txns[i]


def claimed(led, dep, inv, submit) -> tuple:
    """The legs of the group `submit` commits, as the applied log holds them."""
    start = len(led.applied_log)
    assert submit(led, dep, inv).approved
    return tuple(entry.txn for entry in led.applied_log[start:])


def test_claims_share_fixed_legs(env):
    dep = env.deploy(coupon_rounds=2, start_buy=100, end_buy=200, maturity=400)
    inv = env.investor("inv")
    led = env.ledger
    led.advance_time(100)
    buy = claimed(led, dep, inv, lambda led, dep, inv: gb.submit_buy(led, dep, inv, 10 * UNIT))
    assert gb.submit_fund_escrow(led, dep, env.issuer, 10_000 * USD).approved
    led.advance_time(300)
    first = claimed(led, dep, inv, gb.submit_coupon)
    led.advance_time(400)
    second = claimed(led, dep, inv, gb.submit_coupon)
    principal = claimed(led, dep, inv, gb.submit_principal)
    assert all(a is b for a, b in zip(first[:3], second[:3]))
    assert first[3] is not second[3]  # the payout is the claim's own
    assert principal[1] is first[1]  # the manage app's `not_defaulted` call
    assert principal[5] is first[2]  # the refund to the stablecoin escrow
    assert principal[4] is buy[1]  # the refund to the bond escrow


def test_investors_and_deployments_never_share_a_leg():
    env = BondEnv()
    first = env.deploy()
    a, b = env.investor("a"), env.investor("b")
    second = env.deploy()
    env.approve_investor(a)
    led = env.ledger
    builders = (gb.build_coupon_group, gb.build_principal_group, gb.build_default_group)
    groups = [[build(led, dep, inv) for build in builders] for dep in (first, second) for inv in (a, b)]
    seen = set()
    for built in groups:  # kept alive, so that no two legs have the same id
        ids = {id(t) for group in built for t in group.txns}
        assert not ids & seen
        seen |= ids
    assert not cached_ids(first) & cached_ids(second)


class _Uncached(dict):
    """`_fixed_legs` of a ledger that builds every leg afresh: each lookup
    returns an empty dict that nothing keeps."""

    def __missing__(self, source):
        return {}


def logged(led) -> list:
    """The applied log, with each logic signature as its program's name and
    parameters: two ledgers' escrow programs are equal but not the same."""

    def named(sig):
        return (sig.program.name, sig.program.params, sig.delegator) if isinstance(sig, LogicSig) else sig

    return [(e.seq, e.timestamp, replace(e.txn, signature=named(e.txn.signature))) for e in led.applied_log]


def run_claims(uncached: bool):
    """Claims rejected by the main app, then by the manage app, then approved."""
    env = BondEnv()
    dep = env.deploy(coupon_rounds=2, start_buy=100, end_buy=200, maturity=400)
    if uncached:
        dep.__dict__["_fixed_legs"] = _Uncached()
    a, b = env.investor("a"), env.investor("b")
    led = env.ledger
    led.advance_time(100)
    outcomes = [gb.submit_buy(led, dep, inv, 10 * UNIT) for inv in (a, b)]
    led.advance_time(250)
    outcomes.append(gb.submit_coupon(led, dep, a))  # nothing claimable yet
    led.advance_time(300)
    outcomes.append(gb.submit_coupon(led, dep, a))  # the escrow holds nothing
    assert gb.submit_fund_escrow(led, dep, env.issuer, 10_000 * USD).approved
    outcomes += [gb.submit_coupon(led, dep, inv) for inv in (a, b, a)]
    return env, dep, outcomes


def test_a_rejected_claim_then_an_approved_one_log_as_without_the_cache():
    env, dep, outcomes = run_claims(uncached=False)
    fresh_env, fresh_dep, fresh_outcomes = run_claims(uncached=True)
    rejected = "app_rejected:nothing_claimable", "app_rejected:escrow_shortfall"
    assert [r.reason() for r in outcomes[2:]] == [*rejected, "", "", rejected[0]]
    assert outcomes == fresh_outcomes
    led, fresh = env.ledger, fresh_env.ledger
    assert logged(led) == logged(fresh)
    assert led.observable_state() == fresh.observable_state()
    assert [astuple(row) for row in led.cost.rows] == [astuple(row) for row in fresh.cost.rows]
    assert cached_ids(dep) and not fresh_dep._fixed_legs


@pytest.mark.skipif(platform.python_implementation() != "CPython", reason="counts CPython's collector")
def test_a_repeat_coupon_claim_leaves_at_most_two_objects_for_the_collector():
    env, dep, holders = coupon_ready()
    led = env.ledger
    for inv in holders:
        assert gb.submit_coupon(led, dep, inv).approved
    led.advance_time(400)
    gc.collect()
    gc.disable()
    try:
        # the round's first claim reserves its obligation and refills the free lists
        assert gb.submit_coupon(led, dep, holders[0]).approved
        start = gc.get_count()[0]
        assert gb.submit_coupon(led, dep, holders[1]).approved
        grown = gc.get_count()[0] - start
    finally:
        gc.enable()
    # the payout leg, kept in the log, and the cost entry that its cost row is
    # made from on read: the investor's other three legs were built on its
    # first claim
    assert grown <= 2
