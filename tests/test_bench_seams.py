"""The benchmark's span tracer (`bench/spans.py`) times logic signatures by
replacing `bondsim.ledger.eval_logic_signature`, and app handlers by
wrapping each program's `approval` through `greenbond.build_main_program`
and `greenbond.build_manage_program`.  If the ledger stopped reaching
either through those names, `programs.lsig_evals` and
`greenbond.handler_us` would silently read 0.  These tests wrap the same
seams with counters and check one call per signed leg and per app call."""
import dataclasses

import pytest

from bondsim import greenbond as gb
from bondsim import ledger as ledger_module
from bondsim.ledger import AppCall
from bondsim.programs import LogicSig

UNIT = gb.UNIT
USD = UNIT


@pytest.fixture
def calls(monkeypatch):
    """Counts of `eval_logic_signature` and `approval` calls made through the
    seams the tracer patches."""
    counts = {"lsig": 0, "approval": 0}
    evaluate = ledger_module.eval_logic_signature

    def counted_eval(*args):
        counts["lsig"] += 1
        return evaluate(*args)

    def counted_build(build):
        def traced_build(params):
            program = build(params)
            approval = program.approval

            def counted_approval(ctx):
                counts["approval"] += 1
                return approval(ctx)

            return dataclasses.replace(program, approval=counted_approval)

        return traced_build

    monkeypatch.setattr(ledger_module, "eval_logic_signature", counted_eval)
    for name in ("build_main_program", "build_manage_program"):
        monkeypatch.setattr(gb, name, counted_build(getattr(gb, name)))
    return counts


def submit_counted(led, calls, group, lsig_legs):
    txns = group.txns
    assert sum(isinstance(t.signature, LogicSig) for t in txns) == lsig_legs
    calls.update(lsig=0, approval=0)
    assert led.submit_group(group).approved
    assert calls == {"lsig": lsig_legs, "approval": sum(isinstance(t, AppCall) for t in txns)}


def test_coupon_and_principal_evaluate_each_signed_leg_and_each_app_call(env, calls):
    dep = env.deploy(total_bonds=10, coupon_rounds=1, coupon_base=5 * USD, end_buy=200, maturity=400)
    inv = env.investor(stablecoin=10_000 * USD)
    led = env.ledger
    led.advance_time(100)
    assert gb.submit_buy(led, dep, inv, UNIT).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 10_000 * USD).approved
    led.advance_time(400)
    submit_counted(led, calls, gb.build_coupon_group(led, dep, inv), lsig_legs=1)
    submit_counted(led, calls, gb.build_principal_group(led, dep, inv), lsig_legs=2)


def test_trade_evaluates_each_signed_leg_and_each_app_call(env, calls):
    dep = env.deploy()
    seller, buyer = env.investor("seller"), env.investor("buyer")
    led = env.ledger
    led.advance_time(100)
    assert gb.submit_buy(led, dep, seller, 10 * UNIT).approved
    assert gb.submit_set_trade(led, dep, seller, 10 * UNIT).approved
    offer = gb.make_trade_offer(dep, seller, 90 * USD, 300)
    submit_counted(led, calls, gb.build_trade_group(dep, offer, buyer, 2 * UNIT), lsig_legs=3)
