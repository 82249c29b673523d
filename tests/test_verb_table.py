"""Each scenario token is parsed once, when the script is parsed: the verb
table binds every step's operands, and running the bound steps parses
nothing."""
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import bondsim
from bondsim import greenbond as gb
from bondsim import scenario
from bondsim.scenario import EXIT_OK, ScenarioRunner, parse_scenario

PARSERS = ("_parse_kv", "parse_money", "parse_bonds", "parse_int")

# Tokens per parser in SETUP: fund-algos 6 ints; fund-stablecoin 2 amounts;
# issue one key=value list with 5 ints (bonds, rounds, start-buy, end-buy,
# maturity) and 3 amounts; advance-time 1 int; buy and set-trade 1 quantity
# each.
SETUP = """\
create-account operator
create-account issuer
create-account verifier
create-account regulator
create-account inv1
create-account inv2
fund-algos operator 2000000
fund-algos issuer 2000000
fund-algos verifier 2000000
fund-algos regulator 2000000
fund-algos inv1 2000000
fund-algos inv2 2000000
fund-stablecoin inv1 $100000
fund-stablecoin inv2 $100000
issue bond1 operator=operator issuer=issuer verifier=verifier regulator=regulator bonds=100 rounds=2 start-buy=100 end-buy=200 maturity=400 cost=$100 coupon=$10 principal=$100
approve-bond bond1
approve-account bond1 inv1
approve-account bond1 inv2
advance-time 100
buy bond1 inv1 5
set-trade bond1 inv1 4
"""
SETUP_COUNTS = Counter(_parse_kv=1, parse_money=5, parse_bonds=2, parse_int=12)

# 1 amount, 1 quantity, 2 ints (the rating index and its value)
ASSERTS = """\
assert rejected false
assert stablecoin-balance inv1 == $99500
assert bond-balance bond1 inv1 == 5
assert rating bond1 0 == 0
"""
ASSERT_COUNTS = Counter(parse_money=1, parse_bonds=1, parse_int=2)


@pytest.fixture
def calls(monkeypatch):
    calls = Counter()
    for name in PARSERS + ("make_trade_offer",):
        owner = gb if name == "make_trade_offer" else scenario
        real = getattr(owner, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("offers, trades", [(0, 0), (1, 0), (25, 0), (25, 1), (25, 10), (3, 30)])
def test_each_token_is_parsed_once_and_running_parses_none(calls, offers, trades):
    text = SETUP + ASSERTS
    text += "".join(f"offer bond1 o{i} seller=inv1 price=$100 expiry=10000\n" for i in range(offers))
    text += "trade bond1 o0 inv2 0.1\n" * trades

    steps = parse_scenario(text)
    expected = SETUP_COUNTS + ASSERT_COUNTS + Counter(_parse_kv=offers, parse_money=offers, parse_int=offers)
    expected += Counter(parse_bonds=trades)
    assert {name: calls[name] for name in PARSERS} == {name: expected[name] for name in PARSERS}

    calls.clear()
    outcome = ScenarioRunner().run(steps)
    assert outcome.exit_code == EXIT_OK, outcome.transcript
    assert all(line.endswith("-> APPROVED") for line in outcome.transcript)
    assert calls == Counter(make_trade_offer=trades)


def test_huge_exponent_fails_fast_with_its_line(tmp_path):
    script = tmp_path / "huge.bsim"
    script.write_text(SETUP + "buy bond1 inv2 1e999990\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bondsim.__file__).resolve().parents[1]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "bondsim.cli", "run", str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
    )
    assert time.monotonic() - start < 10
    assert proc.returncode == 2
    assert proc.stderr == f"error: line {SETUP.count(chr(10)) + 1}: bad bond quantity: 1e999990\n"
    assert proc.stdout == ""
