"""Seeded inputs for the three benchmark workloads.

Each workload builds a *pass*: a fresh environment plus the ordered list of
operations to run against it, each with the outcome the generator expects.
The harness (`run.py`) times the operations one at a time, compares every
outcome and, when the pass ends, runs the pass's invariant checks.  Every
pass of a run is built from the seed alone, so the passes of one run repeat
the same operations on the same inputs.

An operation is a tuple `(kind, fn, args, expected)`.  `fn(*args)` is one
call into bondsim; its value is turned into a comparable outcome by
`outcome()`.  Steps of kind "clock" move the ledger clock between
operations and are neither timed nor checked.  Everything random comes from `random.Random(seed)`, so one seed
always gives the same inputs.

Functions are looked up on their modules when a pass is built, so a pass
built while the tracer's wrappers are installed calls the wrapped versions.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

from bondsim import cli
from bondsim import greenbond as gb
from bondsim import reports
from bondsim.ledger import Ledger, SubmitResult

UNIT = 1_000_000  # base units per whole bond and per stablecoin dollar
BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_DIR = BENCH_DIR / "expected"
GENERATED_BASE = BENCH_DIR / "generated-base.bsim"

APPROVED = "APPROVED"


def rejected(code: str) -> str:
    return f"REJECTED(app_rejected:{code})"


def outcome(value):
    """Comparable form of an operation's return value."""
    if isinstance(value, SubmitResult):
        return APPROVED if value.approved else f"REJECTED({value.reason()})"
    return value


@dataclass
class Pass:
    ops: List[tuple]
    check: Callable[[], List[str]]  # invariant violations after the pass


@dataclass(frozen=True)
class Sizes:
    """Population and script sizes; `TINY` is for the smoke test."""

    lifecycle_investors: int = 400
    lifecycle_rounds: int = 3
    market_investors: int = 16
    market_rounds: int = 240
    replay_names: int = 2000
    replay_generated: int = 4
    replay_bundled_repeats: int = 3
    min_ops: int = 1000  # so that at least ten latencies lie beyond p99


TINY = Sizes(
    lifecycle_investors=20,
    lifecycle_rounds=2,
    market_investors=4,
    market_rounds=6,
    replay_names=50,
    replay_generated=2,
    replay_bundled_repeats=1,
    min_ops=1,
)

# share of investors, per category, whose group the protocol must reject
REJECT_SHARE = 0.12


# ---------------------------------------------------------------------------
# library environment shared by lifecycle-wide and market-narrow


@dataclass
class Env:
    ledger: Ledger
    stablecoin: int
    operator: str
    issuer: str
    verifier: str
    regulator: str
    investors: List[str] = field(default_factory=list)


def make_env(investors: int, investor_algos: int, investor_cash: int, issuer_cash: int) -> Env:
    """Accounts funded by a bank the benchmark sizes itself: the stablecoin
    supply covers every grant, so no population runs the bank dry."""
    ledger = Ledger()
    bank = ledger.create_account("bank")
    ledger.fund_algos(bank, 10_000_000)
    supply = investors * investor_cash + issuer_cash
    stablecoin = ledger.create_asset(bank, total=supply, decimals=6)
    env = Env(ledger, stablecoin, "operator", "issuer", "verifier", "regulator")

    def account(label: str, algos: int, cash: int) -> str:
        addr = ledger.create_account(label)
        ledger.fund_algos(addr, algos)
        ledger.dispense_asset(stablecoin, bank, addr, cash)
        return addr

    account(env.operator, 10_000_000, 0)
    account(env.issuer, 10_000_000, issuer_cash)
    account(env.verifier, 10_000_000, 0)
    account(env.regulator, 10_000_000, 0)
    env.investors = [account(f"inv{i}", investor_algos, investor_cash) for i in range(investors)]
    return env


def issue_bond(env: Env, total_bonds: int, rounds: int, coupon: int, period: int) -> gb.BondDeployment:
    params = gb.BondParams(
        total_bonds=total_bonds,
        coupon_rounds=rounds,
        start_buy=period,
        end_buy=2 * period,
        maturity=2 * period + rounds * period,
        bond_cost=100 * UNIT,
        coupon_base=coupon,
        principal=100 * UNIT,
        issuer=env.issuer,
        green_verifier=env.verifier,
        financial_regulator=env.regulator,
        stablecoin_id=env.stablecoin,
    )
    dep = gb.issue(env.ledger, params, env.operator)
    result = gb.submit_freeze_all(env.ledger, dep, env.regulator, 1)
    if result.rejected:
        raise RuntimeError(f"listing approval rejected: {result.reason()}")
    return dep


def ledger_invariants(env: Env, dep: gb.BondDeployment) -> List[str]:
    ledger = env.ledger
    problems = []
    held = ledger.asset_supply_held(dep.bond_asset_id)
    if held != dep.params.supply_base_units:
        problems.append(f"bond supply not conserved: {held} != {dep.params.supply_base_units}")
    if ledger.total_algos() + ledger.total_fees_burned() != ledger.total_minted():
        problems.append("algos: total_algos + total_fees_burned != total_minted")
    escrow = ledger.asset_balance(dep.stablecoin_escrow, env.stablecoin)
    reserve = gb.main_global_state(ledger, dep)[1]
    if escrow < reserve:
        problems.append(f"stablecoin escrow {escrow} below reserve {reserve}")
    return problems


# ---------------------------------------------------------------------------
# lifecycle-wide: one bond, 400 investors, onboard -> buy -> coupons -> principal


def lifecycle_pass(seed: int, sizes: Sizes) -> Pass:
    """Every investor registers, is approved, buys, claims every coupon and
    redeems.  About REJECT_SHARE of investors per category also submit a group
    that must be rejected: a buy before approval, a coupon claim before the
    first round unlocks, and a claim in a round (or at maturity) before the
    issuer has funded it."""
    rng = random.Random(f"lifecycle-wide/{seed}")
    n, rounds = sizes.lifecycle_investors, sizes.lifecycle_rounds
    qty = [rng.randint(1, 5) for _ in range(n)]
    total = sum(qty)
    coupon = 5 * UNIT
    env = make_env(n, investor_algos=10_000_000, investor_cash=1_000 * UNIT,
                   issuer_cash=total * (coupon * rounds + 100 * UNIT))
    period = 100
    dep = issue_bond(env, total, rounds, coupon, period)
    ledger, inv = env.ledger, env.investors
    order = list(range(n))

    def pick() -> set:
        return {i for i in range(n) if rng.random() < REJECT_SHARE}

    late, premature = pick(), pick()
    ops: List[tuple] = []
    add = ops.append

    rng.shuffle(order)
    for i in order:
        add(("register", gb.register_investor, (ledger, dep, inv[i]), APPROVED))
        if i not in late:
            add(("approve", gb.submit_freeze_account, (ledger, dep, env.regulator, inv[i], 1), APPROVED))

    add(("clock", ledger.advance_time, (dep.params.start_buy,), None))
    rng.shuffle(order)
    for i in order:
        if i in late:
            add(("buy", gb.submit_buy, (ledger, dep, inv[i], qty[i] * UNIT), rejected("account_frozen")))
            add(("approve", gb.submit_freeze_account, (ledger, dep, env.regulator, inv[i], 1), APPROVED))
        add(("buy", gb.submit_buy, (ledger, dep, inv[i], qty[i] * UNIT), APPROVED))
        if i in premature:
            add(("coupon", gb.submit_coupon, (ledger, dep, inv[i]), rejected("nothing_claimable")))

    def funded_phase(kind: str, fn, amount: int) -> None:
        early = pick()
        rng.shuffle(order)
        for i in order:
            if i in early:
                add((kind, fn, (ledger, dep, inv[i]), rejected("escrow_shortfall")))
        add(("fund", gb.submit_fund_escrow, (ledger, dep, env.issuer, amount), APPROVED))
        rng.shuffle(order)
        for i in order:
            add((kind, fn, (ledger, dep, inv[i]), APPROVED))

    for r in range(1, rounds + 1):
        add(("clock", ledger.advance_time, (dep.params.end_buy + r * period,), None))
        funded_phase("coupon", gb.submit_coupon, total * coupon)
    add(("clock", ledger.advance_time, (dep.params.maturity,), None))
    funded_phase("principal", gb.submit_principal, total * 100 * UNIT)

    return Pass(ops, lambda: ledger_invariants(env, dep))


# ---------------------------------------------------------------------------
# market-narrow: 16 investors, a few hundred rated rounds, reports and trades


def market_pass(seed: int, sizes: Sizes) -> Pass:
    """Each round the verifier rates the next round, the issuer anchors a
    report that is then listed, every investor claims the round's coupon and
    one to three secondary trades run through delegated offers.  Each trade is
    followed by a balance read of the buyer and a replay of the same offer,
    which the spent trade allowance must reject."""
    rng = random.Random(f"market-narrow/{seed}")
    n, rounds = sizes.market_investors, sizes.market_rounds
    holdings = [rng.randint(10, 30) for _ in range(n)]
    total = sum(holdings)
    coupon = UNIT
    # each round is funded at twice the top-rating coupon, which covers any
    # rating's penalty (at most 1.1**4 times the top-rating coupon)
    round_funding = 2 * coupon * total
    env = make_env(n, investor_algos=100_000_000, investor_cash=100_000 * UNIT,
                   issuer_cash=rounds * round_funding + total * 100 * UNIT)
    period = 100
    dep = issue_bond(env, total, rounds, coupon, period)
    ledger, inv = env.ledger, env.investors
    store = reports.ReportStore()
    anchored: List[str] = []
    ops: List[tuple] = []
    add = ops.append

    for i in range(n):
        add(("register", gb.register_investor, (ledger, dep, inv[i]), APPROVED))
        add(("approve", gb.submit_freeze_account, (ledger, dep, env.regulator, inv[i], 1), APPROVED))
    add(("clock", ledger.advance_time, (dep.params.start_buy,), None))
    for i in range(n):
        add(("buy", gb.submit_buy, (ledger, dep, inv[i], holdings[i] * UNIT), APPROVED))

    def claims(kind: str, fn, funding: int) -> None:
        add(("fund", gb.submit_fund_escrow, (ledger, dep, env.issuer, funding), APPROVED))
        for i in rng.sample(range(n), n):
            add((kind, fn, (ledger, dep, inv[i]), APPROVED))

    for r in range(rounds + 1):
        now = dep.params.end_buy + r * period
        add(("clock", ledger.advance_time, (now,), None))
        if r >= 1:
            claims("coupon", gb.submit_coupon, round_funding)
        if r == rounds:
            break
        add(("rate", gb.submit_rate, (ledger, dep, env.verifier, rng.randint(1, 5)), APPROVED))
        cid = store.store(f"impact report {seed}/{r}/{rng.random()}".encode())
        anchored.append(cid)
        add(("anchor", gb.submit_report_anchor, (ledger, dep, env.issuer, cid), APPROVED))
        add(("list", reports.list_reports, (ledger, env.issuer, dep.manage_app_id), list(anchored)))
        for _ in range(rng.randint(1, 3)):
            seller, buyer = rng.sample(range(n), 2)
            if holdings[seller] < 2:  # every holder keeps a bond, so every coupon claim is approved
                continue
            q = rng.randint(1, min(3, holdings[seller] - 1))
            holdings[seller] -= q
            holdings[buyer] += q
            price = rng.randint(90 * UNIT, 110 * UNIT)
            offer = gb.make_trade_offer(dep, inv[seller], price, now + period)
            add(("set-trade", gb.submit_set_trade, (ledger, dep, inv[seller], q * UNIT), APPROVED))
            add(("trade", gb.submit_trade, (ledger, dep, offer, inv[buyer], q * UNIT), APPROVED))
            add(("balance", ledger.asset_balance, (inv[buyer], dep.bond_asset_id), holdings[buyer] * UNIT))
            add(("trade", gb.submit_trade, (ledger, dep, offer, inv[buyer], q * UNIT),
                 rejected("allowance_exceeded")))
    claims("principal", gb.submit_principal, total * 100 * UNIT)

    return Pass(ops, lambda: ledger_invariants(env, dep))


# ---------------------------------------------------------------------------
# scenario-replay: in-process `bondsim run` / `bondsim costs`


BUNDLED = ("lifecycle", "default-checks")


def replay(argv: List[str]) -> tuple:
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _expected(name: str) -> str:
    return (EXPECTED_DIR / name).read_text()


def _steps(text: str) -> List[str]:
    return [s for s in (line.strip() for line in text.splitlines()) if s and not s.startswith("#")]


def generate_script(rng: random.Random, names: int) -> tuple:
    """A copy of generated-base.bsim with `names` extra `offer` lines spread
    after its issue step.  Returns (script, expected transcript).

    Offers bind names but never touch the ledger, so the cost table stays
    the one recorded for the base script, and every inserted step is
    approved while each base step keeps its recorded outcome."""
    base = _steps(GENERATED_BASE.read_text())
    base_outcomes = [line.split(" ", 2)[2] for line in _expected("generated-base.run.txt").splitlines()]
    first = next(i for i, s in enumerate(base) if s.startswith("issue ")) + 1
    sellers = [s.split()[1] for s in base if s.startswith("create-account a")]
    slots = sorted(rng.randrange(first, len(base) + 1) for _ in range(names))
    letters = "abcdefghijklmnopqrstuvwxyz"
    steps, outcomes = [], []
    k = 0
    for i in range(len(base) + 1):
        while k < names and slots[k] == i:
            tag = "".join(rng.choice(letters) for _ in range(rng.randint(3, 8)))
            price = rng.randint(50, 150)
            steps.append(f"offer b o{tag}{k} seller={rng.choice(sellers)} price=${price} "
                         f"expiry={rng.randint(1000, 100000)}")
            outcomes.append("offer -> APPROVED")
            k += 1
        if i < len(base):
            steps.append(base[i])
            outcomes.append(base_outcomes[i])
    transcript = "".join(f"STEP {n} {o}\n" for n, o in enumerate(outcomes, start=1))
    return "".join(s + "\n" for s in steps), transcript


def replay_pass(seed: int, sizes: Sizes, root: Path, workdir: Path) -> Pass:
    """For each of `replay_generated` generated scripts: the bundled
    scenarios (lifecycle.bsim three times, default-checks.bsim once) repeated
    `replay_bundled_repeats` times, then the generated script, each through
    `run` and `costs`.

    The mix keeps the median inside the bundled lifecycle replays and the
    99th percentile inside the generated replays, away from the edges
    between those groups of latencies."""
    rng = random.Random(f"scenario-replay/{seed}")
    bundled = []
    for name, times in zip(BUNDLED, (3, 1)):
        scenario = str(root / "scenarios" / f"{name}.bsim")
        for cmd in ("run", "costs"):
            bundled.append((times, (cmd, replay, ([cmd, scenario],), (0, _expected(f"{name}.{cmd}.txt"), ""))))
    ops: List[tuple] = []
    for k in range(sizes.replay_generated):
        text, transcript = generate_script(rng, sizes.replay_names)
        path = workdir / f"generated-{seed}-{k}.bsim"
        path.write_text(text)
        for _ in range(sizes.replay_bundled_repeats):
            ops.extend(op for times, op in bundled for _ in range(times))
        ops.append(("run", replay, (["run", str(path)],), (0, transcript, "")))
        ops.append(("costs", replay, (["costs", str(path)],), (0, _expected("generated-base.costs.txt"), "")))
    return Pass(ops, lambda: [])


WORKLOADS = {
    "lifecycle-wide": lifecycle_pass,
    "market-narrow": market_pass,
    "scenario-replay": replay_pass,
}
