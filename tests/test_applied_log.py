"""The applied log is kept as the committed transactions and their commit
times; `applied_log` makes its `LogEntry` records on read, and fee totals,
`noted_by` and cost rows are folded from them on read too.

The first tests hold what is read to the groups submitted: every approved
group's transactions, in order, each with the clock at its commit, and the
fee totals, noted entries and cost rows they make, whether they are read
between commits or only at the end, and by one reader or by racing ones.
The rest check what a committed group leaves for the cyclic garbage
collector: no `LogEntry` but for a transaction with a note, one set of
reference tuples per deployment, and at most five new objects for a coupon
claim.
"""
import gc
import os
import platform
import sys
import threading
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bondsim import greenbond as gb
from bondsim.ledger import FLAT_FEE, AppCall, Ledger, LogEntry, Payment
from bondsim.programs import StatefulProgram, StateSchema
from bondsim.scenario import ScenarioRunner, parse_scenario

from clone_ledger import CloneLedger
from conftest import BondEnv

UNIT = gb.UNIT
USD = UNIT
SENDERS = ("a0", "a1", "a2", "ghost")  # "ghost" is never funded: its groups are rejected
APP = 1000  # the id a fresh ledger hands out first


def probe(ctx):
    action = ctx.args[:1]
    if action == (b"fail",):
        ctx.deny("asked_to")
    if action == (b"boom",):
        raise RuntimeError("handler fault")


def make_ledger(cls):
    led = cls()
    for name in SENDERS:
        led.create_account(name)
        if name != "ghost":
            led.fund_algos(name, 10**9)
    assert led.register_app(StatefulProgram("probe", StateSchema(), approval=probe), "a0") == APP
    return led


def submit(led, txns):
    """True or False for an approved or rejected group, None for one that raised."""
    try:
        return led.submit_group(txns).approved
    except RuntimeError:
        return None


senders = st.sampled_from(SENDERS)
notes = st.sampled_from([b"", b"", b"n1", b"n2"])
payments = st.builds(
    lambda s, r, amount, note: Payment(sender=s, receiver=r, amount=amount, note=note),
    senders, senders, st.sampled_from([0, 1, 10**12]), notes,
)
calls = st.builds(
    lambda s, args, note: AppCall(sender=s, app_id=APP, args=args, note=note),
    senders, st.sampled_from([(), (), (b"fail",), (b"boom",)]), notes,
)
steps = st.lists(
    st.one_of(
        st.lists(st.one_of(payments, calls), min_size=1, max_size=5).map(lambda g: ("submit", g)),
        st.integers(0, 5).map(lambda dt: ("tick", dt)),
        st.just(("read", None)),
    ),
    max_size=25,
)


def reads(led) -> tuple:
    """What a ledger's readers of folded values return."""
    return (
        {sender: led.fees_paid(sender) for sender in SENDERS},
        led.total_fees_burned(),
        {sender: list(led.noted_by(sender)) for sender in SENDERS},
        led.observable_state(),
    )


@pytest.mark.parametrize("cls", [Ledger, CloneLedger])
@settings(max_examples=150, deadline=None)
@given(steps=steps)
def test_log_reads_as_the_groups_committed(cls, steps):
    often, once = make_ledger(cls), make_ledger(cls)  # `once` is read only at the end
    held = often.applied_log
    expected = []
    fees = {sender: 0 for sender in SENDERS}
    fees["a0"] = FLAT_FEE  # for creating the app
    for kind, arg in steps:
        if kind == "tick":
            for led in (often, once):
                led.advance_time(led.now + arg)
        elif kind == "read":
            assert often.applied_log is held
            assert held == expected
        else:
            (outcome,) = {submit(led, arg) for led in (often, once)}
            if outcome:
                expected += [LogEntry(len(expected) + i, often.now, txn) for i, txn in enumerate(arg)]
                for txn in arg:
                    fees[txn.sender] += txn.fee
        for sender in SENDERS:
            assert often.noted_by(sender) == [e for e in expected if e.txn.sender == sender and e.txn.note]
        paid, burned, _, state = reads(often)
        assert (paid, burned) == (fees, sum(fees.values()))
        assert state["fees"] == tuple(sorted((sender, fee) for sender, fee in fees.items() if fee))
    for led in (often, once):
        assert led.applied_log == expected
        assert led.observable_state()["log_len"] == len(expected)
        for sender in SENDERS:
            assert led.noted_by(sender) == [e for e in expected if e.txn.sender == sender and e.txn.note]
    assert reads(often) == reads(once)
    assert often.applied_log is held


def test_cost_rows_read_after_every_step_equal_the_rows_read_at_the_end():
    path = Path(__file__).resolve().parents[1] / "scenarios" / "lifecycle.bsim"
    steps = parse_scenario(path.read_text())
    often, once = ScenarioRunner(path.parent), ScenarioRunner(path.parent)
    held = often.ledger.cost.rows
    for step in steps:
        assert often.run([step]).exit_code == 0
        assert often.ledger.cost.rows is held
    assert once.run(steps).exit_code == 0
    assert [astuple(row) for row in held] == [astuple(row) for row in once.ledger.cost.rows]
    assert len(held) > 20


def folded(led, accounts, rows_first) -> tuple:
    """Fee totals, noted-entry counts and the row count, the rows read first or last."""
    rows = len(led.cost.rows) if rows_first else None
    fees = {a: led.fees_paid(a) for a in accounts}
    noted = {a: len(led.noted_by(a)) for a in accounts}
    return fees, noted, rows if rows_first else len(led.cost.rows)


def test_racing_readers_count_each_fee_and_cost_row_once():
    """Between writes, more reader threads than cores race on `fees_paid`,
    `noted_by` and `cost.rows`; each reads what a twin ledger read by one
    thread reads, so no fee, noted entry or row is counted twice."""
    envs = (BondEnv(), BondEnv())  # the first is raced on, its twin read alone
    for env in envs:
        env.deploy()
        env.ledger.fund_algos(env.issuer, 10**10)
        env.ledger.advance_time(100)
    led, twin = envs[0].ledger, envs[1].ledger
    readers, reads_each = (os.cpu_count() or 1) + 2, 10
    seen = []
    lock = threading.Lock()

    def reader(start, accounts, rows_first):
        start.wait(timeout=30)
        for _ in range(reads_each):
            got = folded(led, accounts, rows_first)
            with lock:
                seen.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(10):
            for env in envs:
                inv = env.investor(f"inv{round_}")
                assert gb.submit_buy(env.ledger, env.dep, inv, UNIT).approved
                assert gb.submit_buy(env.ledger, env.dep, inv, 1000 * UNIT).rejected
                for i in range(500):  # enough commits for the readers' folds to overlap
                    assert gb.submit_report_anchor(env.ledger, env.dep, env.issuer, "%064x" % (round_ * 500 + i)).approved
            accounts = twin.accounts()
            expected = folded(twin, accounts, False)
            start = threading.Barrier(readers)  # all readers meet the new commits at once
            threads = [threading.Thread(target=reader, args=(start, accounts, i % 2)) for i in range(readers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(seen) == readers * reads_each
            assert sum(got != expected for got in seen) == 0
            seen.clear()
    finally:
        sys.setswitchinterval(interval)
    assert [astuple(row) for row in led.cost.rows] == [astuple(row) for row in twin.cost.rows]


def test_clock_beyond_64_bits_is_logged():
    """The clock is an unbounded integer, and so is the time column."""
    led = make_ledger(Ledger)
    led.advance_time(2**70)
    txn = Payment(sender="a0", receiver="a1", amount=1, note=b"n1")
    assert led.submit_group([txn]).approved
    assert led.applied_log == led.noted_by("a0") == [LogEntry(0, 2**70, txn)]


# ---------------------------------------------------------------------------
# what a committed group leaves behind


def coupon_ready(investors=3):
    """A bond whose investors hold 10 bonds each and may claim their first coupon."""
    env = BondEnv()
    dep = env.deploy()
    holders = [env.investor() for _ in range(investors)]
    led = env.ledger
    led.advance_time(100)
    for inv in holders:
        assert gb.submit_buy(led, dep, inv, 10 * UNIT).approved
    assert gb.submit_fund_escrow(led, dep, env.issuer, 10_000 * USD).approved
    led.advance_time(300)
    return env, dep, holders


def live_log_entries() -> int:
    gc.collect()
    return sum(isinstance(o, LogEntry) for o in gc.get_objects())


def test_only_noted_transactions_keep_a_log_entry_until_the_log_is_read():
    before = live_log_entries()
    env, dep, holders = coupon_ready()
    led = env.ledger
    for cid in ("%064x" % 1, "%064x" % 2):
        assert gb.submit_report_anchor(led, dep, env.issuer, cid).approved
    for now in (300, 400):
        led.advance_time(now)
        for inv in holders:
            assert gb.submit_coupon(led, dep, inv).approved
    for inv in holders:
        assert gb.submit_principal(led, dep, inv).approved
    noted = sum(len(led.noted_by(addr)) for addr in led.accounts())
    assert noted == 2
    assert live_log_entries() - before == noted
    log = led.applied_log
    assert len(log) == led.observable_state()["log_len"] > 40
    assert live_log_entries() - before == noted + len(log)


def test_groups_of_one_deployment_share_their_reference_tuples():
    env, dep, (a, b) = coupon_ready(investors=2)
    led = env.ledger
    builders = (gb.build_coupon_group, gb.build_principal_group, gb.build_default_group)
    groups = [build(led, dep, inv) for build in builders for inv in (a, b)]
    for leg in (0, 1):  # the main-app call, then the manage-app call
        first = groups[0].txns[leg]
        for group in groups[1:]:
            assert group.txns[leg].accounts is first.accounts
            assert group.txns[leg].apps is first.apps
    assert groups[0].txns[0].accounts == (dep.bond_escrow,)
    assert groups[0].txns[1].accounts == (dep.stablecoin_escrow, dep.bond_escrow)


@pytest.mark.skipif(platform.python_implementation() != "CPython", reason="counts CPython's collector")
def test_a_coupon_claim_leaves_at_most_five_objects_for_the_collector():
    env, dep, holders = coupon_ready()
    led = env.ledger
    gc.collect()
    gc.disable()
    try:
        # the first claim refills the free lists that a full collection empties
        assert gb.submit_coupon(led, dep, holders[0]).approved
        start = gc.get_count()[0]
        assert gb.submit_coupon(led, dep, holders[1]).approved
        grown = gc.get_count()[0] - start
    finally:
        gc.enable()
    # the claim's four transactions, kept in the log, and its cost entry, which
    # its cost row is made from on read
    assert grown <= 5
