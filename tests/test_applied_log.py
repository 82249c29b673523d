"""The applied log is kept as the committed transactions and their commit
times; `applied_log` makes its `LogEntry` records on read.

The first test holds it to the log as it reads from the groups submitted:
every approved group's transactions, in order, each with the clock at its
commit, whether the log is read between commits or only at the end.  The
rest check what a committed group leaves for the cyclic garbage collector:
no `LogEntry` but for a transaction with a note, one set of reference tuples
per deployment, and at most five new objects for a coupon claim.
"""
import gc
import platform

import pytest
from hypothesis import given, settings, strategies as st

from bondsim import greenbond as gb
from bondsim.ledger import AppCall, Ledger, LogEntry, Payment
from bondsim.programs import StatefulProgram, StateSchema

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


@pytest.mark.parametrize("cls", [Ledger, CloneLedger])
@settings(max_examples=150, deadline=None)
@given(steps=steps)
def test_log_reads_as_the_groups_committed(cls, steps):
    often, once = make_ledger(cls), make_ledger(cls)  # `once` is read only at the end
    held = often.applied_log
    expected = []
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
        for sender in SENDERS:
            assert often.noted_by(sender) == [e for e in expected if e.txn.sender == sender and e.txn.note]
    for led in (often, once):
        assert led.applied_log == expected
        assert led.observable_state()["log_len"] == len(expected)
        for sender in SENDERS:
            assert led.noted_by(sender) == [e for e in expected if e.txn.sender == sender and e.txn.note]
    assert often.applied_log is held


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
    # the claim's four transactions, kept in the log, and its cost row
    assert grown <= 5
