"""Group evaluation writes the live state in place and rolls back a rejected
group.  These tests hold it to the clone-based reference in `clone_ledger`,
check that a raising handler leaves no trace, that a rollback replays the
group's journal in reverse and keeps every account and app state object,
that a group saves only the accounts it names, and that a dropped ledger is
freed without the cyclic garbage collector."""
import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from bondsim import greenbond as gb
from bondsim import ledger as ledger_module
from bondsim.greenbond import UNIT
from bondsim.ledger import FLAT_FEE, AppCall, AssetTransfer, Ledger, Payment
from bondsim.programs import OnComplete, SecretKey, StatefulProgram, StateSchema

from clone_ledger import CloneLedger
from conftest import BondEnv

ACCOUNTS = ("a0", "a1", "a2", "a3", "poor", "creator")
ASSET, FROZEN_ASSET, APP = 100, 101, 1000  # ids a fresh ledger hands out first


def probe_program():
    """Small schema (3 global, 2 local keys) so that writes overflow it.
    Anyone may delete the app, so that deletion writes an account other than
    the sender's: the creator's."""

    def approval(ctx):
        oc = ctx.on_complete
        action = ctx.args[0] if ctx.args else b""
        if action == b"fail":
            ctx.deny("asked_to")
        if action == b"boom":
            raise RuntimeError("handler fault")
        if oc is OnComplete.UPDATE_APPLICATION:
            ctx.require(ctx.sender == ctx.creator, "not_creator")
            ctx.require(not ctx.finalized, "finalized")
            ctx.config_put("version", ctx.config("version", 0) + 1)
            if action == b"finalize":
                ctx.finalize()
            return
        if oc is OnComplete.DELETE_APPLICATION:
            ctx.require(action == b"delete", "no_delete_arg")
            ctx.require(not ctx.finalized, "finalized")
            return
        if oc is OnComplete.OPT_IN:
            ctx.local_put(ctx.sender, b"n", 1)
            return
        if oc is OnComplete.CLOSE_OUT:
            ctx.global_put(b"count", ctx.global_uint(b"count") + 1)
            return
        if action == b"bump":
            ctx.global_put(b"count", ctx.global_uint(b"count") + 1)
            ctx.local_put(ctx.sender, b"tally", ctx.local_uint(ctx.sender, b"tally") + 1)
        elif action == b"gspray":
            for i in range(ctx.int_arg(1)):
                ctx.global_put(b"g%d" % i, i)
        elif action == b"lspray":
            for i in range(ctx.int_arg(1)):
                ctx.local_put(ctx.sender, b"k%d" % i, i)
        elif action == b"poke":
            ctx.local_put(ctx.accounts[0] if ctx.accounts else ctx.sender, b"p", 7)
        else:
            ctx.deny("unknown_action")

    def clear_state(ctx):
        if ctx.args and ctx.args[0] == b"fail":
            ctx.deny("clear_denied")
        ctx.global_put(b"count", ctx.global_uint(b"count") + 1)

    return StatefulProgram(
        name="probe",
        schema=StateSchema(global_uints=3, local_uints=2),
        approval=approval,
        clear_state=clear_state,
    )


def build(cls):
    led = cls()
    for name, algos in zip(ACCOUNTS, (20_000_000, 3_000_000, 400_000, 102_500, 500, 10_000_000)):
        led.create_account(name)
        led.fund_algos(name, algos)
    assert led.create_asset("a0", total=1_000, decimals=0, clawback_addr="a0") == ASSET
    assert led.create_asset("a1", total=100, decimals=0, default_frozen=True) == FROZEN_ASSET
    assert led.register_app(probe_program(), "creator") == APP
    for holder in ("a1", "a2"):
        assert led.submit_group([AssetTransfer(sender=holder, asset_id=ASSET, receiver=holder, amount=0)]).approved
    assert led.submit_group([AssetTransfer(sender="a0", asset_id=ASSET, receiver="a1", amount=300)]).approved
    assert led.submit_group([AppCall(sender="a1", app_id=APP, on_complete=OnComplete.OPT_IN)]).approved
    return led


def outcome(led, group):
    try:
        r = led.submit_group(group)
    except RuntimeError as e:
        return ("raised", str(e))
    return (r.approved, None if r.approved else (r.rejection.code, r.rejection.detail))


def submit_both(ref, led, group):
    result = outcome(led, group)
    assert result == outcome(ref, group)
    assert led.observable_state() == ref.observable_state()
    return result


# ---------------------------------------------------------------------------
# differential: in-place writes with rollback == evaluation on a copy

account = st.sampled_from(ACCOUNTS)
anyone = st.sampled_from(ACCOUNTS + ("ghost",))
common = dict(
    fee=st.sampled_from([FLAT_FEE, FLAT_FEE, FLAT_FEE, 999, 5_000]),
    signature=st.sampled_from([None, None, None, None, SecretKey("a3")]),
)
payment = st.builds(
    Payment, sender=anyone, receiver=anyone,
    amount=st.sampled_from([0, 1, 50_000, 250_000, 2_500_000, 10**12]), **common,
)
asset_move = st.builds(
    AssetTransfer, sender=account, receiver=anyone,
    asset_id=st.sampled_from([ASSET, ASSET, FROZEN_ASSET, 999]),
    amount=st.sampled_from([0, 1, 5, 400, 5_000]), **common,
)
asset_opt_in = st.builds(
    lambda a, asset: AssetTransfer(sender=a, asset_id=asset, receiver=a, amount=0),
    account, st.sampled_from([ASSET, FROZEN_ASSET]),
)
clawback = st.builds(
    AssetTransfer, sender=st.sampled_from(["a0", "a0", "a0", "a1"]), receiver=st.sampled_from(["a2", "a2", "a0"]) | anyone,
    asset_id=st.just(ASSET), amount=st.sampled_from([0, 3, 200, 5_000]), revoke_target=st.just("a1") | anyone, **common,
)
app_call = st.builds(
    AppCall, sender=account, app_id=st.sampled_from([APP, APP, APP, APP, 9_999]),
    on_complete=st.sampled_from(list(OnComplete)),
    args=st.sampled_from(
        [(), (b"bump",), (b"bump",), (b"gspray", b"2"), (b"gspray", b"4"), (b"lspray", b"1"),
         (b"lspray", b"3"), (b"poke",), (b"poke",), (b"fail",), (b"finalize",), (b"delete",), (b"boom",)]
    ),
    accounts=st.sampled_from([("a1",), ("a1",), ("a2",), ("ghost",), ()]), **common,
)
txn = st.one_of(payment, asset_move, asset_opt_in, clawback, app_call)
# each of these rejects wherever it sits in a group
sure_failure = st.sampled_from(
    [
        Payment(sender="a0", receiver="a1", amount=10**12),
        Payment(sender="a0", receiver="ghost", amount=1),
        Payment(sender="poor", receiver="a0", amount=0),  # cannot pay the fee
        Payment(sender="a0", receiver="a1", amount=0, fee=999),
        AssetTransfer(sender="a1", asset_id=ASSET, receiver="a1", amount=1, revoke_target="a0"),
        AppCall(sender="a1", app_id=APP, args=(b"fail",)),
        AppCall(sender="a1", app_id=APP, args=(b"gspray", b"4")),
        AppCall(sender="a1", app_id=APP, args=(b"lspray", b"3")),
        AppCall(sender="a1", app_id=9_999),
    ]
)


@st.composite
def group(draw):
    txns = draw(st.lists(txn, min_size=1, max_size=6))
    failure = draw(st.none() | sure_failure)
    if failure is not None:
        txns.insert(draw(st.integers(0, len(txns))), failure)
    return txns


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(group(), st.just("tick")), min_size=1, max_size=10))
def test_in_place_groups_match_clone_reference(steps):
    ref, led = build(CloneLedger), build(Ledger)
    assert led.observable_state() == ref.observable_state()
    for step in steps:
        if step == "tick":
            ref.advance_time(ref.now + 3)
            led.advance_time(led.now + 3)
        else:
            submit_both(ref, led, step)


def approved_groups():
    """Groups that are approved from the state `build` leaves and together
    write through every write site.  The last runs delete alone, so that it
    is the group's first write to the app and to the creator."""
    every_site = [
        Payment(sender="a0", receiver="a3", amount=200_000),
        AssetTransfer(sender="a0", asset_id=ASSET, receiver="a2", amount=5, revoke_target="a1"),
        AssetTransfer(sender="a1", asset_id=ASSET, receiver="a2", amount=1),
        AssetTransfer(sender="a3", asset_id=ASSET, receiver="a3", amount=0),
        AppCall(sender="a2", app_id=APP, on_complete=OnComplete.OPT_IN),
        AppCall(sender="a0", app_id=APP, on_complete=OnComplete.OPT_IN),
        AppCall(sender="a0", app_id=APP, args=(b"poke",), accounts=("a1",)),
        AppCall(sender="a0", app_id=APP, args=(b"bump",)),
        AppCall(sender="a1", app_id=APP, on_complete=OnComplete.CLOSE_OUT),
        AppCall(sender="a2", app_id=APP, on_complete=OnComplete.CLEAR_STATE),
        AppCall(sender="a0", app_id=APP, on_complete=OnComplete.CLEAR_STATE, args=(b"fail",)),
        AppCall(sender="creator", app_id=APP, on_complete=OnComplete.UPDATE_APPLICATION),
    ]
    finalize = AppCall(sender="creator", app_id=APP, on_complete=OnComplete.UPDATE_APPLICATION, args=(b"finalize",))
    delete = AppCall(sender="a3", app_id=APP, on_complete=OnComplete.DELETE_APPLICATION, args=(b"delete",))
    return [every_site + [finalize], every_site + [delete], [delete]]


@pytest.mark.parametrize(
    "failure",
    [
        AppCall(sender="a1", app_id=APP, args=(b"gspray", b"4")),  # global_schema_exceeded
        AppCall(sender="a1", app_id=APP, args=(b"lspray", b"3")),  # local_schema_exceeded
        Payment(sender="poor", receiver="a0", amount=0),  # cannot pay its fee
        Payment(sender="a0", receiver="ghost", amount=1),
        AppCall(sender="a1", app_id=APP, args=(b"boom",)),  # raises RuntimeError
    ],
    ids=["global_schema", "local_schema", "fee", "unknown_receiver", "raises"],
)
def test_failure_at_every_index_after_each_write_site(failure):
    ref, led = build(CloneLedger), build(Ledger)
    for writes in approved_groups():
        for bad in range(len(writes) + 1):
            submit_both(ref, led, writes[:bad] + [failure] + writes[bad:])
    assert led.observable_state() == build(Ledger).observable_state()
    for writes in approved_groups():
        ref, led = build(CloneLedger), build(Ledger)
        assert submit_both(ref, led, writes) == (True, None)


# ---------------------------------------------------------------------------
# rollback of a handler that raises something other than Deny


def test_raising_handler_propagates_and_leaves_no_trace():
    led = build(Ledger)
    before = led.observable_state()
    with pytest.raises(RuntimeError, match="handler fault"):
        led.submit_group(
            [
                AppCall(sender="a1", app_id=APP, args=(b"bump",)),
                AppCall(sender="a1", app_id=APP, args=(b"boom",)),
            ]
        )
    assert led.observable_state() == before
    assert led.submit_group([AppCall(sender="a1", app_id=APP, args=(b"bump",))]).approved


# ---------------------------------------------------------------------------
# a rollback replays the journal in reverse and keeps every object


def held_objects(led):
    """Every account and app state the ledger holds and every dict they own,
    in a fixed order."""
    held = []
    for _, acc in sorted(led._state.accounts.items()):
        held += [acc, acc.holdings, acc.local, *(kv for _, kv in sorted(acc.local.items()))]
    for _, app in sorted(led._state.apps.items()):
        held += [app, app.global_state, app.config]
    return held


@pytest.mark.parametrize("writes", approved_groups(), ids=["finalize", "delete", "delete_alone"])
def test_rejected_group_keeps_every_object_with_its_fields(writes):
    led = build(Ledger)
    held, state = held_objects(led), led.observable_state()
    result = led.submit_group(writes + [Payment(sender="a0", receiver="ghost", amount=1)])
    assert result.rejected and result.rejection.code == "unknown_address"
    after = held_objects(led)
    assert len(after) == len(held) and all(old is new for old, new in zip(held, after))
    assert led.observable_state() == state


def test_keys_written_twice_get_their_first_values_back():
    led = build(Ledger)
    bump = AppCall(sender="a1", app_id=APP, args=(b"bump",))
    assert led.submit_group([bump]).approved
    first = (led.app_global(APP, b"count"), led.app_local("a1", APP, b"tally"), led.asset_balance("a1", ASSET))
    assert first == (1, 1, 300)
    move = AssetTransfer(sender="a1", asset_id=ASSET, receiver="a2", amount=7)
    result = led.submit_group([bump, move, bump, move, AppCall(sender="a1", app_id=APP, args=(b"fail",))])
    assert result.rejected and result.rejection.detail["code"] == "asked_to"
    assert (led.app_global(APP, b"count"), led.app_local("a1", APP, b"tally"), led.asset_balance("a1", ASSET)) == first
    assert led.asset_balance("a2", ASSET) == 0


def test_rejected_group_gets_its_deleted_app_back():
    led = build(Ledger)
    app = led._state.apps[APP]
    creator_min = led.min_balance("creator")
    delete = AppCall(sender="a3", app_id=APP, on_complete=OnComplete.DELETE_APPLICATION, args=(b"delete",))
    result = led.submit_group([delete, Payment(sender="poor", receiver="a0", amount=0)])
    assert result.rejected and result.rejection.code == "insufficient_balance"
    assert led._state.apps[APP] is app
    assert led.min_balance("creator") == creator_min
    assert led.submit_group([AppCall(sender="a1", app_id=APP, args=(b"bump",))]).approved


def test_approved_clear_state_then_failing_leg_gets_the_local_state_back():
    led = build(Ledger)
    acc = led._state.accounts["a1"]
    local, kv = acc.local, acc.local[APP]
    before = (dict(kv), led.min_balance("a1"), led.app_global(APP, b"count"))
    clear = AppCall(sender="a1", app_id=APP, on_complete=OnComplete.CLEAR_STATE)
    result = led.submit_group([clear, AppCall(sender="a2", app_id=APP, args=(b"fail",))])
    assert result.rejected and result.rejection.detail == {"txn_index": 1, "app": APP, "code": "asked_to"}
    assert acc.local is local and acc.local == {APP: kv} and acc.local[APP] is kv
    assert (dict(kv), led.min_balance("a1"), led.app_global(APP, b"count")) == before


# ---------------------------------------------------------------------------
# cost grows with the accounts a group touches, not with the ledger


def backed_up_accounts_for_one_buy(extra_accounts, monkeypatch):
    env = BondEnv()
    for _ in range(extra_accounts):
        env.ledger.create_account()
    dep = env.deploy()
    inv = env.investor("inv")
    env.ledger.advance_time(dep.params.start_buy)
    group = gb.build_buy_group(dep, inv, UNIT)
    named = set()
    for t in group.txns:
        named.update((t.sender, getattr(t, "receiver", None), getattr(t, "revoke_target", None)))
        named.update(getattr(t, "accounts", ()))
    named.discard(None)

    records = []

    class RecordingUndo(ledger_module._Undo):
        __slots__ = ()

        def __init__(self, state):
            super().__init__(state)
            records.append(self)

    monkeypatch.setattr(ledger_module, "_Undo", RecordingUndo)
    assert env.ledger.submit_group(group).approved
    monkeypatch.undo()
    (undo,) = records
    return len(undo.accounts), len(named)


def test_buy_backs_up_only_the_accounts_it_names(monkeypatch):
    wide, named = backed_up_accounts_for_one_buy(2_000, monkeypatch)
    narrow, _ = backed_up_accounts_for_one_buy(20, monkeypatch)
    assert 0 < wide <= named
    assert wide == narrow


# ---------------------------------------------------------------------------
# a dropped ledger is freed by reference counting alone


def test_dropped_ledger_is_freed_without_cyclic_collection():
    gc.collect()
    gc.disable()
    try:
        env = BondEnv()
        dep = env.deploy()
        inv = env.investor("inv")
        late = env.new_account("late", stablecoin=10**12)
        assert gb.register_investor(env.ledger, dep, late).approved
        env.ledger.advance_time(dep.params.start_buy)
        assert gb.submit_buy(env.ledger, dep, inv, UNIT).approved
        result = gb.submit_buy(env.ledger, dep, late, UNIT)  # not approved by the regulator
        assert result.rejection.code == "app_rejected"
        ref = weakref.ref(env.ledger)
        del env, dep, result
        assert ref() is None
    finally:
        gc.enable()
