"""A handler reads and writes the live state through its `CallContext`, each
write saved in the group's rollback record.  These tests pin what that must
keep from the buffered context it replaced (kept in `clone_ledger` as the
reference): a call and the later legs of its group see its writes, a
rejected group leaves no trace, a clear-state call keeps its writes only if
its handler approves, and a bad write is reported once the handler returns,
with the same code and detail, after any denial and with a global overflow
before a bad local write."""
import pytest

from bondsim.ledger import BASE_MIN_BALANCE, AppCall, Ledger, Payment, Rejection
from bondsim.programs import OnComplete, StatefulProgram, StateSchema

from clone_ledger import CloneLedger

APP = 1000  # the id a fresh ledger hands out first
OPT_IN_ENTRY = 100_000 + 2 * 28_500  # app base plus two local uints
LEDGERS = pytest.mark.parametrize("ledger_cls", [Ledger, CloneLedger], ids=["ledger", "reference"])


def world(ledger_cls, handlers: dict, clear_state=None):
    """A toy app with room for two global and two local keys, whose approval
    runs `handlers[first argument]`; alice and bob opt in, carol does not."""

    def approval(ctx):
        if ctx.on_complete is not OnComplete.OPT_IN:
            handlers[ctx.arg(0)](ctx)

    program = StatefulProgram("toy", StateSchema(global_uints=2, local_uints=2), approval, clear_state)
    ledger = ledger_cls()
    creator = ledger.create_account("creator")
    ledger.fund_algos(creator, 10_000_000)
    assert ledger.register_app(program, creator) == APP
    for name in ("alice", "bob", "carol"):
        ledger.fund_algos(ledger.create_account(name), 10_000_000)
    for name in ("alice", "bob"):
        assert ledger.submit_group([AppCall(name, APP, OnComplete.OPT_IN)]).approved
    return ledger


def call(sender: str, action: bytes, accounts=()) -> AppCall:
    return AppCall(sender, APP, args=(action,), accounts=accounts)


# ---------------------------------------------------------------------------
# reads see writes


@LEDGERS
def test_a_call_reads_its_own_writes_and_the_next_leg_sees_them(ledger_cls):
    seen = []

    def read(ctx):
        seen.append((ctx.global_value(b"g"), ctx.local_uint("alice", b"l"), ctx.config("c"), ctx.config("final")))

    def write(ctx):
        read(ctx)
        ctx.global_put(b"g", 1)
        ctx.local_put("alice", b"l", 2)
        ctx.config_put("c", "three")
        ctx.config_put("final", True)
        read(ctx)

    ledger = world(ledger_cls, {b"write": write, b"read": read})
    assert ledger.submit_group([call("alice", b"write"), call("bob", b"read", accounts=("alice",))]).approved
    written = (1, 2, "three", True)
    assert seen == [(None, 0, None, None), written, written]
    assert (ledger.app_global(APP, b"g"), ledger.app_local("alice", APP, b"l")) == (1, 2)
    assert (ledger.app_config(APP, "c"), ledger.app_config(APP, "final")) == ("three", True)


@LEDGERS
def test_a_group_rejected_at_a_later_leg_leaves_no_trace(ledger_cls):
    def write(ctx):
        ctx.global_put(b"g", 1)
        ctx.local_put("alice", b"l", 2)
        ctx.config_put("c", 3)
        ctx.config_put("final", True)

    def deny(ctx):
        ctx.deny("later")

    ledger = world(ledger_cls, {b"write": write, b"deny": deny})
    before = ledger.observable_state()
    for last in (call("bob", b"deny"), Payment("bob", "carol", 10**12)):
        result = ledger.submit_group([call("alice", b"write"), last])
        assert result.rejected
        assert ledger.observable_state() == before
        assert ledger.app_config(APP, "final") is None


# ---------------------------------------------------------------------------
# clear-state calls


def clearing_world(ledger_cls, then):
    """alice's clear-state handler writes global, config, her own local
    state and bob's, then calls `then(ctx)`."""

    def clear_state(ctx):
        ctx.global_put(b"g", 7)
        ctx.config_put("c", 7)
        ctx.local_put("alice", b"l", 7)
        ctx.local_put("bob", b"l", 7)
        then(ctx)

    return world(ledger_cls, {b"deny": lambda ctx: ctx.deny("later")}, clear_state)


def clear() -> AppCall:
    return AppCall("alice", APP, OnComplete.CLEAR_STATE, accounts=("bob",))


def cleared(before: dict) -> dict:
    """`before` after alice's clear-state call dropped its writes: her local
    state and its minimum-balance entry gone, and her fee paid."""
    accounts = dict(before["accounts"])
    balance, holdings, _, min_extra = accounts["alice"]
    accounts["alice"] = (balance - 1_000, holdings, (), min_extra - OPT_IN_ENTRY)
    fees = dict(before["fees"])
    fees["alice"] = fees["alice"] + 1_000
    return {**before, "accounts": accounts, "fees": tuple(sorted(fees.items())), "log_len": before["log_len"] + 1}


@LEDGERS
def test_a_denied_clear_state_call_drops_its_writes_but_still_clears(ledger_cls):
    ledger = clearing_world(ledger_cls, lambda ctx: ctx.deny("keep_me"))
    before = ledger.observable_state()
    assert ledger.submit_group([clear()]).approved
    assert ledger.observable_state() == cleared(before)
    assert not ledger.is_opted_in("alice", APP)
    assert ledger.min_balance("alice") == BASE_MIN_BALANCE
    assert ledger.app_global(APP, b"g") is None and ledger.app_local("bob", APP, b"l") is None


@LEDGERS
def test_an_approved_clear_state_call_keeps_its_writes_until_its_group_is_rejected(ledger_cls):
    ledger = clearing_world(ledger_cls, lambda ctx: None)
    before = ledger.observable_state()
    assert ledger.submit_group([clear(), call("bob", b"deny")]).rejected
    assert ledger.observable_state() == before
    assert ledger.submit_group([clear()]).approved
    assert not ledger.is_opted_in("alice", APP)
    assert (ledger.app_global(APP, b"g"), ledger.app_config(APP, "c"), ledger.app_local("bob", APP, b"l")) == (7, 7, 7)


@LEDGERS
def test_a_clear_state_handler_that_raises_leaves_no_trace(ledger_cls):
    def then(ctx):
        raise RuntimeError("handler fault")

    ledger = clearing_world(ledger_cls, then)
    before = ledger.observable_state()
    for group in ([clear()], [Payment("bob", "carol", 1), clear()]):
        with pytest.raises(RuntimeError, match="handler fault"):
            ledger.submit_group(group)
        assert ledger.observable_state() == before


# ---------------------------------------------------------------------------
# bad writes


def spray(ctx, keys: int, local=None):
    for i in range(keys):
        if local is None:
            ctx.global_put(b"g%d" % i, i)
        else:
            ctx.local_put(local, b"l%d" % i, i)


def overflow_global(ctx):
    spray(ctx, 3)


def overflow_local(ctx):
    spray(ctx, 3, local="alice")


def write_unknown(ctx):
    ctx.local_put("ghost", b"l", 1)


def write_not_opted_in(ctx):
    ctx.local_put("carol", b"l", 1)


def local_then_global(ctx):
    write_not_opted_in(ctx)
    overflow_global(ctx)


def two_bad_locals(ctx):
    overflow_local(ctx)
    write_unknown(ctx)


def bad_then_deny(ctx):
    local_then_global(ctx)
    ctx.deny("denied_after", at=1)


def bad_then_good(ctx):
    write_unknown(ctx)
    ctx.global_put(b"g0", 1)


GLOBAL_OVERFLOW = Rejection("app_rejected", {"app": APP, "code": "global_schema_exceeded"})
LOCAL_OVERFLOW = Rejection("app_rejected", {"app": APP, "code": "local_schema_exceeded"})
UNKNOWN = Rejection("unknown_address", {"address": "ghost"})
NOT_OPTED_IN = Rejection("app_rejected", {"app": APP, "code": "not_opted_in", "account": "carol"})


def at(txn_index: int, rejection: Rejection) -> Rejection:
    """`rejection` as the group's leg `txn_index` earns it."""
    return Rejection(rejection.code, {"txn_index": txn_index, **rejection.detail})


@LEDGERS
@pytest.mark.parametrize(
    "handler, expected",
    [
        (overflow_global, GLOBAL_OVERFLOW),
        (overflow_local, LOCAL_OVERFLOW),
        (write_unknown, UNKNOWN),
        (write_not_opted_in, NOT_OPTED_IN),
        (local_then_global, GLOBAL_OVERFLOW),
        (two_bad_locals, LOCAL_OVERFLOW),
        (bad_then_good, UNKNOWN),
        (bad_then_deny, Rejection("app_rejected", {"app": APP, "code": "denied_after", "at": 1})),
    ],
    ids=lambda value: getattr(value, "__name__", None) or str(value),
)
def test_a_bad_write_is_reported_after_the_handler_returns(ledger_cls, handler, expected):
    ledger = world(ledger_cls, {b"go": handler, b"ok": lambda ctx: ctx.global_put(b"g0", 0)})
    before = ledger.observable_state()
    group = [call("bob", b"ok"), call("alice", b"go", accounts=("carol", "ghost"))]
    assert ledger.submit_group(group).rejection == at(1, expected)
    assert ledger.observable_state() == before


@LEDGERS
@pytest.mark.parametrize("handler, expected", [(overflow_global, GLOBAL_OVERFLOW), (write_unknown, UNKNOWN)])
def test_an_approved_clear_state_call_reports_its_bad_write(ledger_cls, handler, expected):
    ledger = world(ledger_cls, {}, handler)
    before = ledger.observable_state()
    result = ledger.submit_group([AppCall("alice", APP, OnComplete.CLEAR_STATE, accounts=("ghost",))])
    assert result.rejection == at(0, expected)
    assert ledger.observable_state() == before


# ---------------------------------------------------------------------------
# a uint in app state is a uint64


def out_of_range(value, local=False):
    def handler(ctx):
        if local:
            ctx.local_put("alice", b"l", value)
        else:
            ctx.global_put(b"g", value)

    return handler


def out_of_range_then(then):
    def handler(ctx):
        ctx.global_put(b"g", -1)
        then(ctx)

    return handler


def uint_out_of_range(local=False):
    where = {"account": "alice", "key": b"l"} if local else {"key": b"g"}
    return Rejection("app_rejected", {"app": APP, "code": "uint_out_of_range", **where})


@pytest.mark.parametrize("local", [False, True], ids=["global", "local"])
@pytest.mark.parametrize("value", [-1, 2**64, -(2**64), 2**100])
def test_a_uint_written_out_of_range_is_a_bad_write(value, local):
    ledger = world(Ledger, {b"go": out_of_range(value, local)})
    before = ledger.observable_state()
    assert ledger.submit_group([call("alice", b"go")]).rejection == at(0, uint_out_of_range(local))
    assert ledger.observable_state() == before


@pytest.mark.parametrize("local", [False, True], ids=["global", "local"])
@pytest.mark.parametrize("value", [0, 2**64 - 1, b"\xff" * 8])
def test_a_uint64_or_bytes_write_is_in_range(value, local):
    ledger = world(Ledger, {b"go": out_of_range(value, local)})
    assert ledger.submit_group([call("alice", b"go")]).approved


@pytest.mark.parametrize(
    "then, expected",
    [
        (overflow_global, GLOBAL_OVERFLOW),
        (overflow_local, LOCAL_OVERFLOW),
        (write_unknown, UNKNOWN),
        (write_not_opted_in, NOT_OPTED_IN),
        (lambda ctx: ctx.deny("denied"), Rejection("app_rejected", {"app": APP, "code": "denied"})),
        (out_of_range(2**64, local=True), uint_out_of_range()),
    ],
    ids=["global overflow", "local overflow", "unknown", "not opted in", "denial", "second out of range"],
)
def test_every_other_bad_write_comes_before_an_out_of_range_uint(then, expected):
    ledger = world(Ledger, {b"go": out_of_range_then(then)})
    before = ledger.observable_state()
    assert ledger.submit_group([call("alice", b"go", accounts=("carol", "ghost"))]).rejection == at(0, expected)
    assert ledger.observable_state() == before


@pytest.mark.parametrize("first", [write_not_opted_in, overflow_global], ids=["not opted in", "global overflow"])
def test_an_out_of_range_uint_after_a_bad_write_keeps_the_first(first):
    def handler(ctx):
        first(ctx)
        ctx.global_put(b"g0", -1)

    ledger = world(Ledger, {b"go": handler})
    expected = NOT_OPTED_IN if first is write_not_opted_in else GLOBAL_OVERFLOW
    assert ledger.submit_group([call("alice", b"go", accounts=("carol",))]).rejection == at(0, expected)
