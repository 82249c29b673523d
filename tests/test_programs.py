import pytest

from bondsim.ledger import BASE_MIN_BALANCE, AppCall, Ledger, Payment, TransactionGroup
from bondsim.programs import (
    LogicSig,
    OnComplete,
    StatefulProgram,
    StateSchema,
    StatelessProgram,
    eval_logic_signature,
)


def funded(ledger, amount=5_000_000, label=None):
    addr = ledger.create_account(label)
    ledger.fund_algos(addr, amount)
    return addr


# ---------------------------------------------------------------------------
# stateless programs


def test_contract_address_deterministic():
    a = StatelessProgram("escrow", (1, "x"), lambda g, i, n: True)
    b = StatelessProgram("escrow", (1, "x"), lambda g, i, n: False)
    c = StatelessProgram("escrow", (2, "x"), lambda g, i, n: True)
    assert a.address == b.address
    assert a.address != c.address


def test_logic_signature_sender_binding():
    program = StatelessProgram("open", (), lambda g, i, n: True)
    group = TransactionGroup((Payment(sender="alice", receiver="bob", amount=1),))
    # contract-account form: only the derived address may be the sender
    assert not eval_logic_signature(LogicSig(program), group, 0, 0)
    addr = program.address
    group2 = TransactionGroup((Payment(sender=addr, receiver="bob", amount=1),))
    assert eval_logic_signature(LogicSig(program), group2, 0, 0)
    # delegated form binds to the delegator
    assert eval_logic_signature(LogicSig(program, delegator="alice"), group, 0, 0)
    assert not eval_logic_signature(LogicSig(program, delegator="carol"), group, 0, 0)


def test_logic_signature_sees_submission_time():
    expiring = StatelessProgram("expiring", (50,), lambda g, i, now: now < 50)
    addr = expiring.address
    group = TransactionGroup((Payment(sender=addr, receiver="bob", amount=1),))
    assert eval_logic_signature(LogicSig(expiring), group, 0, 49)
    assert not eval_logic_signature(LogicSig(expiring), group, 0, 50)


def test_predicate_can_require_grouped_app_call():
    def needs_app_call(group, idx, now):
        return any(isinstance(t, AppCall) and t.app_id == 1000 for t in group.txns)

    program = StatelessProgram("linked", (1000,), needs_app_call)
    addr = program.address
    lone = TransactionGroup((Payment(sender=addr, receiver="bob", amount=1),))
    assert not eval_logic_signature(LogicSig(program), lone, 0, 0)
    paired = TransactionGroup(
        (
            AppCall(sender="bob", app_id=1000),
            Payment(sender=addr, receiver="bob", amount=1),
        )
    )
    assert eval_logic_signature(LogicSig(program), paired, 1, 0)


# ---------------------------------------------------------------------------
# stateful programs


def counter_program(local_limit=16, global_limit=64):
    """Toy app: global counter, per-account tally, creator-gated update that
    the app refuses for good once an update with `finalize` writes `final`."""

    def approval(ctx):
        oc = ctx.on_complete
        if oc is OnComplete.OPT_IN:
            ctx.local_put(ctx.sender, b"tally", 0)
            return
        if oc in (OnComplete.UPDATE_APPLICATION, OnComplete.DELETE_APPLICATION):
            if ctx.config("final") is not None:
                ctx.deny("finalized")
            if ctx.sender != ctx.creator:
                ctx.deny("not_creator")
            if ctx.args and ctx.args[0] == b"finalize":
                ctx.config_put("final", 1)
            return
        if oc in (OnComplete.CLOSE_OUT, OnComplete.CLEAR_STATE):
            return
        action = ctx.arg(0)
        if action == b"bump":
            ctx.global_put(b"count", ctx.global_uint(b"count") + 1)
            ctx.local_put(ctx.sender, b"tally", ctx.local_uint(ctx.sender, b"tally") + 1)
        elif action == b"spray":
            for i in range(ctx.int_arg(1)):
                ctx.global_put(b"k%d" % i, i)
        elif action == b"spray_local":
            for i in range(ctx.int_arg(1)):
                ctx.local_put(ctx.sender, b"k%d" % i, i)
        elif action == b"peek":
            ctx.local_uint(ctx.accounts[0] if ctx.accounts else "stranger", b"tally")
        elif action == b"fail":
            ctx.deny("asked_to")
        else:
            ctx.deny("unknown_action")

    def clear_state(ctx):
        ctx.deny("clear_always_denies")

    return StatefulProgram(
        name="counter",
        schema=StateSchema(global_uints=global_limit, local_uints=local_limit),
        approval=approval,
        clear_state=clear_state,
    )


@pytest.fixture
def env():
    ledger = Ledger()
    creator = funded(ledger, 10_000_000, "creator")
    app_id = ledger.register_app(counter_program(), creator)
    user = funded(ledger, 10_000_000, "user")
    return ledger, creator, app_id, user


def call(app_id, sender, *args, oc=OnComplete.NO_OP, accounts=()):
    return AppCall(sender=sender, app_id=app_id, on_complete=oc, args=args, accounts=accounts)


def test_register_app_charges_schedule(env):
    ledger, creator, app_id, user = env
    # schema-derived entry: base + per-uint terms
    expected = 100_000 + 28_500 * 64
    assert ledger.min_balance(creator) == BASE_MIN_BALANCE + expected
    zero_schema = StatefulProgram("empty", StateSchema(), approval=lambda ctx: None)
    before = ledger.min_balance(creator)
    ledger.register_app(zero_schema, creator)
    assert ledger.min_balance(creator) - before == 100_000


def test_opt_in_initializes_local_state(env):
    ledger, creator, app_id, user = env
    assert ledger.submit_group([call(app_id, user, oc=OnComplete.OPT_IN)]).approved
    assert ledger.app_local(user, app_id, b"tally") == 0
    result = ledger.submit_group([call(app_id, user, oc=OnComplete.OPT_IN)])
    assert result.rejected and result.rejection.code == "already_opted_in"


def test_app_writes_commit_on_approval(env):
    ledger, creator, app_id, user = env
    assert ledger.submit_group([call(app_id, user, oc=OnComplete.OPT_IN)]).approved
    assert ledger.submit_group([call(app_id, user, b"bump")]).approved
    assert ledger.app_global(app_id, b"count") == 1
    assert ledger.app_local(user, app_id, b"tally") == 1


def test_denied_call_discards_earlier_writes_in_group(env):
    ledger, creator, app_id, user = env
    assert ledger.submit_group([call(app_id, user, oc=OnComplete.OPT_IN)]).approved
    result = ledger.submit_group(
        [call(app_id, user, b"bump"), call(app_id, user, b"fail")]
    )
    assert result.rejected
    assert result.rejection.detail["code"] == "asked_to"
    assert ledger.app_global(app_id, b"count") is None
    assert ledger.app_local(user, app_id, b"tally") == 0


def test_unknown_action_denies(env):
    ledger, creator, app_id, user = env
    result = ledger.submit_group([call(app_id, user, b"nonsense")])
    assert result.rejected and result.rejection.detail["code"] == "unknown_action"


def test_global_schema_bound(env):
    ledger, creator, app_id, user = env
    assert ledger.submit_group([call(app_id, user, b"spray", b"64")]).approved
    result = ledger.submit_group([call(app_id, user, b"spray", b"65")])
    assert result.rejected and result.rejection.detail["code"] == "global_schema_exceeded"


def test_local_schema_bound():
    ledger = Ledger()
    creator = funded(ledger, 10_000_000)
    app_id = ledger.register_app(counter_program(local_limit=4), creator)
    user = funded(ledger, 10_000_000)
    assert ledger.submit_group([call(app_id, user, oc=OnComplete.OPT_IN)]).approved
    assert ledger.submit_group([call(app_id, user, b"spray_local", b"3")]).approved
    result = ledger.submit_group([call(app_id, user, b"spray_local", b"4")])
    assert result.rejected and result.rejection.detail["code"] == "local_schema_exceeded"


def test_local_reads_require_reference(env):
    ledger, creator, app_id, user = env
    stranger = funded(ledger, 1_000_000, "stranger")
    result = ledger.submit_group([call(app_id, user, b"peek")])
    assert result.rejected and result.rejection.detail["code"] == "account_not_referenced"
    assert ledger.submit_group([call(app_id, user, b"peek", accounts=(stranger,))]).approved


def test_close_out_releases_local_state(env):
    ledger, creator, app_id, user = env
    assert ledger.submit_group([call(app_id, user, oc=OnComplete.OPT_IN)]).approved
    base = ledger.min_balance(user)
    assert ledger.submit_group([call(app_id, user, oc=OnComplete.CLOSE_OUT)]).approved
    assert not ledger.is_opted_in(user, app_id)
    assert ledger.min_balance(user) < base


def test_clear_state_removes_local_even_when_denied(env):
    ledger, creator, app_id, user = env
    assert ledger.submit_group([call(app_id, user, oc=OnComplete.OPT_IN)]).approved
    # the clear handler always denies, but clearing still succeeds
    assert ledger.submit_group([call(app_id, user, oc=OnComplete.CLEAR_STATE)]).approved
    assert not ledger.is_opted_in(user, app_id)


def test_update_gating_and_finalization(env):
    ledger, creator, app_id, user = env
    not_creator = ledger.submit_group([call(app_id, user, oc=OnComplete.UPDATE_APPLICATION)])
    assert not_creator.rejected and not_creator.rejection.detail["code"] == "not_creator"
    assert ledger.submit_group([call(app_id, creator, oc=OnComplete.UPDATE_APPLICATION)]).approved
    assert ledger.submit_group(
        [call(app_id, creator, b"finalize", oc=OnComplete.UPDATE_APPLICATION)]
    ).approved
    assert ledger.app_config(app_id, "final") == 1
    result = ledger.submit_group([call(app_id, creator, oc=OnComplete.UPDATE_APPLICATION)])
    assert result.rejected and result.rejection.detail["code"] == "finalized"
    result = ledger.submit_group([call(app_id, creator, oc=OnComplete.DELETE_APPLICATION)])
    assert result.rejected and result.rejection.detail["code"] == "finalized"


def test_delete_releases_creator_min_balance(env):
    ledger, creator, app_id, user = env
    before = ledger.min_balance(creator)
    assert ledger.submit_group([call(app_id, creator, oc=OnComplete.DELETE_APPLICATION)]).approved
    assert ledger.min_balance(creator) < before
    result = ledger.submit_group([call(app_id, user, b"bump")])
    assert result.rejected and result.rejection.code == "unknown_app"
