"""Each escrow signs only the legs the group shapes give it.

Both escrow logic signatures are public objects: anyone may put either of
them on any leg of any group.  An escrow signs leg i only when the group's
head is a NoOp call of the main app whose first argument names an action
whose shape has that escrow sign leg i, in a group of that shape's size.
The action's checks, which run from the head, before the leg, hold every
other pin.  The issuance setup is such an action: the main app approves its
head once, when it pulls exactly the supply from its sender.

Thefts 1, 1b and 2 below were approved while the escrows signed through
hand-written predicates: a clawback needed only some main-app call at the
head (any action, any on-completion) and a fee refund somewhere in the
group, and the setup group pulled any holder's bonds.  A headless setup
group, signed by a clause that fixed the operator and the supply, still
pulled the operator's bonds once the operator held the whole supply.
Every refused group must leave the ledger as it was.

The main app's actions are one table, `greenbond._MAIN_ACTIONS`, which the
escrows' signing rule is read from.  The last tests check that it holds every
action, and audit it: each field that moves value on a leg an escrow signs
is pinned by a check that runs whenever the escrow signs, or is excused in
`UNPINNED` with its reason.
"""
import ast
import dataclasses
import itertools

import pytest

from bondsim import greenbond as gb
from bondsim.ledger import APPROVED, AppCall, AssetTransfer, Payment, TransactionGroup
from bondsim.programs import OnComplete, StatefulProgram, StateSchema, eval_logic_signature

UNIT = gb.UNIT
USD = UNIT
MAIN_ACTIONS = (
    gb.ACT_SETUP, gb.ACT_FREEZE_ALL, gb.ACT_FREEZE, gb.ACT_BUY, gb.ACT_SET_TRADE, gb.ACT_TRADE, gb.ACT_COUPON,
    gb.ACT_SELL, gb.ACT_DEFAULT,
)
# (action, leg) -> the size of the action's group, for the legs each escrow signs
SIGNED = {
    "bond": {
        (gb.ACT_SETUP, 1): 3, (gb.ACT_SETUP, 2): 3,
        (gb.ACT_BUY, 2): 4, (gb.ACT_TRADE, 2): 4, (gb.ACT_SELL, 2): 6, (gb.ACT_DEFAULT, 2): 6,
    },
    "stablecoin": {(gb.ACT_COUPON, 3): 4, (gb.ACT_SELL, 3): 6, (gb.ACT_DEFAULT, 3): 6},
}
SIGNED_LEGS = [(escrow, action, leg) for escrow, legs in SIGNED.items() for action, leg in legs]
LEAVING = (
    OnComplete.OPT_IN, OnComplete.CLOSE_OUT, OnComplete.CLEAR_STATE, OnComplete.UPDATE_APPLICATION,
    OnComplete.DELETE_APPLICATION,
)


def lsig(dep, escrow):
    return dep.bond_escrow_lsig if escrow == "bond" else dep.stablecoin_escrow_lsig


def bonds(env, addr):
    return env.ledger.asset_balance(addr, env.dep.bond_asset_id)


def clawback(dep, source, receiver, amount):
    """A bond movement signed by the bond escrow's logic signature."""
    return AssetTransfer(
        dep.bond_escrow, dep.bond_asset_id, receiver, amount, revoke_target=source, signature=dep.bond_escrow_lsig
    )


def refused(env, txns, index=None):
    """Submit `txns`; it must be rejected, at `index` by an escrow's logic
    when given, and leave the ledger as it was."""
    led = env.ledger
    before = led.observable_state()
    result = led.submit_group(txns)
    assert result.rejected
    if index is not None:
        assert (result.rejection.code, result.rejection.detail["txn_index"]) == ("logic_rejected", index)
    assert led.observable_state() == before
    return result


def victim_and_thief(env, total_bonds=100, victim_bonds=10):
    """An approved thief holding nothing, and a victim holding bonds."""
    dep = env.deploy(total_bonds=total_bonds)
    victim, thief = env.investor("victim"), env.investor("thief")
    env.ledger.advance_time(100)
    assert gb.submit_buy(env.ledger, dep, victim, victim_bonds * UNIT).approved
    return dep, victim, thief


# ---------------------------------------------------------------------------
# the thefts


@pytest.mark.parametrize("head", ["set_trade", "close_out"])
def test_theft_1_clawback_rides_on_another_main_app_call(env, head):
    """Theft 1 (a `set_trade` head) and 1b (a close-out head, which the main
    app approves without looking at the group)."""
    dep, victim, thief = victim_and_thief(env)
    if head == "set_trade":
        call = AppCall(thief, dep.main_app_id, args=(gb.ACT_SET_TRADE, b"0"))
    else:
        call = AppCall(thief, dep.main_app_id, OnComplete.CLOSE_OUT)
    refund = Payment(thief, dep.bond_escrow, 1_000)

    refused(env, [call, refund, clawback(dep, victim, thief, 10 * UNIT)], index=2)

    assert (bonds(env, victim), bonds(env, thief)) == (10 * UNIT, 0)


def replayed_setup(env, dep, source, amount):
    """The issuance setup's two legs, pulling `amount` from `source`, once a
    thief has paid the bond escrow the seed and both fees."""
    thief = env.new_account()
    assert env.ledger.submit_group([Payment(thief, dep.bond_escrow, gb.ESCROW_SEED + 2 * gb.FLAT_FEE)]).approved
    seed = Payment(dep.bond_escrow, dep.stablecoin_escrow, gb.ESCROW_SEED, signature=dep.bond_escrow_lsig)
    return [clawback(dep, source, dep.bond_escrow, amount), seed]


def test_theft_2_replayed_setup_pulls_a_victims_bonds(env):
    dep, victim, _ = victim_and_thief(env)

    refused(env, replayed_setup(env, dep, victim, 10 * UNIT), index=0)

    assert bonds(env, victim) == 10 * UNIT


def test_replayed_setup_cannot_pull_the_whole_supply_from_another_holder(env):
    dep, victim, _ = victim_and_thief(env, total_bonds=10, victim_bonds=10)
    assert bonds(env, victim) == dep.params.supply_base_units

    refused(env, replayed_setup(env, dep, victim, dep.params.supply_base_units), index=0)


def operator_buys(env, total_bonds):
    """A deployment whose operator, approved as an investor, buys 10 bonds."""
    dep = env.deploy(total_bonds=total_bonds)
    led, operator = env.ledger, env.operator
    led.dispense_asset(env.stablecoin, env.bank, operator, 10**12)
    assert led.submit_group([AppCall(operator, dep.main_app_id, OnComplete.OPT_IN)]).approved
    assert gb.submit_freeze_account(led, dep, env.regulator, operator, 1).approved
    led.advance_time(100)
    assert gb.submit_buy(led, dep, operator, 10 * UNIT).approved
    return dep


def test_replayed_setup_cannot_pull_part_of_the_supply_from_the_operator(env):
    dep = operator_buys(env, total_bonds=100)

    refused(env, replayed_setup(env, dep, env.operator, 10 * UNIT), index=0)

    assert bonds(env, env.operator) == 10 * UNIT


def refused_by_the_main_app(env, txns, code):
    result = refused(env, txns)
    assert (result.reason(), result.rejection.detail["txn_index"]) == (f"app_rejected:{code}", 0)
    return result


def test_the_setup_group_replayed_after_issuance_is_refused(env):
    dep = env.deploy()
    setup = gb._SETUP.build(dep, env.operator, supply=dep.params.supply_base_units, seed=gb.ESCROW_SEED)
    for leg in (1, 2):
        assert eval_logic_signature(dep.bond_escrow_lsig, setup, leg, env.ledger.now)

    refused_by_the_main_app(env, setup, "already_set_up")


def test_a_replayed_setup_cannot_take_back_the_whole_supply_from_the_operator(env):
    """The operator buys back all 10 bonds of an issue and a stranger funds the
    bond escrow's seed and fees: the headless two-leg setup pulled them back
    into the escrow before setup was an action of the main app."""
    dep = operator_buys(env, total_bonds=10)
    headless = replayed_setup(env, dep, env.operator, dep.params.supply_base_units)
    head = AppCall(env.new_account("stranger"), dep.main_app_id, args=(gb.ACT_SETUP,))

    refused_by_the_main_app(env, [head, *headless], "already_set_up")
    refused(env, headless, index=0)

    assert bonds(env, env.operator) == dep.params.supply_base_units


def before_setup(env):
    """A deployment whose issuance stopped just before its setup group, and
    that group, as `issue` builds it."""
    held = []
    submit = gb._submit

    def hold_setup(ledger, dep, shape, group):
        if shape is gb._SETUP:
            held.append(group)
            return APPROVED
        return submit(ledger, dep, shape, group)

    gb._submit = hold_setup
    try:
        dep = env.deploy(approve=False)
    finally:
        gb._submit = submit
    (setup,) = held
    return dep, setup


@pytest.mark.parametrize(
    "leg, field, value",
    [
        (1, "amount", "supply - 1"),
        (1, "revoke_target", "stranger"),
        (1, "receiver", "stablecoin escrow"),
        (2, "amount", "seed + 1"),
        (2, "receiver", "stranger"),
    ],
)
def test_the_setup_call_pulls_exactly_the_supply_from_its_sender(env, leg, field, value):
    dep, setup = before_setup(env)
    stranger = env.new_account("stranger")
    values = {
        "supply - 1": dep.params.supply_base_units - 1,
        "stranger": stranger,
        "stablecoin escrow": dep.stablecoin_escrow,
        "seed + 1": gb.ESCROW_SEED + 1,
    }
    txns = list(setup.txns)
    txns[leg] = dataclasses.replace(txns[leg], **{field: values[value]})

    result = refused_by_the_main_app(env, txns, "bad_group")

    assert (result.rejection.detail["leg"], result.rejection.detail["field"]) == (leg, field)
    assert env.ledger.submit_group(setup).approved
    assert bonds(env, dep.bond_escrow) == dep.params.supply_base_units


# ---------------------------------------------------------------------------
# the rule, leg by leg


@pytest.mark.parametrize("escrow", SIGNED)
def test_an_escrow_signs_exactly_the_legs_of_the_shapes(env, escrow):
    """The escrow's own program, whatever the other legs would catch first:
    every action, leg and group size under a NoOp head of the main app, and
    the same legs under any other head."""
    dep = env.deploy()
    sig = lsig(dep, escrow)
    leg = Payment(sig.program.address, "anyone", 0, signature=sig)
    for action, size in itertools.product((*MAIN_ACTIONS, gb.ACT_RATE, b"x", None), range(2, 9)):
        head = AppCall("anyone", dep.main_app_id, args=() if action is None else (action,))
        heads = {
            "NoOp": head,
            "NoOp with a value": dataclasses.replace(head, args=(*head.args, b"1")),
            **{oc.value: dataclasses.replace(head, on_complete=oc) for oc in LEAVING},
            "manage app": dataclasses.replace(head, app_id=dep.manage_app_id),
            "another app": dataclasses.replace(head, app_id=dep.main_app_id + 100),
            "payment": Payment("anyone", "anyone", 0),
        }
        for index, (name, other) in itertools.product(range(1, size), heads.items()):
            txns = [other, *[Payment("anyone", "anyone", 0)] * (size - 1)]
            txns[index] = leg
            expected = name.startswith("NoOp") and SIGNED[escrow].get((action, index)) == size
            assert eval_logic_signature(sig, TransactionGroup(tuple(txns)), index, 0) == expected, (action, index, name)


def due(env, action):
    """A deployment, and the honest group of `action` at a time it is approved:
    the issuance sets up, or a holder of 10 bonds (of 15 sold) buys, sells them
    all through an offer, or claims with 10,000 USD in the escrow (300 USD,
    short of the first coupon round, for a default)."""
    if action == gb.ACT_SETUP:
        return before_setup(env)
    dep = env.deploy()  # 100 USD per bond per round, 2 rounds, maturity 400
    led = env.ledger
    holder, other = env.investor("holder"), env.investor("other")
    led.advance_time(100)
    if action == gb.ACT_BUY:
        return dep, gb.build_buy_group(dep, holder, 10 * UNIT)
    assert gb.submit_buy(led, dep, holder, 10 * UNIT).approved
    assert gb.submit_buy(led, dep, other, 5 * UNIT).approved
    if action == gb.ACT_TRADE:
        assert gb.submit_set_trade(led, dep, holder, 10 * UNIT).approved
        return dep, gb.build_trade_group(dep, gb.make_trade_offer(dep, holder, 90 * USD, 300), other, 10 * UNIT)
    funding = 300 * USD if action == gb.ACT_DEFAULT else 10_000 * USD
    assert gb.submit_fund_escrow(led, dep, env.issuer, funding).approved
    led.advance_time(300)
    if action == gb.ACT_COUPON:
        return dep, gb.build_coupon_group(led, dep, holder)
    if action == gb.ACT_DEFAULT:
        return dep, gb.build_default_group(led, dep, holder)
    led.advance_time(400)
    for _ in range(2):
        assert gb.submit_coupon(led, dep, holder).approved
    return dep, gb.build_principal_group(led, dep, holder)


def open_app(env, creator):
    """An app whose every call is approved, as anyone may deploy one."""
    program = StatefulProgram("open", StateSchema(), approval=lambda ctx: None)
    return env.ledger.register_app(program, creator)


def placements(env, dep, txns, leg, escrow):
    """The honest group with its escrow leg `leg` where its shape does not put
    it: name -> (the group, the leg's index in it, whether the escrow's own
    program signs it there)."""
    head, rest = txns[0], txns[1:]
    filler = Payment(head.sender, head.sender, 0)
    placed = {}
    for action in MAIN_ACTIONS:
        if action != head.args[0]:
            # where another action's shape has the escrow sign this leg in a
            # group of this size, that action's own checks refuse the group
            signs = SIGNED[escrow].get((action, leg)) == len(txns)
            placed[f"{action.decode()} head"] = ([dataclasses.replace(head, args=(action, b"1")), *rest], leg, signs)
    for oc in LEAVING:
        placed[f"{oc.value} head"] = ([dataclasses.replace(head, on_complete=oc), *rest], leg, False)
    placed["manage-app head"] = ([dataclasses.replace(head, app_id=dep.manage_app_id), *rest], leg, False)
    placed["own-app head"] = ([dataclasses.replace(head, app_id=open_app(env, head.sender)), *rest], leg, False)
    placed["payment head"] = ([filler, *rest], leg, False)
    placed["one leg longer"] = ([*txns, filler], leg, False)
    if leg + 1 < len(txns):
        placed["one leg shorter"] = (txns[:-1], leg, False)
    else:
        placed["one leg shorter"] = (txns[: leg - 1] + txns[leg:], leg - 1, False)
    swapped = list(txns)
    swapped[leg - 1], swapped[leg] = txns[leg], txns[leg - 1]
    # the setup's escrow signs both its legs; its main-app check refuses them swapped
    placed["at another index"] = (swapped, leg - 1, SIGNED[escrow].get((head.args[0], leg - 1)) == len(txns))
    return placed


@pytest.mark.parametrize("escrow, action, leg", SIGNED_LEGS, ids=lambda v: v.decode() if isinstance(v, bytes) else v)
def test_escrow_leg_is_signed_only_where_its_shape_puts_it(env, escrow, action, leg):
    dep, group = due(env, action)
    txns = list(group.txns)
    sig = lsig(dep, escrow)
    assert txns[leg].signature == sig
    now = env.ledger.now

    for name, (placed, index, signs) in placements(env, dep, txns, leg, escrow).items():
        assert eval_logic_signature(sig, TransactionGroup(tuple(placed)), index, now) == signs, name
        refused(env, placed)

    assert env.ledger.submit_group(txns).approved


@pytest.mark.parametrize("on_complete", (OnComplete.OPT_IN, OnComplete.CLOSE_OUT, OnComplete.CLEAR_STATE))
@pytest.mark.parametrize("action", [gb.ACT_COUPON, gb.ACT_SELL, gb.ACT_DEFAULT], ids=bytes.decode)
def test_payout_needs_a_noop_call_of_the_manage_app(env, action, on_complete):
    """The escrows rely on the manage app's check, which only a NoOp call runs;
    the manage app refuses every opt-in, and has no local state to leave."""
    dep, group = due(env, action)
    txns = list(group.txns)
    txns[1] = dataclasses.replace(txns[1], on_complete=on_complete)

    refused(env, txns)

    assert env.ledger.submit_group(group).approved


# ---------------------------------------------------------------------------
# the table of actions, and the pins that hold each escrow leg

AUDITED = ("sender", "receiver", "asset_id", "amount", "revoke_target")
# (action, leg, field) -> why no check that runs when the escrow signs the leg pins the field
UNPINNED = {
    (gb.ACT_TRADE, 2, "receiver"): "the buyer may be anyone: only the builder sets it, and leg 3 makes "
    "that buyer pay (its sender is pinned to txns[2].receiver)",
}


def test_every_shape_with_a_main_app_head_is_in_the_table():
    missing = [
        name for name, value in vars(gb).items()
        if isinstance(value, gb._Shape) and value.legs[0].action is not None and value not in gb._MAIN_ACTIONS
    ]
    assert missing == []


def test_the_table_holds_the_main_apps_actions():
    assert sorted(shape.legs[0].action for shape in gb._MAIN_ACTIONS) == sorted(MAIN_ACTIONS)


def pinned(check, leg, field) -> bool:
    """Whether `check` compares `field` of leg `leg` with the shape's pin."""
    fields = check.pins.get(leg, ())
    return field in check.shape.legs[leg].pins and (fields is None or field in fields)


def runs_with(shape) -> list:
    """The checks that run whenever an escrow signs a leg of `shape`: the main
    app's at the head, named by the action's handler, and the manage app's at
    a call of the manage app whose app and action the main app's check pins,
    named by the manage app's handler of that action.  (A handler's
    `co_names` are the globals it reads, its checks among them.)  A trade
    offer's check does not count: a seller who sends its own trade legs uses
    no offer."""
    named = {name: check for name, check in vars(gb).items() if isinstance(check, gb._Check) and check.shape is shape}
    main = [
        check for name, check in named.items()
        if check.side == "main" and check.at == (0,) and name in gb._MAIN_ACTIONS[shape].__code__.co_names
    ]

    def manage_runs(name, at) -> bool:
        leg = shape.legs[at]
        if leg.kind is not AppCall or leg.pins["app_id"].value != "$manage_app":
            return False
        if not any(pinned(check, at, "app_id") and pinned(check, at, "args") for check in main):
            return False
        action = ast.literal_eval(leg.pins["args"].value)[0]
        return name in vars(gb)[f"_manage_{action.decode()}"].__code__.co_names

    manage = [
        check for name, check in named.items()
        if check.side == "manage" and all(manage_runs(name, at) for at in check.at)
    ]
    return main + manage


def test_every_escrow_leg_is_pinned_by_a_check_that_runs_when_it_is_signed():
    """The safety argument of the shapes, checked on the table: every field
    that moves value on a leg an escrow signs is pinned, or is excused."""
    unpinned = set()
    for shape in gb._MAIN_ACTIONS:
        checks = runs_with(shape)
        for leg, spec in enumerate(shape.legs):
            if spec.extra.get("signature") not in gb._SIGNED:
                continue
            for field in {f.name for f in dataclasses.fields(spec.kind)}.intersection(AUDITED):
                if not any(pinned(check, leg, field) for check in checks):
                    unpinned.add((shape.legs[0].action, leg, field))
    assert unpinned == set(UNPINNED)
