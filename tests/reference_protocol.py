"""Reference copy of the green-bond protocol's stateful handlers and the
trade-offer predicate, as they were before each action's group shape was
defined once (`greenbond._Shape`).

Every handler here writes its group check out by hand.  The differential
test (`tests/test_group_shapes.py`) deploys one bond whose programs come
from this module and one whose programs come from `bondsim.greenbond`, and
requires the two to accept and deny the same groups with the same codes.
The code below is kept as it was, not tidied: it is the behaviour being
preserved.  Some rules were added later, here and in `bondsim.greenbond`
alike:
* the manage app's checks and the trade-offer predicate require the
  main-app head to be a NoOp call, since the main app approves an opt-in or
  a close-out without looking at the group;
* the issuance setup is a main-app action, approved once, that pulls
  exactly the supply from its sender and seeds the stablecoin escrow;
* a trade hands the seller's coupon counter to a buyer holding no bonds,
  and refuses any other buyer whose counter differs;
* an opt-in by an account that already holds bonds, which only a holder
  back after a close-out or clear-state can, starts its counter at the main
  app's count of rounds opened, not at 0.
Some pieces were removed later, here and in `bondsim.greenbond` alike:
* the manage app's `defaulted` action, which no group used;
* the manage app's stated minimum-balance entries, which equal its schema's
  price;
* the ledger's finalize flag and the generic `configure key value ...
  finalize` form: an app is linked by one `configure` call in one form, and
  refuses any update or deletion once its configuration names its peer.
"""
from __future__ import annotations

from bondsim.greenbond import (
    ACT_BUY,
    ACT_CLAIM_DEFAULT,
    ACT_COUPON,
    ACT_DEFAULT,
    ACT_FREEZE,
    ACT_FREEZE_ALL,
    ACT_NOT_DEFAULTED,
    ACT_RATE,
    ACT_SELL,
    ACT_SET_TRADE,
    ACT_SETUP,
    ACT_TRADE,
    CFG_BOND_ASSET,
    CFG_BOND_ESCROW,
    CFG_PEER_APP,
    CFG_STABLECOIN_ESCROW,
    ESCROW_SEED,
    KEY_COUPONS_PAID,
    KEY_FROZEN,
    KEY_RESERVE,
    KEY_TRADE,
    MAIN_APP_MIN_BALANCE,
    TOP_RATING,
    UNIT,
    BondDeployment,
    BondParams,
    TradeOffer,
    coupon_round_at,
    effective_coupon,
    rating_slot_at,
    rating_slot_count,
)
from bondsim.ledger import Address, AppCall, AssetTransfer, Payment
from bondsim.programs import (
    CallContext,
    LogicSig,
    OnComplete,
    StatefulProgram,
    StatelessProgram,
    StateSchema,
)


def _handle_reconfigure(ctx: CallContext) -> None:
    # deployment-time linking, one-shot: a linked app names its peer
    if ctx.config(CFG_PEER_APP) is not None:
        ctx.deny("finalized")
    if ctx.sender != ctx.creator:
        ctx.deny("not_creator")
    if ctx.on_complete is OnComplete.DELETE_APPLICATION:
        return
    if len(ctx.args) != 5 or ctx.args[0] != b"configure":
        ctx.deny("bad_args")
    bond_asset = ctx.int_arg(1)
    addresses = []
    for index in (2, 3):
        try:
            addresses.append(ctx.args[index].decode("ascii"))
        except UnicodeDecodeError:
            ctx.deny("bad_arg", index=index)
    peer_app = ctx.int_arg(4)
    ctx.config_put(CFG_BOND_ASSET, bond_asset)
    ctx.config_put(CFG_BOND_ESCROW, addresses[0])
    ctx.config_put(CFG_STABLECOIN_ESCROW, addresses[1])
    ctx.config_put(CFG_PEER_APP, peer_app)


def _require_active(ctx: CallContext, params: BondParams, *addrs: Address) -> None:
    # 0 means frozen; the regulator must have approved the bond and each account
    if ctx.global_uint(KEY_FROZEN) == 0:
        ctx.deny("bond_frozen")
    for addr in addrs:
        if not ctx.is_opted_in(addr):
            ctx.deny("not_registered", account=addr)
        if ctx.local_uint(addr, KEY_FROZEN) == 0:
            ctx.deny("account_frozen", account=addr)


def _main_setup(ctx: CallContext, params: BondParams) -> None:
    if ctx.global_value(KEY_FROZEN) is not None:
        ctx.deny("already_set_up")
    txns = ctx.group.txns
    ctx.require(len(txns) == 3 and ctx.txn_index == 0, "bad_group")
    t1, t2 = txns[1], txns[2]
    bond_escrow = ctx.config(CFG_BOND_ESCROW)
    ctx.require(
        isinstance(t1, AssetTransfer)
        and t1.asset_id == ctx.config(CFG_BOND_ASSET)
        and t1.sender == bond_escrow
        and t1.revoke_target == ctx.sender
        and t1.receiver == bond_escrow
        and t1.amount == params.supply_base_units,
        "bad_group",
    )
    ctx.require(
        isinstance(t2, Payment)
        and t2.sender == bond_escrow
        and t2.receiver == ctx.config(CFG_STABLECOIN_ESCROW)
        and t2.amount == ESCROW_SEED,
        "bad_group",
    )
    ctx.global_put(KEY_FROZEN, 0)


def _main_freeze_all(ctx: CallContext, params: BondParams) -> None:
    if ctx.sender != params.financial_regulator:
        ctx.deny("not_regulator")
    ctx.global_put(KEY_FROZEN, ctx.int_arg(1))


def _main_freeze_account(ctx: CallContext, params: BondParams) -> None:
    if ctx.sender != params.financial_regulator:
        ctx.deny("not_regulator")
    ctx.require(len(ctx.accounts) >= 1, "bad_args")
    target = ctx.accounts[0]
    if not ctx.is_opted_in(target):
        ctx.deny("target_not_opted_in", account=target)
    ctx.local_put(target, KEY_FROZEN, ctx.int_arg(1))


def _main_buy(ctx: CallContext, params: BondParams) -> None:
    _require_active(ctx, params, ctx.sender)
    if not params.start_buy <= ctx.now < params.end_buy:
        ctx.deny("outside_buy_window")
    txns = ctx.group.txns
    ctx.require(len(txns) == 4 and ctx.txn_index == 0, "bad_group")
    t1, t2, t3 = txns[1], txns[2], txns[3]
    bond_escrow = ctx.config(CFG_BOND_ESCROW)
    bond_asset = ctx.config(CFG_BOND_ASSET)
    ctx.require(
        isinstance(t1, Payment)
        and t1.sender == ctx.sender
        and t1.receiver == bond_escrow
        and t1.amount >= t2.fee,
        "bad_group",
    )
    ctx.require(
        isinstance(t2, AssetTransfer)
        and t2.asset_id == bond_asset
        and t2.sender == bond_escrow
        and t2.revoke_target == bond_escrow
        and t2.receiver == ctx.sender
        and t2.amount > 0,
        "bad_group",
    )
    ctx.require(
        isinstance(t3, AssetTransfer)
        and t3.asset_id == params.stablecoin_id
        and t3.revoke_target is None
        and t3.sender == ctx.sender
        and t3.receiver == params.issuer
        and t3.amount == t2.amount * params.bond_cost // UNIT,
        "bad_group",
    )


def _main_set_trade(ctx: CallContext, params: BondParams) -> None:
    _require_active(ctx, params, ctx.sender)
    n = ctx.int_arg(1)
    ctx.require(n >= 0, "bad_arg", index=1)
    ctx.local_put(ctx.sender, KEY_TRADE, n)


def _main_trade(ctx: CallContext, params: BondParams) -> None:
    seller = ctx.sender
    _require_active(ctx, params, seller)
    txns = ctx.group.txns
    ctx.require(len(txns) == 4 and ctx.txn_index == 0, "bad_group")
    t1, t2 = txns[1], txns[2]
    bond_escrow = ctx.config(CFG_BOND_ESCROW)
    bond_asset = ctx.config(CFG_BOND_ASSET)
    ctx.require(
        isinstance(t1, Payment)
        and t1.sender == seller
        and t1.receiver == bond_escrow
        and t1.amount >= t2.fee,
        "bad_group",
    )
    ctx.require(
        isinstance(t2, AssetTransfer)
        and t2.asset_id == bond_asset
        and t2.sender == bond_escrow
        and t2.revoke_target == seller
        and t2.amount > 0,
        "bad_group",
    )
    buyer = t2.receiver
    if not ctx.is_opted_in(buyer):
        ctx.deny("not_registered", account=buyer)
    if ctx.local_uint(buyer, KEY_FROZEN) == 0:
        ctx.deny("account_frozen", account=buyer)
    # the selling allowance is the replay protection for delegated offers:
    # every executed trade burns allowance, and 0 blocks further trades
    allowance = ctx.local_uint(seller, KEY_TRADE)
    if t2.amount > allowance:
        ctx.deny("allowance_exceeded", requested=t2.amount, allowance=allowance)
    ctx.local_put(seller, KEY_TRADE, allowance - t2.amount)
    seller_paid = ctx.local_uint(seller, KEY_COUPONS_PAID)
    buyer_paid = ctx.local_uint(buyer, KEY_COUPONS_PAID)
    if ctx.asset_balance(buyer, bond_asset) == 0:
        ctx.local_put(buyer, KEY_COUPONS_PAID, seller_paid)
    elif buyer_paid != seller_paid:
        ctx.deny("coupons_differ", coupons_paid=buyer_paid, seller_coupons_paid=seller_paid)


def _slot_rating(raw, slot: int) -> int:
    if not isinstance(raw, bytes) or slot % 8 >= len(raw):
        return 0
    return raw[slot % 8]


def _rating_key(slot: int) -> bytes:
    return str(slot // 8).encode("ascii")


def _main_coupon(ctx: CallContext, params: BondParams) -> None:
    _require_active(ctx, params, ctx.sender)
    bond_asset = ctx.config(CFG_BOND_ASSET)
    bond_escrow = ctx.config(CFG_BOND_ESCROW)
    sc_escrow = ctx.config(CFG_STABLECOIN_ESCROW)
    manage_app = ctx.config(CFG_PEER_APP)
    holdings = ctx.asset_balance(ctx.sender, bond_asset)
    if holdings <= 0:
        ctx.deny("no_bonds")
    paid = ctx.local_uint(ctx.sender, KEY_COUPONS_PAID)
    claimable = coupon_round_at(params, ctx.now)
    if paid >= claimable:
        ctx.deny("nothing_claimable", coupons_paid=paid, claimable=claimable)
    round_no = paid + 1
    rating = _slot_rating(ctx.global_value(_rating_key(round_no), app_id=manage_app), round_no)
    per_bond = effective_coupon(params.coupon_base, rating if rating else TOP_RATING)
    expected = holdings * per_bond // UNIT

    txns = ctx.group.txns
    ctx.require(len(txns) == 4 and ctx.txn_index == 0, "bad_group")
    t1, t2, t3 = txns[1], txns[2], txns[3]
    ctx.require(
        isinstance(t1, AppCall)
        and t1.app_id == manage_app
        and t1.sender == ctx.sender
        and t1.args[:1] == (ACT_NOT_DEFAULTED,),
        "bad_group",
    )
    ctx.require(
        isinstance(t2, Payment)
        and t2.sender == ctx.sender
        and t2.receiver == sc_escrow
        and t2.amount >= t3.fee,
        "bad_group",
    )
    ctx.require(
        isinstance(t3, AssetTransfer)
        and t3.asset_id == params.stablecoin_id
        and t3.revoke_target is None
        and t3.sender == sc_escrow
        and t3.receiver == ctx.sender
        and t3.amount == expected,
        "bad_group",
    )

    ctx.local_put(ctx.sender, KEY_COUPONS_PAID, round_no)
    reserve = ctx.global_uint(KEY_RESERVE)
    if round_no > ctx.global_uint(KEY_COUPONS_PAID):
        # first claim of this round: reserve the full obligation for every
        # circulating bond, then let each claim (this one included) work it off
        circulation = params.supply_base_units - ctx.asset_balance(bond_escrow, bond_asset)
        ctx.global_put(KEY_COUPONS_PAID, round_no)
        reserve += per_bond * circulation // UNIT
    ctx.global_put(KEY_RESERVE, reserve - expected)


def _main_sell(ctx: CallContext, params: BondParams) -> None:
    _require_active(ctx, params, ctx.sender)
    if ctx.now < params.maturity:
        ctx.deny("before_maturity")
    bond_asset = ctx.config(CFG_BOND_ASSET)
    bond_escrow = ctx.config(CFG_BOND_ESCROW)
    sc_escrow = ctx.config(CFG_STABLECOIN_ESCROW)
    manage_app = ctx.config(CFG_PEER_APP)
    holdings = ctx.asset_balance(ctx.sender, bond_asset)
    if holdings <= 0:
        ctx.deny("no_bonds")
    paid = ctx.local_uint(ctx.sender, KEY_COUPONS_PAID)
    if paid != params.coupon_rounds:
        ctx.deny("unclaimed_coupons", coupons_paid=paid, coupon_rounds=params.coupon_rounds)

    txns = ctx.group.txns
    ctx.require(len(txns) == 6 and ctx.txn_index == 0, "bad_group")
    t1, t2, t3, t4, t5 = txns[1], txns[2], txns[3], txns[4], txns[5]
    ctx.require(
        isinstance(t1, AppCall)
        and t1.app_id == manage_app
        and t1.sender == ctx.sender
        and t1.args[:1] == (ACT_NOT_DEFAULTED,),
        "bad_group",
    )
    ctx.require(
        isinstance(t2, AssetTransfer)
        and t2.asset_id == bond_asset
        and t2.sender == bond_escrow
        and t2.revoke_target == ctx.sender
        and t2.receiver == bond_escrow
        and t2.amount == holdings,  # redemption forfeits every bond owned
        "bad_group",
    )
    ctx.require(
        isinstance(t3, AssetTransfer)
        and t3.asset_id == params.stablecoin_id
        and t3.revoke_target is None
        and t3.sender == sc_escrow
        and t3.receiver == ctx.sender
        and t3.amount == holdings * params.principal // UNIT,
        "bad_group",
    )
    ctx.require(
        isinstance(t4, Payment) and t4.sender == ctx.sender and t4.receiver == bond_escrow and t4.amount >= t2.fee,
        "bad_group",
    )
    ctx.require(
        isinstance(t5, Payment) and t5.sender == ctx.sender and t5.receiver == sc_escrow and t5.amount >= t3.fee,
        "bad_group",
    )


def _main_default(ctx: CallContext, params: BondParams) -> None:
    _require_active(ctx, params, ctx.sender)
    bond_asset = ctx.config(CFG_BOND_ASSET)
    bond_escrow = ctx.config(CFG_BOND_ESCROW)
    sc_escrow = ctx.config(CFG_STABLECOIN_ESCROW)
    manage_app = ctx.config(CFG_PEER_APP)
    holdings = ctx.asset_balance(ctx.sender, bond_asset)
    if holdings <= 0:
        ctx.deny("no_bonds")
    # recovery is only open to holders who already collected every unlocked
    # coupon, so nobody loses accrued coupons by claiming late
    paid = ctx.local_uint(ctx.sender, KEY_COUPONS_PAID)
    if paid != ctx.global_uint(KEY_COUPONS_PAID):
        ctx.deny("behind_on_coupons", coupons_paid=paid, unlocked=ctx.global_uint(KEY_COUPONS_PAID))

    txns = ctx.group.txns
    ctx.require(len(txns) == 6 and ctx.txn_index == 0, "bad_group")
    t1, t2, t3, t4, t5 = txns[1], txns[2], txns[3], txns[4], txns[5]
    ctx.require(
        isinstance(t1, AppCall)
        and t1.app_id == manage_app
        and t1.sender == ctx.sender
        and t1.args[:1] == (ACT_CLAIM_DEFAULT,),
        "bad_group",
    )
    ctx.require(
        isinstance(t2, AssetTransfer)
        and t2.asset_id == bond_asset
        and t2.sender == bond_escrow
        and t2.revoke_target == ctx.sender
        and t2.receiver == bond_escrow
        and t2.amount == holdings,
        "bad_group",
    )
    ctx.require(
        isinstance(t3, AssetTransfer)
        and t3.asset_id == params.stablecoin_id
        and t3.revoke_target is None
        and t3.sender == sc_escrow
        and t3.receiver == ctx.sender,
        "bad_group",
    )
    ctx.require(
        isinstance(t4, Payment) and t4.sender == ctx.sender and t4.receiver == bond_escrow and t4.amount >= t2.fee,
        "bad_group",
    )
    ctx.require(
        isinstance(t5, Payment) and t5.sender == ctx.sender and t5.receiver == sc_escrow and t5.amount >= t3.fee,
        "bad_group",
    )


def build_main_program(params: BondParams) -> StatefulProgram:
    dispatch = {
        ACT_SETUP: _main_setup,
        ACT_FREEZE_ALL: _main_freeze_all,
        ACT_FREEZE: _main_freeze_account,
        ACT_BUY: _main_buy,
        ACT_SET_TRADE: _main_set_trade,
        ACT_TRADE: _main_trade,
        ACT_COUPON: _main_coupon,
        ACT_SELL: _main_sell,
        ACT_DEFAULT: _main_default,
    }

    def approval(ctx: CallContext) -> None:
        oc = ctx.on_complete
        if oc is OnComplete.OPT_IN:
            returning = ctx.asset_balance(ctx.sender, ctx.config(CFG_BOND_ASSET)) > 0
            ctx.local_put(ctx.sender, KEY_COUPONS_PAID, ctx.global_uint(KEY_COUPONS_PAID) if returning else 0)
            ctx.local_put(ctx.sender, KEY_TRADE, 0)
            ctx.local_put(ctx.sender, KEY_FROZEN, 0)
            return
        if oc in (OnComplete.UPDATE_APPLICATION, OnComplete.DELETE_APPLICATION):
            _handle_reconfigure(ctx)
            return
        if oc in (OnComplete.CLOSE_OUT, OnComplete.CLEAR_STATE):
            return
        action = ctx.arg(0)
        handler = dispatch.get(action)
        if handler is None:
            ctx.deny("unknown_action", action=action.decode("ascii", "replace"))
        handler(ctx, params)

    return StatefulProgram(
        name="green-bond-main",
        schema=StateSchema(global_uints=3, local_uints=3),
        approval=approval,
        min_balance_create=MAIN_APP_MIN_BALANCE,
        min_balance_opt_in=MAIN_APP_MIN_BALANCE,
    )


# -- manage app --------------------------------------------------------------


def _manage_rate(ctx: CallContext, params: BondParams) -> None:
    if ctx.sender != params.green_verifier:
        ctx.deny("not_verifier")
    rating = ctx.int_arg(1)
    if not 1 <= rating <= TOP_RATING:
        ctx.deny("rating_out_of_range", rating=rating)
    slot = rating_slot_at(params, ctx.now)
    if slot is None:
        ctx.deny("no_rateable_period", now=ctx.now)
    raw = ctx.global_value(_rating_key(slot))
    buf = bytearray(raw if isinstance(raw, bytes) else bytes(8))
    buf[slot % 8] = rating
    ctx.global_put(_rating_key(slot), bytes(buf))


def _escrow_funds(ctx: CallContext, params: BondParams) -> int:
    return ctx.asset_balance(ctx.config(CFG_STABLECOIN_ESCROW), params.stablecoin_id)


def _circulation(ctx: CallContext, params: BondParams) -> int:
    return params.supply_base_units - ctx.asset_balance(ctx.config(CFG_BOND_ESCROW), ctx.config(CFG_BOND_ASSET))


def _next_obligation(ctx: CallContext, params: BondParams, main_app: int, circulation: int) -> int:
    """Cost of the next funding event: one more coupon round for every
    circulating bond, or all principals once every round has been unlocked."""
    unlocked = ctx.global_uint(KEY_COUPONS_PAID, app_id=main_app)
    if unlocked < params.coupon_rounds:
        rating = _slot_rating(ctx.global_value(_rating_key(unlocked + 1)), unlocked + 1)
        per_bond = effective_coupon(params.coupon_base, rating if rating else TOP_RATING)
        return per_bond * circulation // UNIT
    return circulation * params.principal // UNIT


def _manage_not_defaulted(ctx: CallContext, params: BondParams) -> None:
    txns = ctx.group.txns
    ctx.require(ctx.txn_index == 1 and len(txns) >= 4, "bad_group")
    main_app = ctx.config(CFG_PEER_APP)
    head = txns[0]
    ctx.require(
        isinstance(head, AppCall)
        and head.app_id == main_app
        and head.sender == ctx.sender
        and head.on_complete is OnComplete.NO_OP
        and head.args[:1] in ((ACT_COUPON,), (ACT_SELL,)),
        "bad_group",
    )
    payout = txns[3]
    ctx.require(isinstance(payout, AssetTransfer) and payout.asset_id == params.stablecoin_id, "bad_group")
    funds = _escrow_funds(ctx, params)
    reserve = ctx.global_uint(KEY_RESERVE, app_id=main_app)
    if head.args[0] == ACT_SELL:
        # principal redemption: every circulating bond must be redeemable on
        # top of the coupon reserve still owed to slower claimants
        required = reserve + _circulation(ctx, params) * params.principal // UNIT
    else:
        # the reserve was already debited by this claim, so adding the pending
        # payout back reconstructs the full outstanding obligation
        required = reserve + payout.amount
    if funds < required:
        ctx.deny("escrow_shortfall", required=required, available=funds)


def _manage_claim_default(ctx: CallContext, params: BondParams) -> None:
    txns = ctx.group.txns
    ctx.require(ctx.txn_index == 1 and len(txns) == 6, "bad_group")
    main_app = ctx.config(CFG_PEER_APP)
    head = txns[0]
    ctx.require(
        isinstance(head, AppCall)
        and head.app_id == main_app
        and head.sender == ctx.sender
        and head.on_complete is OnComplete.NO_OP
        and head.args[:1] == (ACT_DEFAULT,),
        "bad_group",
    )
    funds = _escrow_funds(ctx, params)
    reserve = ctx.global_uint(KEY_RESERVE, app_id=main_app)
    circulation = _circulation(ctx, params)
    ctx.require(circulation > 0, "bad_group")
    if funds >= reserve + _next_obligation(ctx, params, main_app, circulation):
        ctx.deny("not_in_default", available=funds)
    holdings = ctx.asset_balance(ctx.sender, ctx.config(CFG_BOND_ASSET))
    expected = (funds - reserve) * holdings // circulation
    payout = txns[3]
    ctx.require(
        isinstance(payout, AssetTransfer)
        and payout.asset_id == params.stablecoin_id
        and payout.receiver == ctx.sender
        and payout.amount == expected,
        "bad_payout",
    )


def build_manage_program(params: BondParams) -> StatefulProgram:
    slots = rating_slot_count(params.coupon_rounds)
    dispatch = {
        ACT_RATE: _manage_rate,
        ACT_NOT_DEFAULTED: _manage_not_defaulted,
        ACT_CLAIM_DEFAULT: _manage_claim_default,
    }

    def approval(ctx: CallContext) -> None:
        oc = ctx.on_complete
        if oc is OnComplete.OPT_IN:
            ctx.deny("no_local_state")
        if oc in (OnComplete.UPDATE_APPLICATION, OnComplete.DELETE_APPLICATION):
            _handle_reconfigure(ctx)
            return
        if oc in (OnComplete.CLOSE_OUT, OnComplete.CLEAR_STATE):
            return
        action = ctx.arg(0)
        handler = dispatch.get(action)
        if handler is None:
            ctx.deny("unknown_action", action=action.decode("ascii", "replace"))
        handler(ctx, params)

    return StatefulProgram(
        name="green-bond-manage",
        schema=StateSchema(global_bytes=slots),
        approval=approval,
    )


def make_trade_offer(dep: BondDeployment, seller: Address, price_per_bond: int, expiry: int) -> TradeOffer:
    """Delegated signature a buyer can use to execute the seller's side of a
    trade at the stated price until expiry.  The offer itself never touches
    the ledger; replay is bounded by the seller's on-ledger trade allowance."""
    main_app_id = dep.main_app_id
    bond_asset_id = dep.bond_asset_id
    stablecoin_id = dep.params.stablecoin_id
    bond_escrow = dep.bond_escrow

    def predicate(group, idx, now) -> bool:
        if now >= expiry:
            return False
        txns = group.txns
        if len(txns) != 4 or idx not in (0, 1):
            return False
        t0, t1, t2, t3 = txns
        return (
            isinstance(t0, AppCall)
            and t0.app_id == main_app_id
            and t0.sender == seller
            and t0.on_complete is OnComplete.NO_OP
            and t0.args[:1] == (ACT_TRADE,)
            and isinstance(t1, Payment)
            and t1.sender == seller
            and t1.receiver == bond_escrow
            and t1.amount == t2.fee
            and isinstance(t2, AssetTransfer)
            and t2.asset_id == bond_asset_id
            and t2.revoke_target == seller
            and t2.amount > 0
            and isinstance(t3, AssetTransfer)
            and t3.asset_id == stablecoin_id
            and t3.revoke_target is None
            and t3.sender == t2.receiver
            and t3.receiver == seller
            and t3.amount == t2.amount * price_per_bond // UNIT
        )

    program = StatelessProgram(
        "trade-offer",
        (main_app_id, seller, price_per_bond, expiry),
        predicate,
    )
    return TradeOffer(seller, price_per_bond, expiry, LogicSig(program, delegator=seller))
