"""The green-bond protocol.

Each issuance deploys two stateful applications and two contract-account
escrows:

* the main app gates buying, secondary-market trading, coupon claims,
  principal redemption and default claims, holding per-investor state
  (coupons claimed, trade allowance, approval flag) plus the shared
  coupons-paid counter, reserve and global approval flag;
* the manage app stores packed green ratings (eight one-byte ratings per
  8-byte slot) and performs the default check: an action that would leave
  the stablecoin escrow unable to cover the reserve plus the next
  obligation is refused;
* the bond escrow is the clawback authority for the bond asset, so every
  bond movement is a clawback it signs, and its logic demands a grouped
  main-app call plus a fee reimbursement;
* the stablecoin escrow pays coupons, principal and default recoveries,
  and its logic demands a grouped manage-app call plus a reimbursement.

The bond asset is minted frozen, so holders can never move it directly;
0 means "frozen/blocked" for both the global and per-account approval
flags, which is why a bond starts unsellable until the financial regulator
approves it and each investor.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Optional, Tuple

from .ledger import (
    Address,
    AppCall,
    AssetTransfer,
    BASE_MIN_BALANCE,
    FLAT_FEE,
    InsufficientBalance,
    Ledger,
    LedgerError,
    Payment,
    SubmitResult,
    TransactionGroup,
)
from .programs import (
    CallContext,
    LogicSig,
    OnComplete,
    StatefulProgram,
    StatelessProgram,
    StateSchema,
)
from .pricing import TOP_RATING

UNIT = 1_000_000  # base units per whole bond and per stablecoin dollar
BOND_DECIMALS = 6

MAIN_APP_MIN_BALANCE = 184_000
MANAGE_APP_BASE_MIN_BALANCE = 100_000
MANAGE_APP_PER_SLOT_MIN_BALANCE = 50_000

# operator funding wired to the contract accounts at issuance: each escrow
# ends up holding exactly its base minimum after paying the setup fees
ESCROW_SEED = BASE_MIN_BALANCE
ESCROW_FUNDING = 2 * (BASE_MIN_BALANCE + FLAT_FEE)

# main app state keys
KEY_COUPONS_PAID = b"CouponsPaid"
KEY_RESERVE = b"Reserve"
KEY_FROZEN = b"Frozen"
KEY_TRADE = b"Trade"

# app configuration keys (written once at deployment, then frozen)
CFG_BOND_ASSET = "bond_asset"
CFG_BOND_ESCROW = "bond_escrow"
CFG_STABLECOIN_ESCROW = "stablecoin_escrow"
CFG_PEER_APP = "peer_app"

# main app actions
ACT_FREEZE = b"freeze"
ACT_FREEZE_ALL = b"freeze_all"
ACT_BUY = b"buy"
ACT_SET_TRADE = b"set_trade"
ACT_TRADE = b"trade"
ACT_COUPON = b"coupon"
ACT_SELL = b"sell"
ACT_DEFAULT = b"default"

# manage app actions
ACT_RATE = b"rate"
ACT_DEFAULTED = b"defaulted"
ACT_NOT_DEFAULTED = b"not_defaulted"
ACT_CLAIM_DEFAULT = b"claim_default"

# cost-report row labels
ROW_CREATE_ASA = "Create new ASA"
ROW_FUND_ESCROWS = "Fund contract accounts"
ROW_CONFIGURE = "Send green bond to escrow and configure"
ROW_DEPLOY_MAIN = "Deploy Main App"
ROW_DEPLOY_MANAGE = "Deploy Manage App"
ROW_UPDATE_APPS = "Update Apps"
ROW_UPLOAD_REPORT = "Upload Report"
ROW_OPT_IN_ASA = "Opt into ASA"
ROW_OPT_IN_APP = "Opt into App"
ROW_BUY = "Buy"
ROW_TRADE_SELL = "Trade Sell"
ROW_TRADE_BUY = "Trade Buy"
ROW_CLAIM_COUPON = "Claim Coupon"
ROW_CLAIM_PRINCIPAL = "Claim Principal"
ROW_CLAIM_DEFAULT = "Claim Default"
ROW_RATE = "Rate"
ROW_FREEZE = "Freeze"
ROW_FUND_ESCROW_STABLECOIN = "Fund Escrow"

ISSUANCE_ROW_ORDER = (
    ROW_CREATE_ASA,
    ROW_FUND_ESCROWS,
    ROW_CONFIGURE,
    ROW_DEPLOY_MAIN,
    ROW_DEPLOY_MANAGE,
    ROW_UPDATE_APPS,
    ROW_UPLOAD_REPORT,
)


class ProtocolError(LedgerError):
    pass


# ---------------------------------------------------------------------------
# parameters and deployment records


@dataclass(frozen=True)
class BondParams:
    total_bonds: int  # whole bonds; minted supply is total_bonds * 10**6 base units
    coupon_rounds: int
    start_buy: int
    end_buy: int
    maturity: int
    bond_cost: int  # stablecoin base units per whole bond
    coupon_base: int  # stablecoin base units per whole bond per round, at rating 5
    principal: int  # stablecoin base units per whole bond
    issuer: Address
    green_verifier: Address
    financial_regulator: Address
    stablecoin_id: int

    @property
    def supply_base_units(self) -> int:
        return self.total_bonds * UNIT

    @property
    def coupon_period(self) -> int:
        if self.coupon_rounds == 0:
            return 0
        return (self.maturity - self.end_buy) // self.coupon_rounds

    def validate(self) -> None:
        if self.total_bonds <= 0:
            raise ValueError("total_bonds must be positive")
        if self.coupon_rounds < 0:
            raise ValueError("coupon_rounds must be non-negative")
        if not self.start_buy < self.end_buy < self.maturity:
            raise ValueError("dates must satisfy start_buy < end_buy < maturity")
        if self.principal <= 0:
            raise ValueError("principal must be positive")
        if self.bond_cost < 0 or self.coupon_base < 0:
            raise ValueError("amounts must be non-negative")
        if self.coupon_rounds >= 1 and self.coupon_period < 1:
            raise ValueError("coupon rounds do not fit between end_buy and maturity")


@dataclass(frozen=True)
class BondDeployment:
    bond_asset_id: int
    main_app_id: int
    manage_app_id: int
    bond_escrow: Address
    stablecoin_escrow: Address
    params: BondParams
    bond_escrow_lsig: LogicSig
    stablecoin_escrow_lsig: LogicSig


@dataclass(frozen=True)
class TradeOffer:
    seller: Address
    price_per_bond: int  # stablecoin base units per whole bond
    expiry: int
    lsig: LogicSig


# ---------------------------------------------------------------------------
# schedule arithmetic


def rating_slot_count(coupon_rounds: int) -> int:
    """Number of 8-byte state slots needed for use-of-proceeds + one rating
    per coupon round."""
    return -(-(coupon_rounds + 1) // 8)


def effective_coupon(coupon_base: int, rating: int) -> int:
    """Per-bond coupon after the rating penalty: 10% compounded per star
    below 5, floored to integer base units."""
    if not 1 <= rating <= TOP_RATING:
        raise ValueError(f"rating must be between 1 and {TOP_RATING}")
    k = TOP_RATING - rating
    return coupon_base * 11**k // 10**k


def coupon_round_at(params: BondParams, now: int) -> int:
    """Highest coupon round already claimable at `now` (0 = none yet).
    Round i unlocks once the i-th uniform period past end_buy has elapsed."""
    if params.coupon_rounds == 0 or now < params.end_buy:
        return 0
    return min(params.coupon_rounds, (now - params.end_buy) // params.coupon_period)


def rating_slot_at(params: BondParams, now: int) -> Optional[int]:
    """Rating slot that `now` falls in: 0 (use of proceeds) before the buy
    window opens, round i while period i is running, otherwise None."""
    if now < params.start_buy:
        return 0
    if params.coupon_rounds == 0:
        return None
    period = params.coupon_period
    if params.end_buy <= now < params.end_buy + params.coupon_rounds * period:
        return 1 + (now - params.end_buy) // period
    return None


def format_usd(base_units: int) -> str:
    """Display helper: base units -> dollars, 2dp, half-up."""
    quantized = (Decimal(base_units) / UNIT).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    return f"${quantized}"


# ---------------------------------------------------------------------------
# stateful programs


_INT_CONFIG_KEYS = {CFG_BOND_ASSET, CFG_PEER_APP}


def _handle_reconfigure(ctx: CallContext) -> None:
    # deployment-time linking; a one-shot finalize flag disables it for good
    if ctx.finalized:
        ctx.deny("finalized")
    if ctx.sender != ctx.creator:
        ctx.deny("not_creator")
    if ctx.on_complete is OnComplete.DELETE_APPLICATION:
        return
    ctx.require(len(ctx.args) >= 1 and ctx.arg(0) == b"configure", "bad_args")
    i = 1
    while i < len(ctx.args):
        token = ctx.args[i]
        if token == b"finalize":
            ctx.finalize()
            i += 1
            continue
        if i + 1 >= len(ctx.args):
            ctx.deny("bad_args")
        key = token.decode("ascii")
        raw = ctx.args[i + 1].decode("ascii")
        ctx.config_put(key, int(raw) if key in _INT_CONFIG_KEYS else raw)
        i += 2


def _require_active(ctx: CallContext, params: BondParams, *addrs: Address) -> None:
    # 0 means frozen; the regulator must have approved the bond and each account
    if ctx.global_uint(KEY_FROZEN) == 0:
        ctx.deny("bond_frozen")
    for addr in addrs:
        if not ctx.is_opted_in(addr):
            ctx.deny("not_registered", account=addr)
        if ctx.local_uint(addr, KEY_FROZEN) == 0:
            ctx.deny("account_frozen", account=addr)


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
            ctx.local_put(ctx.sender, KEY_COUPONS_PAID, 0)
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


def _manage_defaulted(ctx: CallContext, params: BondParams) -> None:
    main_app = ctx.config(CFG_PEER_APP)
    circulation = _circulation(ctx, params)
    if circulation == 0:
        ctx.deny("not_in_default", available=_escrow_funds(ctx, params))
    funds = _escrow_funds(ctx, params)
    reserve = ctx.global_uint(KEY_RESERVE, app_id=main_app)
    if funds >= reserve + _next_obligation(ctx, params, main_app, circulation):
        ctx.deny("not_in_default", available=funds)


def build_manage_program(params: BondParams) -> StatefulProgram:
    slots = rating_slot_count(params.coupon_rounds)
    dispatch = {
        ACT_RATE: _manage_rate,
        ACT_NOT_DEFAULTED: _manage_not_defaulted,
        ACT_CLAIM_DEFAULT: _manage_claim_default,
        ACT_DEFAULTED: _manage_defaulted,
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
        min_balance_create=MANAGE_APP_BASE_MIN_BALANCE + MANAGE_APP_PER_SLOT_MIN_BALANCE * slots,
        min_balance_opt_in=MANAGE_APP_BASE_MIN_BALANCE,
    )


# ---------------------------------------------------------------------------
# contract-account escrows


def build_stablecoin_escrow_program(main_app_id: int, manage_app_id: int) -> StatelessProgram:
    def predicate(group, idx, now) -> bool:
        txns = group.txns
        txn = txns[idx]
        if not isinstance(txn, AssetTransfer) or txn.revoke_target is not None:
            return False
        # outflows need a grouped manage-app check and a fee reimbursement
        checked = any(
            isinstance(t, AppCall)
            and t.app_id == manage_app_id
            and t.args[:1] in ((ACT_NOT_DEFAULTED,), (ACT_CLAIM_DEFAULT,))
            for t in txns
        )
        reimbursed = any(
            isinstance(t, Payment) and t.receiver == txn.sender and t.amount >= txn.fee for t in txns
        )
        return checked and reimbursed

    return StatelessProgram("stablecoin-escrow", (main_app_id, manage_app_id), predicate)


def build_bond_escrow_program(main_app_id: int, sibling_escrow: Address) -> StatelessProgram:
    def _is_setup(txns) -> bool:
        # one-time issuance shape: pull the minted supply into this escrow and
        # seed the sibling escrow's minimum balance
        if len(txns) != 2:
            return False
        pull, seed = txns
        return (
            isinstance(pull, AssetTransfer)
            and pull.revoke_target is not None
            and pull.receiver == pull.sender
            and isinstance(seed, Payment)
            and seed.sender == pull.sender
            and seed.receiver == sibling_escrow
            and seed.amount == ESCROW_SEED
        )

    def predicate(group, idx, now) -> bool:
        txns = group.txns
        txn = txns[idx]
        if _is_setup(txns) and idx in (0, 1):
            return True
        if isinstance(txn, AssetTransfer) and txn.revoke_target is not None:
            head = txns[0]
            if not (isinstance(head, AppCall) and head.app_id == main_app_id):
                return False
            return any(
                isinstance(t, Payment) and t.receiver == txn.sender and t.amount >= txn.fee for t in txns
            )
        return False

    return StatelessProgram("bond-escrow", (main_app_id, sibling_escrow), predicate)


# ---------------------------------------------------------------------------
# issuance


def _configure_args(pairs: dict, finalize: bool) -> tuple:
    args = [b"configure"]
    for key, value in pairs.items():
        args.append(key.encode("ascii"))
        args.append(str(value).encode("ascii"))
    if finalize:
        args.append(b"finalize")
    return tuple(args)


def issue(ledger: Ledger, params: BondParams, operator: Address) -> BondDeployment:
    """Mint the bond asset, deploy and cross-link both apps and both escrows,
    move the supply into the bond escrow, and leave the bond awaiting
    regulator approval.  The operator pays every issuance cost."""
    params.validate()
    ledger.asset(params.stablecoin_id)
    slots = rating_slot_count(params.coupon_rounds)
    manage_min = MANAGE_APP_BASE_MIN_BALANCE + MANAGE_APP_PER_SLOT_MIN_BALANCE * slots
    required = (
        ESCROW_FUNDING
        + 6 * FLAT_FEE
        + ledger.schedule.asset_create
        + MAIN_APP_MIN_BALANCE
        + manage_min
    )
    spendable = ledger.algo_balance(operator) - ledger.min_balance(operator)
    if spendable < required:
        raise InsufficientBalance(
            f"operator needs {required} spendable microAlgos for issuance, has {spendable}"
        )

    main_id = ledger.register_app(build_main_program(params), operator)
    ledger.cost.record(operator, ROW_DEPLOY_MAIN, min_delta=MAIN_APP_MIN_BALANCE, fee=FLAT_FEE, tag=main_id)
    manage_id = ledger.register_app(build_manage_program(params), operator)
    ledger.cost.record(operator, ROW_DEPLOY_MANAGE, min_delta=manage_min, fee=FLAT_FEE, tag=main_id)

    sc_program = build_stablecoin_escrow_program(main_id, manage_id)
    sc_escrow = ledger.register_contract_account(sc_program)
    bond_program = build_bond_escrow_program(main_id, sc_escrow)
    bond_escrow = ledger.register_contract_account(bond_program)

    asset_id = ledger.create_asset(
        operator,
        total=params.supply_base_units,
        decimals=BOND_DECIMALS,
        default_frozen=True,
        clawback_addr=bond_escrow,
    )
    ledger.cost.record(operator, ROW_CREATE_ASA, min_delta=ledger.schedule.asset_create, fee=FLAT_FEE, tag=main_id)

    config = {
        CFG_BOND_ASSET: asset_id,
        CFG_BOND_ESCROW: bond_escrow,
        CFG_STABLECOIN_ESCROW: sc_escrow,
    }
    updates = [
        AppCall(
            sender=operator,
            app_id=main_id,
            on_complete=OnComplete.UPDATE_APPLICATION,
            args=_configure_args({**config, CFG_PEER_APP: manage_id}, finalize=True),
        ),
        AppCall(
            sender=operator,
            app_id=manage_id,
            on_complete=OnComplete.UPDATE_APPLICATION,
            args=_configure_args({**config, CFG_PEER_APP: main_id}, finalize=True),
        ),
    ]
    _submit_or_raise(ledger, updates, "linking applications")
    ledger.cost.record(operator, ROW_UPDATE_APPS, fee=2 * FLAT_FEE, tag=main_id)

    # contract accounts hold their assets by construction; the published cost
    # schedule prices these holdings at zero
    ledger.grant_holding(bond_escrow, asset_id)
    ledger.grant_holding(sc_escrow, params.stablecoin_id)

    _submit_or_raise(
        ledger,
        [Payment(sender=operator, receiver=bond_escrow, amount=ESCROW_FUNDING)],
        "funding contract accounts",
    )
    ledger.cost.record(operator, ROW_FUND_ESCROWS, amount=ESCROW_FUNDING, fee=FLAT_FEE, tag=main_id)

    bond_lsig = LogicSig(bond_program)
    setup = [
        AssetTransfer(
            sender=bond_escrow,
            asset_id=asset_id,
            receiver=bond_escrow,
            amount=params.supply_base_units,
            revoke_target=operator,
            signature=bond_lsig,
        ),
        Payment(sender=bond_escrow, receiver=sc_escrow, amount=ESCROW_SEED, signature=bond_lsig),
    ]
    _submit_or_raise(ledger, setup, "moving supply into escrow")
    ledger.cost.record(operator, ROW_CONFIGURE, fee=2 * FLAT_FEE, tag=main_id)

    return BondDeployment(
        bond_asset_id=asset_id,
        main_app_id=main_id,
        manage_app_id=manage_id,
        bond_escrow=bond_escrow,
        stablecoin_escrow=sc_escrow,
        params=params,
        bond_escrow_lsig=bond_lsig,
        stablecoin_escrow_lsig=LogicSig(sc_program),
    )


def _submit_or_raise(ledger: Ledger, txns, stage: str) -> None:
    result = ledger.submit_group(txns)
    if result.rejected:
        raise ProtocolError(f"issuance failed while {stage}: {result.reason()}")


# ---------------------------------------------------------------------------
# group builders


def build_freeze_all_group(dep: BondDeployment, sender: Address, value: int) -> TransactionGroup:
    return TransactionGroup(
        (
            AppCall(
                sender=sender,
                app_id=dep.main_app_id,
                args=(ACT_FREEZE_ALL, str(value).encode("ascii")),
            ),
        )
    )


def build_freeze_account_group(dep: BondDeployment, sender: Address, target: Address, value: int) -> TransactionGroup:
    return TransactionGroup(
        (
            AppCall(
                sender=sender,
                app_id=dep.main_app_id,
                args=(ACT_FREEZE, str(value).encode("ascii")),
                accounts=(target,),
            ),
        )
    )


def build_buy_group(dep: BondDeployment, investor: Address, amount: int) -> TransactionGroup:
    """Primary-market purchase of `amount` bond base units at the issue cost."""
    p = dep.params
    bond_move = AssetTransfer(
        sender=dep.bond_escrow,
        asset_id=dep.bond_asset_id,
        receiver=investor,
        amount=amount,
        revoke_target=dep.bond_escrow,
        signature=dep.bond_escrow_lsig,
    )
    return TransactionGroup(
        (
            AppCall(sender=investor, app_id=dep.main_app_id, args=(ACT_BUY,)),
            Payment(sender=investor, receiver=dep.bond_escrow, amount=bond_move.fee),
            bond_move,
            AssetTransfer(
                sender=investor,
                asset_id=p.stablecoin_id,
                receiver=p.issuer,
                amount=amount * p.bond_cost // UNIT,
            ),
        )
    )


def build_set_trade_group(dep: BondDeployment, seller: Address, amount: int) -> TransactionGroup:
    return TransactionGroup(
        (
            AppCall(
                sender=seller,
                app_id=dep.main_app_id,
                args=(ACT_SET_TRADE, str(amount).encode("ascii")),
            ),
        )
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


def build_trade_group(dep: BondDeployment, offer: TradeOffer, buyer: Address, amount: int) -> TransactionGroup:
    bond_move = AssetTransfer(
        sender=dep.bond_escrow,
        asset_id=dep.bond_asset_id,
        receiver=buyer,
        amount=amount,
        revoke_target=offer.seller,
        signature=dep.bond_escrow_lsig,
    )
    return TransactionGroup(
        (
            AppCall(
                sender=offer.seller,
                app_id=dep.main_app_id,
                args=(ACT_TRADE,),
                accounts=(buyer,),
                signature=offer.lsig,
            ),
            Payment(sender=offer.seller, receiver=dep.bond_escrow, amount=bond_move.fee, signature=offer.lsig),
            bond_move,
            AssetTransfer(
                sender=buyer,
                asset_id=dep.params.stablecoin_id,
                receiver=offer.seller,
                amount=amount * offer.price_per_bond // UNIT,
            ),
        )
    )


def build_fund_escrow_group(dep: BondDeployment, funder: Address, amount: int) -> TransactionGroup:
    """Stablecoin into the payment escrow.  Anyone may fund; only outflows
    are gated by the escrow logic."""
    return TransactionGroup(
        (
            AssetTransfer(
                sender=funder,
                asset_id=dep.params.stablecoin_id,
                receiver=dep.stablecoin_escrow,
                amount=amount,
            ),
        )
    )


def build_coupon_group(ledger: Ledger, dep: BondDeployment, investor: Address) -> TransactionGroup:
    """Coupon claim for the investor's next round, priced off the round's
    rating as currently recorded (unrated rounds pay the top-rating coupon)."""
    p = dep.params
    holdings = ledger.asset_balance(investor, dep.bond_asset_id)
    paid = ledger.app_local(investor, dep.main_app_id, KEY_COUPONS_PAID) or 0
    round_no = min(paid + 1, max(p.coupon_rounds, 1))
    rating = get_rating(ledger, dep, round_no) if round_no <= p.coupon_rounds else 0
    per_bond = effective_coupon(p.coupon_base, rating if rating else TOP_RATING)
    payout = AssetTransfer(
        sender=dep.stablecoin_escrow,
        asset_id=p.stablecoin_id,
        receiver=investor,
        amount=holdings * per_bond // UNIT,
        signature=dep.stablecoin_escrow_lsig,
    )
    return TransactionGroup(
        (
            AppCall(
                sender=investor,
                app_id=dep.main_app_id,
                args=(ACT_COUPON,),
                accounts=(dep.bond_escrow,),
                apps=(dep.manage_app_id,),
            ),
            AppCall(
                sender=investor,
                app_id=dep.manage_app_id,
                args=(ACT_NOT_DEFAULTED,),
                accounts=(dep.stablecoin_escrow, dep.bond_escrow),
                apps=(dep.main_app_id,),
            ),
            Payment(sender=investor, receiver=dep.stablecoin_escrow, amount=payout.fee),
            payout,
        )
    )


def build_principal_group(ledger: Ledger, dep: BondDeployment, investor: Address) -> TransactionGroup:
    """Principal redemption: all bonds owned return to escrow in exchange for
    the face value of each."""
    p = dep.params
    holdings = ledger.asset_balance(investor, dep.bond_asset_id)
    bond_move = AssetTransfer(
        sender=dep.bond_escrow,
        asset_id=dep.bond_asset_id,
        receiver=dep.bond_escrow,
        amount=holdings,
        revoke_target=investor,
        signature=dep.bond_escrow_lsig,
    )
    payout = AssetTransfer(
        sender=dep.stablecoin_escrow,
        asset_id=p.stablecoin_id,
        receiver=investor,
        amount=holdings * p.principal // UNIT,
        signature=dep.stablecoin_escrow_lsig,
    )
    return TransactionGroup(
        (
            AppCall(
                sender=investor,
                app_id=dep.main_app_id,
                args=(ACT_SELL,),
                accounts=(dep.bond_escrow,),
                apps=(dep.manage_app_id,),
            ),
            AppCall(
                sender=investor,
                app_id=dep.manage_app_id,
                args=(ACT_NOT_DEFAULTED,),
                accounts=(dep.stablecoin_escrow, dep.bond_escrow),
                apps=(dep.main_app_id,),
            ),
            bond_move,
            payout,
            Payment(sender=investor, receiver=dep.bond_escrow, amount=bond_move.fee),
            Payment(sender=investor, receiver=dep.stablecoin_escrow, amount=payout.fee),
        )
    )


def build_default_group(ledger: Ledger, dep: BondDeployment, investor: Address) -> TransactionGroup:
    """Default recovery: surrender all bonds for a pro-rata share of the
    escrow funds above the reserve, at current circulation."""
    p = dep.params
    holdings = ledger.asset_balance(investor, dep.bond_asset_id)
    funds = ledger.asset_balance(dep.stablecoin_escrow, p.stablecoin_id)
    reserve = ledger.app_global(dep.main_app_id, KEY_RESERVE) or 0
    circulation = bonds_in_circulation(ledger, dep)
    payout_amount = (funds - reserve) * holdings // circulation if circulation else 0
    bond_move = AssetTransfer(
        sender=dep.bond_escrow,
        asset_id=dep.bond_asset_id,
        receiver=dep.bond_escrow,
        amount=holdings,
        revoke_target=investor,
        signature=dep.bond_escrow_lsig,
    )
    payout = AssetTransfer(
        sender=dep.stablecoin_escrow,
        asset_id=p.stablecoin_id,
        receiver=investor,
        amount=payout_amount,
        signature=dep.stablecoin_escrow_lsig,
    )
    return TransactionGroup(
        (
            AppCall(
                sender=investor,
                app_id=dep.main_app_id,
                args=(ACT_DEFAULT,),
                accounts=(dep.bond_escrow,),
                apps=(dep.manage_app_id,),
            ),
            AppCall(
                sender=investor,
                app_id=dep.manage_app_id,
                args=(ACT_CLAIM_DEFAULT,),
                accounts=(dep.stablecoin_escrow, dep.bond_escrow),
                apps=(dep.main_app_id,),
            ),
            bond_move,
            payout,
            Payment(sender=investor, receiver=dep.bond_escrow, amount=bond_move.fee),
            Payment(sender=investor, receiver=dep.stablecoin_escrow, amount=payout.fee),
        )
    )


def build_rate_group(dep: BondDeployment, verifier: Address, rating: int) -> TransactionGroup:
    return TransactionGroup(
        (
            AppCall(
                sender=verifier,
                app_id=dep.manage_app_id,
                args=(ACT_RATE, str(rating).encode("ascii")),
            ),
        )
    )


# ---------------------------------------------------------------------------
# queries


def get_rating(ledger: Ledger, dep: BondDeployment, index: int) -> int:
    """Stored rating for slot `index` (0 = use of proceeds, i = round i);
    0 when the slot has never been rated."""
    if not 0 <= index <= dep.params.coupon_rounds:
        raise ValueError(f"rating index out of range: {index}")
    return _slot_rating(ledger.app_global(dep.manage_app_id, _rating_key(index)), index)


def bonds_in_circulation(ledger: Ledger, dep: BondDeployment) -> int:
    return dep.params.supply_base_units - ledger.asset_balance(dep.bond_escrow, dep.bond_asset_id)


def main_global_state(ledger: Ledger, dep: BondDeployment) -> Tuple[int, int, int]:
    """(coupons_paid, reserve, frozen) from the main app's global state."""
    return (
        ledger.app_global(dep.main_app_id, KEY_COUPONS_PAID) or 0,
        ledger.app_global(dep.main_app_id, KEY_RESERVE) or 0,
        ledger.app_global(dep.main_app_id, KEY_FROZEN) or 0,
    )


def investor_local_state(ledger: Ledger, dep: BondDeployment, investor: Address) -> Tuple[int, int, int]:
    """(coupons_paid, trade, frozen) from the investor's main-app local state."""
    return (
        ledger.app_local(investor, dep.main_app_id, KEY_COUPONS_PAID) or 0,
        ledger.app_local(investor, dep.main_app_id, KEY_TRADE) or 0,
        ledger.app_local(investor, dep.main_app_id, KEY_FROZEN) or 0,
    )


# ---------------------------------------------------------------------------
# submit helpers: build, submit, and record costs on approval


def _own_costs(group: TransactionGroup, actor: Address, escrows: Tuple[Address, ...]) -> Tuple[int, int]:
    """(fee, escrow reimbursement amount) paid by `actor` in `group`."""
    fee = sum(t.fee for t in group.txns if t.sender == actor)
    amount = sum(
        t.amount for t in group.txns if isinstance(t, Payment) and t.sender == actor and t.receiver in escrows
    )
    return fee, amount


def _record_action(ledger: Ledger, dep: BondDeployment, group: TransactionGroup, actor: Address, label: str) -> None:
    fee, amount = _own_costs(group, actor, (dep.bond_escrow, dep.stablecoin_escrow))
    ledger.cost.record(actor, label, amount=amount, fee=fee, tag=dep.main_app_id)


def register_investor(ledger: Ledger, dep: BondDeployment, investor: Address) -> SubmitResult:
    """Opt the investor into the bond asset and the main app (both paid by
    the investor), recording the two opt-in cost rows."""
    result = ledger.opt_in_asset(investor, dep.bond_asset_id)
    if result.rejected:
        return result
    ledger.cost.record(
        investor, ROW_OPT_IN_ASA, min_delta=ledger.schedule.asset_opt_in, fee=FLAT_FEE, tag=dep.main_app_id
    )
    result = ledger.submit_group(
        [AppCall(sender=investor, app_id=dep.main_app_id, on_complete=OnComplete.OPT_IN)]
    )
    if result.rejected:
        return result
    ledger.cost.record(
        investor, ROW_OPT_IN_APP, min_delta=MAIN_APP_MIN_BALANCE, fee=FLAT_FEE, tag=dep.main_app_id
    )
    return result


def submit_freeze_all(ledger: Ledger, dep: BondDeployment, sender: Address, value: int) -> SubmitResult:
    group = build_freeze_all_group(dep, sender, value)
    result = ledger.submit_group(group)
    if result.approved:
        _record_action(ledger, dep, group, sender, ROW_FREEZE)
    return result


def submit_freeze_account(ledger: Ledger, dep: BondDeployment, sender: Address, target: Address, value: int) -> SubmitResult:
    group = build_freeze_account_group(dep, sender, target, value)
    result = ledger.submit_group(group)
    if result.approved:
        _record_action(ledger, dep, group, sender, ROW_FREEZE)
    return result


def submit_buy(ledger: Ledger, dep: BondDeployment, investor: Address, amount: int) -> SubmitResult:
    group = build_buy_group(dep, investor, amount)
    result = ledger.submit_group(group)
    if result.approved:
        _record_action(ledger, dep, group, investor, ROW_BUY)
    return result


def submit_set_trade(ledger: Ledger, dep: BondDeployment, seller: Address, amount: int) -> SubmitResult:
    group = build_set_trade_group(dep, seller, amount)
    result = ledger.submit_group(group)
    if result.approved:
        _record_action(ledger, dep, group, seller, ROW_TRADE_SELL)
    return result


def submit_trade(ledger: Ledger, dep: BondDeployment, offer: TradeOffer, buyer: Address, amount: int) -> SubmitResult:
    group = build_trade_group(dep, offer, buyer, amount)
    result = ledger.submit_group(group)
    if result.approved:
        _record_action(ledger, dep, group, offer.seller, ROW_TRADE_SELL)
        _record_action(ledger, dep, group, buyer, ROW_TRADE_BUY)
    return result


def submit_fund_escrow(ledger: Ledger, dep: BondDeployment, funder: Address, amount: int) -> SubmitResult:
    group = build_fund_escrow_group(dep, funder, amount)
    result = ledger.submit_group(group)
    if result.approved:
        _record_action(ledger, dep, group, funder, ROW_FUND_ESCROW_STABLECOIN)
    return result


def submit_coupon(ledger: Ledger, dep: BondDeployment, investor: Address) -> SubmitResult:
    group = build_coupon_group(ledger, dep, investor)
    result = ledger.submit_group(group)
    if result.approved:
        _record_action(ledger, dep, group, investor, ROW_CLAIM_COUPON)
    return result


def submit_principal(ledger: Ledger, dep: BondDeployment, investor: Address) -> SubmitResult:
    group = build_principal_group(ledger, dep, investor)
    result = ledger.submit_group(group)
    if result.approved:
        _record_action(ledger, dep, group, investor, ROW_CLAIM_PRINCIPAL)
    return result


def submit_default(ledger: Ledger, dep: BondDeployment, investor: Address) -> SubmitResult:
    group = build_default_group(ledger, dep, investor)
    result = ledger.submit_group(group)
    if result.approved:
        _record_action(ledger, dep, group, investor, ROW_CLAIM_DEFAULT)
    return result


def submit_rate(ledger: Ledger, dep: BondDeployment, verifier: Address, rating: int) -> SubmitResult:
    group = build_rate_group(dep, verifier, rating)
    result = ledger.submit_group(group)
    if result.approved:
        _record_action(ledger, dep, group, verifier, ROW_RATE)
    return result


def submit_report_anchor(ledger: Ledger, dep: BondDeployment, sender: Address, cid: str) -> SubmitResult:
    from .reports import anchor_report

    result = anchor_report(ledger, sender, dep.manage_app_id, cid)
    if result.approved:
        ledger.cost.record(sender, ROW_UPLOAD_REPORT, fee=FLAT_FEE, tag=dep.main_app_id)
    return result
