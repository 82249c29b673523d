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
  bond movement is a clawback it signs;
* the stablecoin escrow pays coupons, principal and default recoveries.
Each escrow signs a leg only where a main-app action, in the one table that
also gives the app its dispatch, has it sign that leg: under a NoOp head naming
the action, in a group of its shape's size, so that the action's checks, run
from the head, hold every other pin.
Issuance takes the same path: the operator links the apps, funds the
contract accounts, and sends the setup call, which the main app approves
once, and under which the bond escrow pulls the whole supply.

The bond asset is minted frozen, so holders can never move it directly;
0 means "frozen/blocked" for both the global and per-account approval
flags, which is why a bond starts unsellable until the financial regulator
approves it and each investor.

Every action runs as one atomic group with one shape (see "group shapes"):
its builder, the apps' checks and the trade-offer predicate all read it.
"""
from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Tuple

from . import reports
from .ledger import (
    ASSET_CREATE_MIN_BALANCE,
    ASSET_OPT_IN_MIN_BALANCE,
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
    DELETE_APPLICATION,
    NO_OP,
    OPT_IN,
    UPDATE_APPLICATION,
    CallContext,
    LogicSig,
    OnComplete,
    StatefulProgram,
    StatelessProgram,
    StateSchema,
)
from .pricing import TOP_RATING, penalty

UNIT = 1_000_000  # base units per whole bond and per stablecoin dollar
BOND_DECIMALS = 6

MAIN_APP_MIN_BALANCE = 184_000

# operator funding wired to the contract accounts at issuance: each escrow
# ends up holding exactly its base minimum after paying the setup fees
ESCROW_SEED = BASE_MIN_BALANCE
ESCROW_FUNDING = 2 * (BASE_MIN_BALANCE + FLAT_FEE)

# main app state keys
KEY_COUPONS_PAID = b"CouponsPaid"
KEY_RESERVE = b"Reserve"
KEY_FROZEN = b"Frozen"
KEY_TRADE = b"Trade"

# app configuration keys, which each app's one-shot link writes at deployment
CFG_BOND_ASSET = "bond_asset"
CFG_BOND_ESCROW = "bond_escrow"
CFG_STABLECOIN_ESCROW = "stablecoin_escrow"
CFG_PEER_APP = "peer_app"

# main app actions
ACT_SETUP = b"setup"
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
ACT_NOT_DEFAULTED = b"not_defaulted"
ACT_CLAIM_DEFAULT = b"claim_default"

# cost-report row labels (an action's own rows are named with its group shape)
ROW_CREATE_ASA = "Create new ASA"
ROW_FUND_ESCROWS = "Fund contract accounts"
ROW_CONFIGURE = "Send green bond to escrow and configure"
ROW_DEPLOY_MAIN = "Deploy Main App"
ROW_DEPLOY_MANAGE = "Deploy Manage App"
ROW_UPDATE_APPS = "Update Apps"
ROW_UPLOAD_REPORT = "Upload Report"
ROW_OPT_IN_ASA = "Opt into ASA"
ROW_OPT_IN_APP = "Opt into App"

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

    @cached_property
    def supply_base_units(self) -> int:
        return self.total_bonds * UNIT

    @cached_property
    def coupon_period(self) -> int:
        if self.coupon_rounds == 0:
            return 0
        return (self.maturity - self.end_buy) // self.coupon_rounds

    @cached_property
    def coupons(self) -> tuple:
        """The per-bond coupon at each rating; an unrated round (0) pays the top rating's."""
        return tuple(effective_coupon(self.coupon_base, rating or TOP_RATING) for rating in range(TOP_RATING + 1))

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
    """One issuance's apps, escrows and parameters.  What they fix is built
    once per deployment and kept on it: the reference tuples of its protocol
    calls, and each actor's fixed legs (see "group shapes")."""

    bond_asset_id: int
    main_app_id: int
    manage_app_id: int
    bond_escrow: Address
    stablecoin_escrow: Address
    params: BondParams
    bond_escrow_lsig: LogicSig
    stablecoin_escrow_lsig: LogicSig

    # the accounts and apps a protocol call names so that its handler may read
    # them, (accounts, apps): built once, shared by every group of the deployment
    @cached_property
    def _calls_manage(self) -> tuple:
        return (self.bond_escrow,), (self.manage_app_id,)

    @cached_property
    def _calls_main(self) -> tuple:
        return (self.stablecoin_escrow, self.bond_escrow), (self.main_app_id,)

    # a builder's fixed legs: leg source -> {actor's address: the leg}
    @cached_property
    def _fixed_legs(self) -> defaultdict:
        return defaultdict(dict)


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
    """Per-bond coupon after the rating penalty, floored to integer base units."""
    scale, base = penalty(rating)
    return coupon_base * scale // base


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
# group shapes
#
# Every action runs as one atomic group whose shape is the protocol's safety
# boundary: which transaction sits at which index, who sends it, which asset
# it moves and how much.  Each action's shape, which fixes the legs each of
# its cost rows counts, is defined once below.  Its builder fills the shape
# in, one positional call per leg; the main app checks the legs after its own
# call, the manage app the head and the payout, and a trade offer the legs of
# a trade.  A pin is Python source: a field equals an expression (or None), or
# is a `_Pin`; `txns` is the group (in a builder, the legs built so far) and
# `$name` an operand of the deployment, the bond or the action.  Like a
# dataclass's `__init__`, each builder and check is compiled (once, on its
# first call) into a plain function: a handler pays for its comparisons.
# A fixed leg, whose every value comes from the deployment and the actor, is
# built on the actor's first use and then looked up in the deployment's
# `_fixed_legs`: a coupon claim makes only its payout and its group, and legs
# of the same source (the `not_defaulted` call, the refunds) are one object.


class _Pin(NamedTuple):
    """A pin that is not plain equality: `value` is what a builder writes, and
    `broken` is true when a group breaks the pin, whose field is `$actual`."""

    value: str
    broken: str


def _pin(operand) -> _Pin:
    if isinstance(operand, _Pin):
        return operand
    if operand is None:
        return _Pin("None", "$actual is not None")
    return _Pin(operand, f"$actual != {operand}")


def _at_least_fee(leg: int) -> _Pin:
    """A refund of another leg's fee, signed by the actor: at least the fee.
    Builders leave every fee flat."""
    return _Pin("FLAT_FEE", f"$actual < txns[{leg}].fee")


def _positive(operand: str) -> _Pin:
    """Any positive amount; the builder writes the operand."""
    return _Pin(operand, "$actual <= 0")


def _action(action: bytes, *values: str) -> _Pin:
    """An app call's arguments: the action, which is pinned, then values in
    decimal, which only the builder writes."""
    args = "".join(f" str({value}).encode('ascii')," for value in values)
    return _Pin(f"({action!r},{args})", f"$actual[:1] != ({action!r},)")


# Where a compiled function reads an operand: a builder or a trade offer from
# the deployment record `dep`; a check in the main or the manage app from its
# call's context `ctx` and the bond's `params`.  Any other operand is the
# action's own, passed by keyword.
_SIDES = ("dep", "main", "manage")
_PEER = f"ctx.app_config.get({CFG_PEER_APP!r})"
_SOURCES = {
    "actor": ("actor", "ctx.sender", "ctx.sender"),
    "main_app": ("dep.main_app_id", "ctx.app_id", _PEER),
    "manage_app": ("dep.manage_app_id", _PEER, "ctx.app_id"),
    "bond_asset": ("dep.bond_asset_id", *[f"ctx.app_config.get({CFG_BOND_ASSET!r})"] * 2),
    "bond_escrow": ("dep.bond_escrow", *[f"ctx.app_config.get({CFG_BOND_ESCROW!r})"] * 2),
    "stablecoin_escrow": ("dep.stablecoin_escrow", *[f"ctx.app_config.get({CFG_STABLECOIN_ESCROW!r})"] * 2),
    "stablecoin": ("dep.params.stablecoin_id", *["params.stablecoin_id"] * 2),
    "issuer": ("dep.params.issuer", *["params.issuer"] * 2),
    "bond_cost": ("dep.params.bond_cost", *["params.bond_cost"] * 2),
    "principal": ("dep.params.principal", *["params.principal"] * 2),
    "bond_lsig": ("dep.bond_escrow_lsig",),
    "stablecoin_lsig": ("dep.stablecoin_escrow_lsig",),
    "calls_manage": ("dep._calls_manage",),
    "calls_main": ("dep._calls_main",),
}
_OPERAND = re.compile(r"\$(\w+)")
_EARLIER = re.compile(r"txns\[(\d+)\]")  # a builder's earlier leg, as a pin names it
_ESCROWS = ("$bond_escrow", "$stablecoin_escrow")
_NAMESPACE = {kind.__name__: kind for kind in (AppCall, AssetTransfer, Payment, TransactionGroup)}
_NAMESPACE.update(OnComplete.__members__)  # NO_OP and the rest, bound once


def _compile(owner, name: str, arguments: str, side: str, render: Callable) -> None:
    """Set `owner.name` to `name(arguments, *, the action's own operands)`, compiled
    on its first call from the lines `render(source)` returns: `source(text, actual)`
    puts `actual` for `$actual` and a local, bound first or a keyword, for `$operand`."""

    def first_call(*args, **kwargs):
        column, used = _SIDES.index(side), {}

        def bind(match) -> str:
            used[match.group(1)] = None
            return match.group(1)

        def source(text: str, actual: str = "") -> str:
            return _OPERAND.sub(bind, text.replace("$actual", actual))

        body = render(source)
        own = [operand for operand in used if operand not in _SOURCES]
        head = f"def {name}({', '.join([arguments, '*', *own]) if own else arguments}):"
        bound = [f"{operand} = {_SOURCES[operand][column]}" for operand in used if operand in _SOURCES]
        namespace = {**_NAMESPACE, "FLAT_FEE": FLAT_FEE, "UNIT": UNIT}
        exec("\n    ".join([head, *bound, *body]), namespace)
        setattr(owner, name, namespace[name])
        return namespace[name](*args, **kwargs)

    setattr(owner, name, first_call)


class _Leg:
    """One transaction of a shape: kind, pins, fields only the builder writes,
    for a call of the main app its action, and the minimum-balance entry it
    locks for its sender."""

    def __init__(self, kind: type, build: Optional[dict] = None, action: Optional[bytes] = None, locks: int = 0, **pins):
        self.kind, self.extra, self.action, self.locks = kind, build or {}, action, locks
        self.pins = {field: _pin(operand) for field, operand in pins.items()}


class _Shape:
    """An action's legs in group order, and its cost rows (the index of the
    leg whose sender pays -> the row's label).  `build(dep, actor, **own)`
    makes the group.  `costs`: per row, (payer leg, label, the legs with the
    payer leg's `sender` pin, whose fees it pays, its payments into an
    escrow: fee refunds, or issuance's funding, and the minimum-balance
    entries those legs lock)."""

    def __init__(self, labels: dict, *legs: _Leg):
        self.legs, self.costs = legs, []
        for payer, label in labels.items():
            paid = tuple(i for i, leg in enumerate(legs) if leg.pins["sender"] == legs[payer].pins["sender"])
            refunds = tuple(i for i in paid if legs[i].kind is Payment and legs[i].pins["receiver"].value in _ESCROWS)
            self.costs.append((payer, label, paid, refunds, sum(legs[i].locks for i in paid)))
        _compile(self, "build", "dep, actor", "dep", self._render)

    def _render(self, source: Callable) -> list:
        """Each leg as one positional call, in its class's field order up to the
        last field it sets, bound to `t<index>` for the later legs that read it.
        A fixed leg reads its operands off `dep` when the actor first needs it,
        and its source text is its key in `dep._fixed_legs`.  A shape whose
        every leg is fixed is sent once per actor, so it caches none."""
        calls, legs = [], []
        for leg in self.legs:
            given = {**{field: pin.value for field, pin in leg.pins.items()}, **leg.extra}
            kind = fields(leg.kind)
            # each default as source: an `OnComplete` member by its name in the namespace
            defaults = [f.default.name if isinstance(f.default, OnComplete) else repr(f.default) for f in kind]
            values = [given.get(f.name, default) for f, default in zip(kind, defaults)]
            while values[-1] == defaults[len(values) - 1]:
                values.pop()
            calls.append(f"{leg.kind.__name__}({', '.join(values)})")
        is_fixed = [not _EARLIER.search(call) and set(_OPERAND.findall(call)) <= _SOURCES.keys() for call in calls]
        for call, cached in zip(calls, is_fixed):
            if cached and not all(is_fixed):
                call = _OPERAND.sub(lambda match: _SOURCES[match.group(1)][0], call)
                call = f"(legs := fixed[{call!r}]).get(actor) or legs.setdefault(actor, {call})"
            else:
                call = source(call)
            legs.append(f"(t{len(legs)} := {call})")
        group = _EARLIER.sub(r"t\1", f"return TransactionGroup(({', '.join(legs)},))")
        return ["fixed = dep._fixed_legs", group] if "fixed[" in group else [group]


class _Check:
    """Some of a shape's pins, as one party checks them: leg index -> fields
    checked there (None: all), by default every leg after the head.  The
    checking transaction sits at an index in `at` of a group of the shape's
    size; `stricter` replaces pins: (leg index, field) -> pin.  An app's check
    (`side` "main" or "manage") is `require(ctx, params, code, **own)`,
    denying the call with the leg index and field of the first pin broken; a
    trade offer's ("dep") is `failure(txns, at, dep, actor, **own)`,
    returning them, or None.  Each keeps its arguments, for an audit."""

    def __init__(self, shape: _Shape, pins: Optional[dict] = None, at=(0,), stricter=None, side="main"):
        self.shape, self.pins, self.at, self.side = shape, pins or dict.fromkeys(range(1, len(shape.legs))), at, side
        self.stricter = {key: _pin(operand) for key, operand in (stricter or {}).items()}
        fail = "return {}, {!r}" if side == "dep" else "ctx.deny(code, leg={}, field={!r})"

        def render(source: Callable) -> list:
            lines = [] if side == "dep" else ["txns, at = ctx.group.txns, ctx.txn_index"]
            lines.append(f"if at not in {at!r}: {fail.format('at', 'position')}")
            lines.append(f"if len(txns) != {len(shape.legs)}: {fail.format(None, 'size')}")
            for index, fields in self.pins.items():
                lines.append(f"t = txns[{index}]")
                lines.append(f"if not isinstance(t, {shape.legs[index].kind.__name__}): {fail.format(index, 'type')}")
                for field, pin in shape.legs[index].pins.items():
                    if fields is None or field in fields:
                        broken = self.stricter.get((index, field), pin).broken
                        lines.append(f"if {source(broken, 't.' + field)}: {fail.format(index, field)}")
            return [*lines, "return None"]

        if side == "dep":
            _compile(self, "failure", "txns, at, dep, actor", side, render)
        else:
            _compile(self, "require", "ctx, params, code='bad_group'", side, render)


def _main_call(action: bytes, *values: str, build: Optional[dict] = None) -> _Leg:
    """A call of the main app that stays in it: the manage app, trade offers
    and escrows rely on its checks, which an opt-in or close-out skips."""
    args = _action(action, *values)
    return _Leg(AppCall, build, action, sender="$actor", app_id="$main_app", on_complete="NO_OP", args=args)


def _refund(escrow: str, leg: int, build: Optional[dict] = None) -> _Leg:
    return _Leg(Payment, build, sender="$actor", receiver=escrow, amount=_at_least_fee(leg))


def _bond_move(build: dict, **pins) -> _Leg:
    return _Leg(AssetTransfer, build, asset_id="$bond_asset", sender="$bond_escrow", **pins)


def _stablecoin_move(build: Optional[dict] = None, **pins) -> _Leg:
    return _Leg(AssetTransfer, build, asset_id="$stablecoin", revoke_target=None, **pins)


_CALLS_MANAGE = {"accounts": "$calls_manage[0]", "apps": "$calls_manage[1]"}
_CALLS_MAIN = {"accounts": "$calls_main[0]", "apps": "$calls_main[1]"}
_BY_BOND_ESCROW = {"signature": "$bond_lsig"}
_BY_STABLECOIN_ESCROW = {"signature": "$stablecoin_lsig"}


def _surrender(action: bytes, check: bytes, label: str, payout: str) -> _Shape:
    """Principal and default: all the actor's bonds back for a guarded payout."""
    return _Shape(
        {0: label},
        _main_call(action, build=_CALLS_MANAGE),
        _Leg(AppCall, _CALLS_MAIN, sender="$actor", app_id="$manage_app", args=_action(check)),
        _bond_move(_BY_BOND_ESCROW, revoke_target="$actor", receiver="$bond_escrow", amount="$holdings"),
        _stablecoin_move(_BY_STABLECOIN_ESCROW, sender="$stablecoin_escrow", receiver="$actor", amount=payout),
        _refund("$bond_escrow", 2),
        _refund("$stablecoin_escrow", 3),
    )


def _link(app: str, peer: str) -> _Leg:
    """The deployment-time update that links an app once: the bond asset,
    both escrows and its peer app, the one form `_handle_reconfigure` reads."""
    args = _action(b"configure", "$bond_asset", "$bond_escrow", "$stablecoin_escrow", peer)
    return _Leg(AppCall, sender="$actor", app_id=app, on_complete="UPDATE_APPLICATION", args=args)


# issuance, in three groups: the operator links both apps, then funds the
# contract accounts through the bond escrow, then sets up, which the main app
# approves once: the bond escrow pulls the minted supply from the operator and
# seeds the stablecoin escrow's minimum balance
_LINK = _Shape({0: ROW_UPDATE_APPS}, _link("$main_app", "$manage_app"), _link("$manage_app", "$main_app"))
_FUND_CONTRACTS = _Shape(
    {0: ROW_FUND_ESCROWS}, _Leg(Payment, sender="$actor", receiver="$bond_escrow", amount="$funding")
)
_SETUP = _Shape(
    {},
    _main_call(ACT_SETUP),
    _bond_move(_BY_BOND_ESCROW, revoke_target="$actor", receiver="$bond_escrow", amount="$supply"),
    _Leg(Payment, _BY_BOND_ESCROW, sender="$bond_escrow", receiver="$stablecoin_escrow", amount="$seed"),
)
# registration, in two groups the investor pays: the zero self-transfer that
# opts into the bond asset, then the opt-in of the main app
_OPT_IN_ASSET = _Shape(
    {0: ROW_OPT_IN_ASA},
    _Leg(AssetTransfer, sender="$actor", asset_id="$bond_asset", receiver="$actor", amount="0", locks=ASSET_OPT_IN_MIN_BALANCE),
)
_OPT_IN_MAIN = _Shape(
    {0: ROW_OPT_IN_APP},
    _Leg(AppCall, sender="$actor", app_id="$main_app", on_complete="OPT_IN", locks=MAIN_APP_MIN_BALANCE),
)
# a report anchor: a zero self-payment carrying the note `reports` renders
_ANCHOR = _Shape({0: ROW_UPLOAD_REPORT}, _Leg(Payment, sender="$actor", receiver="$actor", amount="0", note="$note"))
_FREEZE_ALL = _Shape({0: "Freeze"}, _main_call(ACT_FREEZE_ALL, "$value"))
_FREEZE = _Shape({0: "Freeze"}, _main_call(ACT_FREEZE, "$value", build={"accounts": "($target,)"}))
_SET_TRADE = _Shape({0: "Trade Sell"}, _main_call(ACT_SET_TRADE, "$quantity"))
_RATE = _Shape({0: "Rate"}, _Leg(AppCall, sender="$actor", app_id="$manage_app", args=_action(ACT_RATE, "$rating")))
# anyone may fund the payment escrow; only its outflows are gated
_FUND_ESCROW = _Shape(
    {0: "Fund Escrow"},
    _Leg(AssetTransfer, sender="$actor", asset_id="$stablecoin", receiver="$stablecoin_escrow", amount="$quantity"),
)
_BUY = _Shape(
    {0: "Buy"},
    _main_call(ACT_BUY),
    _refund("$bond_escrow", 2),
    _bond_move(_BY_BOND_ESCROW, revoke_target="$bond_escrow", receiver="$actor", amount=_positive("$quantity")),
    _stablecoin_move(sender="$actor", receiver="$issuer", amount="txns[2].amount * $bond_cost // UNIT"),
)
# the actor is the seller, whose two legs the seller's offer signs
_TRADE = _Shape(
    {0: "Trade Sell", 3: "Trade Buy"},
    _main_call(ACT_TRADE, build={"accounts": "($buyer,)", "signature": "$offer"}),
    _refund("$bond_escrow", 2, build={"signature": "$offer"}),
    _bond_move({"receiver": "$buyer", **_BY_BOND_ESCROW}, revoke_target="$actor", amount=_positive("$quantity")),
    _stablecoin_move(sender="txns[2].receiver", receiver="$actor", amount="txns[2].amount * $price // UNIT"),
)
_COUPON = _Shape(
    {0: "Claim Coupon"},
    _main_call(ACT_COUPON, build=_CALLS_MANAGE),
    _Leg(AppCall, _CALLS_MAIN, sender="$actor", app_id="$manage_app", args=_action(ACT_NOT_DEFAULTED)),
    _refund("$stablecoin_escrow", 3),
    _stablecoin_move(_BY_STABLECOIN_ESCROW, sender="$stablecoin_escrow", receiver="$actor", amount="$payout"),
)
_PRINCIPAL = _surrender(ACT_SELL, ACT_NOT_DEFAULTED, "Claim Principal", "txns[2].amount * $principal // UNIT")
_DEFAULT = _surrender(ACT_DEFAULT, ACT_CLAIM_DEFAULT, "Claim Default", "$payout")

_SETUP_CHECK = _Check(_SETUP)
_BUY_CHECK = _Check(_BUY)
_TRADE_CHECK = _Check(_TRADE, {1: None, 2: None})  # the buyer's payment is the offer's to check
# the offer signs the seller's refund, so it must be the fee exactly: with
# "at least", a buyer could drain the seller's Algos into the escrow
_TRADE_OFFER_CHECK = _Check(
    _TRADE,
    {0: None, 1: None, 2: ("asset_id", "revoke_target", "amount"), 3: None},
    at=(0, 1),
    stricter={(1, "amount"): "txns[2].fee"},
    side="dep",
)
_COUPON_CHECK = _Check(_COUPON)
_SELL_CHECK = _Check(_PRINCIPAL)
# the payout's amount is the manage app's to check
_DEFAULT_CHECK = _Check(_DEFAULT, {1: None, 2: None, 3: ("asset_id", "revoke_target", "sender", "receiver"), 4: None, 5: None})
# the manage app checks the head, and the payout it guards
_COUPON_HEAD = _Check(_COUPON, {0: None, 3: ("asset_id",)}, at=(1,), side="manage")
_SELL_HEAD = _Check(_PRINCIPAL, {0: None, 3: ("asset_id",)}, at=(1,), side="manage")
_CLAIM_DEFAULT_HEAD = _Check(_DEFAULT, {0: None}, at=(1,), side="manage")
_CLAIM_DEFAULT_PAYOUT = _Check(_DEFAULT, {3: ("asset_id", "receiver", "amount")}, at=(1,), side="manage")


# ---------------------------------------------------------------------------
# stateful programs


def _handle_reconfigure(ctx: CallContext) -> None:
    """An update or deletion by the creator.  An update links the app, in the
    one form `_link` builds (ids in decimal, ASCII addresses); once the app's
    configuration names its peer, it refuses any update or deletion."""
    if CFG_PEER_APP in ctx.app_config:
        ctx.deny("finalized")
    if ctx.sender != ctx.creator:
        ctx.deny("not_creator")
    if ctx.on_complete is DELETE_APPLICATION:
        return
    ctx.require(len(ctx.args) == 5 and ctx.args[0] == b"configure", "bad_args")
    ctx.config_put(CFG_BOND_ASSET, ctx.int_arg(1))
    for index, key in ((2, CFG_BOND_ESCROW), (3, CFG_STABLECOIN_ESCROW)):
        ctx.require(ctx.args[index].isascii(), "bad_arg", index=index)
        ctx.config_put(key, ctx.args[index].decode("ascii"))
    ctx.config_put(CFG_PEER_APP, ctx.int_arg(4))


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
    # one-shot: the frozen flag exists from setup on, and the bond opens frozen
    if ctx.global_value(KEY_FROZEN) is not None:
        ctx.deny("already_set_up")
    _SETUP_CHECK.require(ctx, params, supply=params.supply_base_units, seed=ESCROW_SEED)
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
    _BUY_CHECK.require(ctx, params)


def _main_set_trade(ctx: CallContext, params: BondParams) -> None:
    _require_active(ctx, params, ctx.sender)
    n = ctx.int_arg(1)
    ctx.require(n >= 0, "bad_arg", index=1)
    ctx.local_put(ctx.sender, KEY_TRADE, n)


def _main_trade(ctx: CallContext, params: BondParams) -> None:
    seller = ctx.sender
    _require_active(ctx, params, seller)
    _TRADE_CHECK.require(ctx, params)
    bond_move = ctx.group.txns[2]
    buyer = bond_move.receiver
    if not ctx.is_opted_in(buyer):
        ctx.deny("not_registered", account=buyer)
    if ctx.local_uint(buyer, KEY_FROZEN) == 0:
        ctx.deny("account_frozen", account=buyer)
    # the selling allowance is the replay protection for delegated offers:
    # every executed trade burns allowance, and 0 blocks further trades
    allowance = ctx.local_uint(seller, KEY_TRADE)
    if bond_move.amount > allowance:
        ctx.deny("allowance_exceeded", requested=bond_move.amount, allowance=allowance)
    ctx.local_put(seller, KEY_TRADE, allowance - bond_move.amount)
    # the coupon counter travels with the bonds: a buyer holding none takes
    # the seller's, any other must already have it (no round is paid twice)
    paid, held = ctx.local_uint(seller, KEY_COUPONS_PAID), ctx.local_uint(buyer, KEY_COUPONS_PAID)
    if ctx.asset_balance(buyer, ctx.app_config.get(CFG_BOND_ASSET)) == 0:
        ctx.local_put(buyer, KEY_COUPONS_PAID, paid)
    elif held != paid:
        ctx.deny("coupons_differ", coupons_paid=held, seller_coupons_paid=paid)


def _slot_rating(raw, slot: int) -> int:
    if not isinstance(raw, bytes) or slot % 8 >= len(raw):
        return 0
    return raw[slot % 8]


def _rating_key(slot: int) -> bytes:
    return str(slot // 8).encode("ascii")


def _main_coupon(ctx: CallContext, params: BondParams) -> None:
    _require_active(ctx, params, ctx.sender)
    holdings = ctx.asset_balance(ctx.sender, ctx.app_config.get(CFG_BOND_ASSET))
    if holdings <= 0:
        ctx.deny("no_bonds")
    paid = ctx.local_uint(ctx.sender, KEY_COUPONS_PAID)
    claimable = coupon_round_at(params, ctx.now)
    if paid >= claimable:
        ctx.deny("nothing_claimable", coupons_paid=paid, claimable=claimable)
    round_no = paid + 1
    rating = _slot_rating(ctx.global_value(_rating_key(round_no), app_id=ctx.app_config.get(CFG_PEER_APP)), round_no)
    per_bond = params.coupons[rating]
    expected = holdings * per_bond // UNIT
    _COUPON_CHECK.require(ctx, params, payout=expected)

    ctx.local_put(ctx.sender, KEY_COUPONS_PAID, round_no)
    reserve = ctx.global_uint(KEY_RESERVE)
    if round_no > ctx.global_uint(KEY_COUPONS_PAID):
        # first claim of this round: reserve the full obligation for every
        # circulating bond, then let each claim (this one included) work it off
        ctx.global_put(KEY_COUPONS_PAID, round_no)
        reserve += per_bond * _circulation(ctx, params) // UNIT
    ctx.global_put(KEY_RESERVE, reserve - expected)


def _main_sell(ctx: CallContext, params: BondParams) -> None:
    _require_active(ctx, params, ctx.sender)
    if ctx.now < params.maturity:
        ctx.deny("before_maturity")
    holdings = ctx.asset_balance(ctx.sender, ctx.app_config.get(CFG_BOND_ASSET))
    if holdings <= 0:
        ctx.deny("no_bonds")
    paid = ctx.local_uint(ctx.sender, KEY_COUPONS_PAID)
    if paid != params.coupon_rounds:
        ctx.deny("unclaimed_coupons", coupons_paid=paid, coupon_rounds=params.coupon_rounds)
    _SELL_CHECK.require(ctx, params, holdings=holdings)  # redemption forfeits every bond owned


def _main_default(ctx: CallContext, params: BondParams) -> None:
    _require_active(ctx, params, ctx.sender)
    holdings = ctx.asset_balance(ctx.sender, ctx.app_config.get(CFG_BOND_ASSET))
    if holdings <= 0:
        ctx.deny("no_bonds")
    # recovery is only open to holders who already collected every unlocked
    # coupon, so nobody loses accrued coupons by claiming late
    paid = ctx.local_uint(ctx.sender, KEY_COUPONS_PAID)
    if paid != ctx.global_uint(KEY_COUPONS_PAID):
        ctx.deny("behind_on_coupons", coupons_paid=paid, unlocked=ctx.global_uint(KEY_COUPONS_PAID))
    _DEFAULT_CHECK.require(ctx, params, holdings=holdings)


# each main-app action's shape (whose head names it) -> its handler; from it, the dispatch
# and the legs each escrow signs: (the head's arguments up to the action, leg) -> the size
_MAIN_ACTIONS = {
    _SETUP: _main_setup,
    _FREEZE_ALL: _main_freeze_all,
    _FREEZE: _main_freeze_account,
    _BUY: _main_buy,
    _SET_TRADE: _main_set_trade,
    _TRADE: _main_trade,
    _COUPON: _main_coupon,
    _PRINCIPAL: _main_sell,
    _DEFAULT: _main_default,
}
_SIGNED = {
    sig: {
        ((shape.legs[0].action,), i): len(shape.legs)
        for shape in _MAIN_ACTIONS
        for i, leg in enumerate(shape.legs)
        if leg.extra.get("signature") == sig
    }
    for sig in (_BY_BOND_ESCROW["signature"], _BY_STABLECOIN_ESCROW["signature"])
}


def _approval(params: BondParams, dispatch: dict, opt_in: Callable[[CallContext], None]):
    """An app's approval handler: the first argument's handler on a NoOp
    call, `opt_in` on opt-in, reconfiguration at deployment, and a free
    close-out or clear-state."""

    def approval(ctx: CallContext) -> None:
        oc = ctx.on_complete
        if oc is NO_OP:
            action = ctx.arg(0)
            handler = dispatch.get(action)
            if handler is None:
                ctx.deny("unknown_action", action=action.decode("ascii", "replace"))
            handler(ctx, params)
        elif oc is OPT_IN:
            opt_in(ctx)
        elif oc is UPDATE_APPLICATION or oc is DELETE_APPLICATION:
            _handle_reconfigure(ctx)

    return approval


def _main_opt_in(ctx: CallContext) -> None:
    # only a holder back after a close-out or clear-state holds bonds here: its
    # old counter is gone, so it starts at the last round opened and forfeits
    # any of those it had not claimed
    held = ctx.asset_balance(ctx.sender, ctx.app_config.get(CFG_BOND_ASSET))
    ctx.local_put(ctx.sender, KEY_COUPONS_PAID, ctx.global_uint(KEY_COUPONS_PAID) if held else 0)
    ctx.local_put(ctx.sender, KEY_TRADE, 0)
    ctx.local_put(ctx.sender, KEY_FROZEN, 0)


def build_main_program(params: BondParams) -> StatefulProgram:
    dispatch = {shape.legs[0].action: handler for shape, handler in _MAIN_ACTIONS.items()}
    return StatefulProgram(
        name="green-bond-main",
        schema=StateSchema(global_uints=3, local_uints=3),
        approval=_approval(params, dispatch, _main_opt_in),
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
    return ctx.asset_balance(ctx.app_config.get(CFG_STABLECOIN_ESCROW), params.stablecoin_id)


def _circulation(ctx: CallContext, params: BondParams) -> int:
    config = ctx.app_config
    return params.supply_base_units - ctx.asset_balance(config.get(CFG_BOND_ESCROW), config.get(CFG_BOND_ASSET))


def _next_obligation(ctx: CallContext, params: BondParams, main_app: int, circulation: int) -> int:
    """Cost of the next funding event: one more coupon round for every
    circulating bond, or all principals once every round has been unlocked."""
    unlocked = ctx.global_uint(KEY_COUPONS_PAID, app_id=main_app)
    if unlocked < params.coupon_rounds:
        rating = _slot_rating(ctx.global_value(_rating_key(unlocked + 1)), unlocked + 1)
        return params.coupons[rating] * circulation // UNIT
    return circulation * params.principal // UNIT


def _manage_not_defaulted(ctx: CallContext, params: BondParams) -> None:
    txns = ctx.group.txns
    selling = getattr(txns[0], "args", ())[:1] == (ACT_SELL,)
    (_SELL_HEAD if selling else _COUPON_HEAD).require(ctx, params)
    funds = _escrow_funds(ctx, params)
    reserve = ctx.global_uint(KEY_RESERVE, app_id=ctx.app_config.get(CFG_PEER_APP))
    if selling:
        # principal redemption: every circulating bond must be redeemable on
        # top of the coupon reserve still owed to slower claimants
        required = reserve + _circulation(ctx, params) * params.principal // UNIT
    else:
        # the reserve was already debited by this claim, so adding the pending
        # payout back reconstructs the full outstanding obligation
        required = reserve + txns[3].amount
    if funds < required:
        ctx.deny("escrow_shortfall", required=required, available=funds)


def _manage_claim_default(ctx: CallContext, params: BondParams) -> None:
    _CLAIM_DEFAULT_HEAD.require(ctx, params)
    main_app = ctx.app_config.get(CFG_PEER_APP)
    funds = _escrow_funds(ctx, params)
    reserve = ctx.global_uint(KEY_RESERVE, app_id=main_app)
    circulation = _circulation(ctx, params)
    ctx.require(circulation > 0, "bad_group")
    if funds >= reserve + _next_obligation(ctx, params, main_app, circulation):
        ctx.deny("not_in_default", available=funds)
    holdings = ctx.asset_balance(ctx.sender, ctx.app_config.get(CFG_BOND_ASSET))
    payout = (funds - reserve) * holdings // circulation
    _CLAIM_DEFAULT_PAYOUT.require(ctx, params, "bad_payout", payout=payout)


def _manage_opt_in(ctx: CallContext) -> None:
    ctx.deny("no_local_state")


def build_manage_program(params: BondParams) -> StatefulProgram:
    dispatch = {
        ACT_RATE: _manage_rate,
        ACT_NOT_DEFAULTED: _manage_not_defaulted,
        ACT_CLAIM_DEFAULT: _manage_claim_default,
    }
    # no stated minimum-balance entries: the schema's price applies
    return StatefulProgram(
        name="green-bond-manage",
        schema=StateSchema(global_bytes=rating_slot_count(params.coupon_rounds)),
        approval=_approval(params, dispatch, _manage_opt_in),
    )


# ---------------------------------------------------------------------------
# contract-account escrows


def _escrow_program(name: str, main_app_id: int, signed: dict) -> StatelessProgram:
    """An escrow of the main app, signing the legs `signed` gives it (see the
    module docstring)."""

    def predicate(group, idx, now) -> bool:
        txns = group.txns
        head = txns[0]
        return (
            isinstance(head, AppCall)
            and head.app_id == main_app_id
            and head.on_complete is NO_OP
            and signed.get((head.args[:1], idx)) == len(txns)
        )

    return StatelessProgram(name, (main_app_id,), predicate)


# ---------------------------------------------------------------------------
# issuance


def issue(ledger: Ledger, params: BondParams, operator: Address) -> BondDeployment:
    """Mint the bond asset, deploy and cross-link both apps and both escrows,
    move the supply into the bond escrow, and leave the bond awaiting
    regulator approval.  The operator pays every issuance cost."""
    params.validate()
    ledger.asset(params.stablecoin_id)
    main, manage = build_main_program(params), build_manage_program(params)
    required = ESCROW_FUNDING + 7 * FLAT_FEE + ASSET_CREATE_MIN_BALANCE + main.create_entry + manage.create_entry
    spendable = ledger.algo_balance(operator) - ledger.min_balance(operator)
    if spendable < required:
        raise InsufficientBalance(
            f"operator needs {required} spendable microAlgos for issuance, has {spendable}"
        )

    main_id = ledger.register_app(main, operator)
    ledger.cost.record(operator, ROW_DEPLOY_MAIN, min_delta=main.create_entry, fee=FLAT_FEE, tag=main_id)
    manage_id = ledger.register_app(manage, operator)
    ledger.cost.record(operator, ROW_DEPLOY_MANAGE, min_delta=manage.create_entry, fee=FLAT_FEE, tag=main_id)

    sc_program = _escrow_program("stablecoin-escrow", main_id, _SIGNED[_BY_STABLECOIN_ESCROW["signature"]])
    sc_escrow = ledger.register_contract_account(sc_program)
    bond_program = _escrow_program("bond-escrow", main_id, _SIGNED[_BY_BOND_ESCROW["signature"]])
    bond_escrow = ledger.register_contract_account(bond_program)

    asset_id = ledger.create_asset(
        operator,
        total=params.supply_base_units,
        decimals=BOND_DECIMALS,
        default_frozen=True,
        clawback_addr=bond_escrow,
    )
    ledger.cost.record(operator, ROW_CREATE_ASA, min_delta=ASSET_CREATE_MIN_BALANCE, fee=FLAT_FEE, tag=main_id)
    # contract accounts hold their assets by construction; the published cost
    # table prices these holdings at zero
    ledger.grant_holding(bond_escrow, asset_id)
    ledger.grant_holding(sc_escrow, params.stablecoin_id)

    dep = BondDeployment(
        bond_asset_id=asset_id,
        main_app_id=main_id,
        manage_app_id=manage_id,
        bond_escrow=bond_escrow,
        stablecoin_escrow=sc_escrow,
        params=params,
        bond_escrow_lsig=LogicSig(bond_program),
        stablecoin_escrow_lsig=LogicSig(sc_program),
    )
    for stage, shape, own in (
        ("linking applications", _LINK, {}),
        ("funding contract accounts", _FUND_CONTRACTS, {"funding": ESCROW_FUNDING}),
        ("moving supply into escrow", _SETUP, {"supply": params.supply_base_units, "seed": ESCROW_SEED}),
    ):
        result = _submit(ledger, dep, shape, shape.build(dep, operator, **own))
        if not result.approved:
            raise ProtocolError(f"issuance failed while {stage}: {result.reason()}")
    # the published figure charges both of the setup's escrow-signed legs to the operator
    ledger.cost.record(operator, ROW_CONFIGURE, fee=2 * FLAT_FEE, tag=main_id)
    return dep


# ---------------------------------------------------------------------------
# group builders


def build_freeze_all_group(dep: BondDeployment, sender: Address, value: int) -> TransactionGroup:
    return _FREEZE_ALL.build(dep, sender, value=value)


def build_freeze_account_group(dep: BondDeployment, sender: Address, target: Address, value: int) -> TransactionGroup:
    return _FREEZE.build(dep, sender, target=target, value=value)


def build_buy_group(dep: BondDeployment, investor: Address, amount: int) -> TransactionGroup:
    """Primary-market purchase of `amount` bond base units at the issue cost."""
    return _BUY.build(dep, investor, quantity=amount)


def build_set_trade_group(dep: BondDeployment, seller: Address, amount: int) -> TransactionGroup:
    return _SET_TRADE.build(dep, seller, quantity=amount)


def make_trade_offer(dep: BondDeployment, seller: Address, price_per_bond: int, expiry: int) -> TradeOffer:
    """Delegated signature a buyer can use to execute the seller's side of a
    trade at the stated price until expiry.  The offer itself never touches
    the ledger; replay is bounded by the seller's on-ledger trade allowance."""
    def predicate(group, idx, now) -> bool:
        return now < expiry and _TRADE_OFFER_CHECK.failure(group.txns, idx, dep, seller, price=price_per_bond) is None

    program = StatelessProgram(
        "trade-offer",
        (dep.main_app_id, seller, price_per_bond, expiry),
        predicate,
    )
    return TradeOffer(seller, price_per_bond, expiry, LogicSig(program, delegator=seller))


def build_trade_group(dep: BondDeployment, offer: TradeOffer, buyer: Address, amount: int) -> TransactionGroup:
    return _TRADE.build(dep, offer.seller, buyer=buyer, quantity=amount, price=offer.price_per_bond, offer=offer.lsig)


def build_fund_escrow_group(dep: BondDeployment, funder: Address, amount: int) -> TransactionGroup:
    """Stablecoin into the payment escrow."""
    return _FUND_ESCROW.build(dep, funder, quantity=amount)


def build_coupon_group(ledger: Ledger, dep: BondDeployment, investor: Address) -> TransactionGroup:
    """Coupon claim for the investor's next round, priced off the round's
    rating as currently recorded (unrated rounds pay the top-rating coupon)."""
    p = dep.params
    acc = ledger._account(investor)  # the holding and the coupon counter, in one lookup
    local = acc.local.get(dep.main_app_id)
    paid = (local and local.get(KEY_COUPONS_PAID)) or 0
    round_no = min(paid + 1, max(p.coupon_rounds, 1))
    raw = ledger.app_global(dep.manage_app_id, _rating_key(round_no)) if round_no <= p.coupon_rounds else None
    rating = _slot_rating(raw, round_no)
    return _COUPON.build(dep, investor, payout=acc.holdings.get(dep.bond_asset_id, 0) * p.coupons[rating] // UNIT)


def build_principal_group(ledger: Ledger, dep: BondDeployment, investor: Address) -> TransactionGroup:
    """Principal redemption: all bonds owned return to escrow in exchange for
    the face value of each."""
    return _PRINCIPAL.build(dep, investor, holdings=ledger.asset_balance(investor, dep.bond_asset_id))


def build_default_group(ledger: Ledger, dep: BondDeployment, investor: Address) -> TransactionGroup:
    """Default recovery: surrender all bonds for a pro-rata share of the
    escrow funds above the reserve, at current circulation."""
    holdings = ledger.asset_balance(investor, dep.bond_asset_id)
    funds = ledger.asset_balance(dep.stablecoin_escrow, dep.params.stablecoin_id)
    reserve = ledger.app_global(dep.main_app_id, KEY_RESERVE) or 0
    circulation = bonds_in_circulation(ledger, dep)
    payout = (funds - reserve) * holdings // circulation if circulation else 0
    return _DEFAULT.build(dep, investor, holdings=holdings, payout=payout)


def build_rate_group(dep: BondDeployment, verifier: Address, rating: int) -> TransactionGroup:
    return _RATE.build(dep, verifier, rating=rating)


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
    keys = KEY_COUPONS_PAID, KEY_RESERVE, KEY_FROZEN
    return tuple(ledger.app_global(dep.main_app_id, key) or 0 for key in keys)


def investor_local_state(ledger: Ledger, dep: BondDeployment, investor: Address) -> Tuple[int, int, int]:
    """(coupons_paid, trade, frozen) from the investor's main-app local state."""
    keys = KEY_COUPONS_PAID, KEY_TRADE, KEY_FROZEN
    return tuple(ledger.app_local(investor, dep.main_app_id, key) or 0 for key in keys)


# ---------------------------------------------------------------------------
# submitting actions: build, submit, and leave the cost entry on approval
#
# Each action builds its group from its shape and takes the one path below; a
# report anchor, which `reports.anchor_report` submits, leaves the same entry.


def _submit(ledger: Ledger, dep: BondDeployment, shape: _Shape, group: TransactionGroup) -> SubmitResult:
    """Submit an action's group; once approved, leave its cost rows (each
    payer's fees plus what it paid into the escrows) for `CostLedger.rows`
    to make from the group's place at the end of the log."""
    result = ledger.submit_group(group)
    if result.approved:
        ledger.cost.pending.append((shape.costs, dep.main_app_id, len(ledger._txns) - len(group.txns)))
    return result


def register_investor(ledger: Ledger, dep: BondDeployment, investor: Address) -> SubmitResult:
    """Opt the investor into the bond asset, unless it already holds it, then
    into the main app: two groups the investor pays, each costed by its shape."""
    if dep.bond_asset_id not in ledger._account(investor).holdings:
        result = _submit(ledger, dep, _OPT_IN_ASSET, _OPT_IN_ASSET.build(dep, investor))
        if result.rejected:
            return result
    return _submit(ledger, dep, _OPT_IN_MAIN, _OPT_IN_MAIN.build(dep, investor))


def submit_freeze_all(ledger: Ledger, dep: BondDeployment, sender: Address, value: int) -> SubmitResult:
    return _submit(ledger, dep, _FREEZE_ALL, build_freeze_all_group(dep, sender, value))


def submit_freeze_account(ledger: Ledger, dep: BondDeployment, sender: Address, target: Address, value: int) -> SubmitResult:
    return _submit(ledger, dep, _FREEZE, build_freeze_account_group(dep, sender, target, value))


def submit_buy(ledger: Ledger, dep: BondDeployment, investor: Address, amount: int) -> SubmitResult:
    return _submit(ledger, dep, _BUY, build_buy_group(dep, investor, amount))


def submit_set_trade(ledger: Ledger, dep: BondDeployment, seller: Address, amount: int) -> SubmitResult:
    return _submit(ledger, dep, _SET_TRADE, build_set_trade_group(dep, seller, amount))


def submit_trade(ledger: Ledger, dep: BondDeployment, offer: TradeOffer, buyer: Address, amount: int) -> SubmitResult:
    return _submit(ledger, dep, _TRADE, build_trade_group(dep, offer, buyer, amount))


def submit_fund_escrow(ledger: Ledger, dep: BondDeployment, funder: Address, amount: int) -> SubmitResult:
    return _submit(ledger, dep, _FUND_ESCROW, build_fund_escrow_group(dep, funder, amount))


def submit_coupon(ledger: Ledger, dep: BondDeployment, investor: Address) -> SubmitResult:
    return _submit(ledger, dep, _COUPON, build_coupon_group(ledger, dep, investor))


def submit_principal(ledger: Ledger, dep: BondDeployment, investor: Address) -> SubmitResult:
    return _submit(ledger, dep, _PRINCIPAL, build_principal_group(ledger, dep, investor))


def submit_default(ledger: Ledger, dep: BondDeployment, investor: Address) -> SubmitResult:
    return _submit(ledger, dep, _DEFAULT, build_default_group(ledger, dep, investor))


def submit_rate(ledger: Ledger, dep: BondDeployment, verifier: Address, rating: int) -> SubmitResult:
    return _submit(ledger, dep, _RATE, build_rate_group(dep, verifier, rating))


def submit_report_anchor(ledger: Ledger, dep: BondDeployment, sender: Address, cid: str) -> SubmitResult:
    result = reports.anchor_report(ledger, sender, dep.manage_app_id, cid)
    if result.approved:
        ledger.cost.pending.append((_ANCHOR.costs, dep.main_app_id, len(ledger._txns) - 1))
    return result
