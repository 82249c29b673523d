"""Declarative scenario scripts: parsing, static validation, and replay.

A scenario is a line-oriented script: one step per line, `#` comments,
symbolic names bound by `create-account NAME` / `issue NAME ...` and so on.
Execution is single-threaded and fully deterministic; the transcript records
one line per step in the form

    STEP <n> <action> -> APPROVED|REJECTED(<reason>)

Each verb has one entry in `_VERBS`: its least and most argument counts, a
bind function and an executor.  `parse_scenario` reads every token once,
before the run: the bind function checks the step's names against those the
script has bound so far and parses its integers, amounts, bond quantities,
rating indices and assert operands.  A parsed step is the plain tuple
`(lineno, verb, raw, execute, operands)`: its line number, its verb, its line
without the comment, the verb's executor and the operands bound for it.
`ScenarioRunner.run` hands the operands to the executor, which looks the
names up and acts on the ledger without parsing anything again.

Protocol rejections do not stop a run (they are data for `assert rejected`);
a failing `assert` stops the run with exit code 1, and so does a failure of
the environment (an unreadable report file, an empty faucet, a bond whose
`issue` step was rejected), as `REJECTED(<code>: <detail>)`.

A `report-put NAME file=PATH` reads a file in the script's directory, which
the runner is given: PATH is relative to it, an absolute path, a `..`
component or no file (`file=.`) is a parse error, and a path that a symlink
leads out of the directory is unreadable, as is any file when the runner
has no directory.

An `offer` step's terms are bound to every `trade` step that names the
offer; its delegated signature is built when such a trade runs, so offers
that are never traded cost no more than their parse.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from decimal import Context, Decimal, DecimalException, DivisionByZero, Inexact, InvalidOperation, Overflow
from pathlib import Path, PurePath
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import greenbond as gb
from .ledger import InsufficientBalance, Ledger, LedgerError, Rejection, SubmitResult
from .reports import ReportStore

UNIT = gb.UNIT

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")
_INLINE_COMMENT_RE = re.compile(r"\s#")  # a '#' preceded by whitespace
_RESERVED_NAMES = {"faucet", "all", "rejected"}
# A nonzero scaled amount or quantity of more than this many digits is refused
# before `int()` builds it; `int()` puts the same limit on the digit strings
# it reads.
_MAX_DIGITS = 4300
# Multiplying in this context is exact or raises (Inexact past 4,300 digits).
_EXACT = Context(prec=_MAX_DIGITS, traps=[DivisionByZero, Inexact, InvalidOperation, Overflow])

_GLOBAL_KEYS = {
    "coupons-paid": gb.KEY_COUPONS_PAID,
    "reserve": gb.KEY_RESERVE,
    "frozen": gb.KEY_FROZEN,
}
_LOCAL_KEYS = {
    "coupons-paid": gb.KEY_COUPONS_PAID,
    "trade": gb.KEY_TRADE,
    "frozen": gb.KEY_FROZEN,
}
_COMPARATORS: dict = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class ScenarioError(Exception):
    """Parse/validation failure; maps to exit code 2."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class RunStopped(Exception):
    """A step the run cannot go past: a failed assert, or an environment
    failure such as an unreadable report file, an empty faucet or a bond
    whose `issue` step was rejected.  The step reads `REJECTED(<code>:
    <detail>)` and the run ends with exit code 1."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code


class AssertionFailure(RunStopped):
    def __init__(self, detail: str):
        super().__init__("assert_failed", detail)


@dataclass
class RunOutcome:
    exit_code: int
    transcript: List[str] = field(default_factory=list)

    def transcript_text(self) -> str:
        return "\n".join([*self.transcript, ""])  # every line ends in a newline


# ---------------------------------------------------------------------------
# value parsing


def _scaled(number: str, lineno: int, token: str, what: str) -> int:
    """`number` times UNIT, exactly: a value with more than 6 decimal places
    or more than 4,300 digits is refused, never rounded."""
    try:
        scaled = _EXACT.multiply(Decimal(number), UNIT)
        if scaled != scaled.to_integral_value():
            raise ScenarioError(lineno, f"more than 6 decimal places: {token}")
        if scaled and scaled.adjusted() >= _MAX_DIGITS:
            raise ScenarioError(lineno, f"bad {what}: {token}")
        return int(scaled)
    except (DecimalException, ValueError, OverflowError):  # bad syntax, huge exponent, Infinity
        raise ScenarioError(lineno, f"bad {what}: {token}") from None


def parse_money(token: str, lineno: int = 0) -> int:
    """Stablecoin amounts: `$12.34` means dollars (max 6dp), bare integers
    are base units."""
    if not token.startswith("$"):
        try:
            return int(token)
        except ValueError:
            raise ScenarioError(lineno, f"bad amount: {token}") from None
    dollars = token[1:]
    # whole ASCII-digit dollars skip Decimal; both ways give the same value
    if dollars.isascii() and dollars.isdigit() and len(dollars) <= 22:
        return int(dollars) * UNIT
    return _scaled(dollars, lineno, token, "amount")


def parse_bonds(token: str, lineno: int = 0) -> int:
    """Bond quantities are decimal whole bonds (max 6dp), scaled to base units."""
    return _scaled(token, lineno, token, "bond quantity")


def parse_int(token: str, lineno: int = 0) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScenarioError(lineno, f"bad integer: {token}") from None


def _parse_kv(args: list, lineno: int) -> dict:
    pairs = {}
    for token in args:
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise ScenarioError(lineno, f"expected key=value, got: {token}")
        if key in pairs:
            raise ScenarioError(lineno, f"duplicate key: {key}")
        pairs[key] = value
    return pairs


# ---------------------------------------------------------------------------
# parsing: each step binds its operands once


class _Verb(NamedTuple):
    min_args: int
    max_args: Optional[int]  # None: the bind function checks the rest of the line
    bind: Callable[..., tuple]  # (scope, lineno, args) -> operands
    execute: Callable[..., Optional[SubmitResult]]  # (runner, *operands) -> result


class _Scope:
    """What validation knows of the names a script has bound so far."""

    def __init__(self):
        self.kinds: dict = {}  # name -> "account" | "bond" | "offer" | "report"
        self.rounds: dict = {}  # bond name -> coupon rounds
        self.offers: dict = {}  # offer name -> its terms (bond, seller, price, expiry)
        self.last_time = 0
        self.line = ""  # the step being bound, after comment stripping

    def new(self, lineno: int, name: str, kind: str) -> str:
        if not _NAME_RE.match(name) or name in _RESERVED_NAMES:
            raise ScenarioError(lineno, f"bad {kind} name: {name}")
        if name in self.kinds:
            raise ScenarioError(lineno, f"name already defined: {name}")
        self.kinds[name] = kind
        return name

    def ref(self, lineno: int, name: str, kind: str) -> str:
        if self.kinds.get(name) != kind:
            raise ScenarioError(lineno, f"undefined {kind}: {name}")
        return name


def parse_scenario(text: str) -> List[tuple]:
    """Each step is the tuple `(lineno, verb, raw, execute, operands)`: `raw`
    is the line without its comment; `execute(runner, *operands)` runs it."""
    steps: List[tuple] = []
    append = steps.append
    verbs = _VERBS
    scope = _Scope()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line[0] == "#":
            continue
        if "#" in line:
            cut = _INLINE_COMMENT_RE.search(line)
            if cut:
                line = line[: cut.start()].rstrip()
        verb, *args = line.split()
        spec = verbs.get(verb)
        if spec is None:
            raise ScenarioError(lineno, f"unknown step: {verb}")
        min_args, max_args, bind, execute = spec
        if len(args) < min_args:
            raise ScenarioError(lineno, f"{verb}: expected at least {min_args} argument(s)")
        if max_args is not None and len(args) > max_args:
            raise ScenarioError(lineno, f"{verb}: expected at most {max_args} argument(s)")
        scope.line = line
        append((lineno, verb, line, execute, bind(scope, lineno, args)))
    return steps


# ---------------------------------------------------------------------------
# execution


class ScenarioRunner:
    """Replays a parsed scenario against a fresh ledger.

    The runner owns the environment plumbing: a faucet account that mints
    microAlgos, and the stablecoin asset whose dispenser hands out funds
    (receiving stablecoin never costs the recipient anything).  `directory`
    is the script's: the only place a `report-put` step reads files from."""

    def __init__(self, directory=None):
        self.directory = directory
        self.ledger = Ledger()
        self.store = ReportStore()
        self.faucet = self.ledger.create_account("faucet")
        self.ledger.fund_algos(self.faucet, 10**15)
        self.stablecoin_id = self.ledger.create_asset(self.faucet, total=1_000_000_000_000, decimals=6)
        self.accounts: dict = {}
        self.bonds: dict = {}
        self.reports: dict = {}
        self.last_action: Optional[SubmitResult] = None

    def fund_stablecoin(self, addr: str, amount: int) -> None:
        try:
            self.ledger.dispense_asset(self.stablecoin_id, self.faucet, addr, amount)
        except InsufficientBalance as exc:
            raise RunStopped("faucet_empty", str(exc)) from None

    def _bond(self, name: str) -> gb.BondDeployment:
        dep = self.bonds.get(name)
        if dep is None:  # its `issue` step was rejected
            raise RunStopped("bond_not_issued", name)
        return dep

    def run(self, steps: List[tuple]) -> RunOutcome:
        outcome = RunOutcome(EXIT_OK)
        append = outcome.transcript.append
        for n, (_, verb, _, execute, operands) in enumerate(steps, start=1):
            try:
                result = execute(self, *operands)
            except RunStopped as failure:
                append(f"STEP {n} {verb} -> REJECTED({failure.code}: {failure})")
                outcome.exit_code = EXIT_FAILURE
                return outcome
            if result is not None:
                self.last_action = result
            if result is None or result.approved:
                append(f"STEP {n} {verb} -> APPROVED")
            else:
                append(f"STEP {n} {verb} -> REJECTED({result.reason()})")
        return outcome


def run_scenario_text(text: str, directory=None) -> Tuple[RunOutcome, ScenarioRunner]:
    steps = parse_scenario(text)
    runner = ScenarioRunner(directory)
    return runner.run(steps), runner


# ---------------------------------------------------------------------------
# the verbs: how each binds its tokens, and what it does with them


def _bind_holder(scope: _Scope, lineno: int, args: list) -> tuple:
    """BOND ACCOUNT, the first two arguments of most protocol steps."""
    return scope.ref(lineno, args[0], "bond"), scope.ref(lineno, args[1], "account")


def _non_negative(amount: int, token: str, lineno: int) -> int:
    if amount < 0:
        raise ScenarioError(lineno, f"negative amount: {token}")
    return amount


def _bind_create_account(scope, lineno, args):
    return (scope.new(lineno, args[0], "account"),)


def _create_account(runner, name):
    runner.accounts[name] = runner.ledger.create_account(name)


def _bind_fund_algos(scope, lineno, args):
    return scope.ref(lineno, args[0], "account"), _non_negative(parse_int(args[1], lineno), args[1], lineno)


def _fund_algos(runner, name, amount):
    runner.ledger.fund_algos(runner.accounts[name], amount)


def _bind_fund_stablecoin(scope, lineno, args):
    return scope.ref(lineno, args[0], "account"), _non_negative(parse_money(args[1], lineno), args[1], lineno)


def _fund_stablecoin(runner, name, amount):
    runner.fund_stablecoin(runner.accounts[name], amount)


_ISSUE_ROLES = ("operator", "issuer", "verifier", "regulator")
_ISSUE_INTS = {"bonds": "total_bonds", "start-buy": "start_buy", "end-buy": "end_buy", "maturity": "maturity"}
_ISSUE_MONEY = {"cost": "bond_cost", "coupon": "coupon_base", "principal": "principal"}
_ISSUE_KEYS = {*_ISSUE_ROLES, *_ISSUE_INTS, *_ISSUE_MONEY, "rounds"}


def _bind_issue(scope, lineno, args):
    name = scope.new(lineno, args[0], "bond")
    kv = _parse_kv(args[1:], lineno)
    missing = _ISSUE_KEYS - kv.keys()
    if missing:
        raise ScenarioError(lineno, f"issue: missing {', '.join(sorted(missing))}")
    unknown = kv.keys() - _ISSUE_KEYS
    if unknown:
        raise ScenarioError(lineno, f"issue: unknown {', '.join(sorted(unknown))}")
    roles = tuple(scope.ref(lineno, kv[role], "account") for role in _ISSUE_ROLES)
    terms = {param: parse_int(kv[key], lineno) for key, param in _ISSUE_INTS.items()}
    terms.update({param: parse_money(kv[key], lineno) for key, param in _ISSUE_MONEY.items()})
    terms["coupon_rounds"] = scope.rounds[name] = parse_int(kv["rounds"], lineno)
    return name, roles, terms


def _issue(runner, name, roles, terms):
    operator, issuer, verifier, regulator = (runner.accounts[role] for role in roles)
    params = gb.BondParams(
        **terms,
        issuer=issuer,
        green_verifier=verifier,
        financial_regulator=regulator,
        stablecoin_id=runner.stablecoin_id,
    )
    try:
        dep = gb.issue(runner.ledger, params, operator)
    except (LedgerError, ValueError) as exc:
        return SubmitResult(False, Rejection("issue_failed", {"error": str(exc)}))
    runner.bonds[name] = dep
    # the issuer collects stablecoin sale proceeds; holding is free plumbing
    runner.fund_stablecoin(issuer, 0)
    return SubmitResult(True)


def _bind_approve_bond(scope, lineno, args):  # runs as `freeze BOND all VALUE`, VALUE 1 by default
    bond = scope.ref(lineno, args[0], "bond")
    return bond, "all", parse_int(args[1], lineno) if len(args) > 1 else 1


def _bind_approve_account(scope, lineno, args):
    bond, name = _bind_holder(scope, lineno, args)
    return bond, name, parse_int(args[2], lineno) if len(args) > 2 else 1


def _approve_account(runner, bond, name, value):
    dep = runner._bond(bond)
    addr = runner.accounts[name]
    if not runner.ledger.is_opted_in(addr, dep.main_app_id):
        result = gb.register_investor(runner.ledger, dep, addr)
        if result.rejected:
            return result
    return gb.submit_freeze_account(runner.ledger, dep, dep.params.financial_regulator, addr, value)


def _bind_freeze(scope, lineno, args):
    bond = scope.ref(lineno, args[0], "bond")
    if args[1] != "all":
        scope.ref(lineno, args[1], "account")
    return bond, args[1], parse_int(args[2], lineno)


def _freeze(runner, bond, target, value):
    dep = runner._bond(bond)
    regulator = dep.params.financial_regulator
    if target == "all":
        return gb.submit_freeze_all(runner.ledger, dep, regulator, value)
    return gb.submit_freeze_account(runner.ledger, dep, regulator, runner.accounts[target], value)


def _bind_quantity(scope, lineno, args):  # BOND ACCOUNT QUANTITY
    return (*_bind_holder(scope, lineno, args), parse_bonds(args[2], lineno))


def _submits(action: str):
    """The executor of a step BOND ACCOUNT [VALUE]: the account submits
    `gb.submit_<action>`, looked up per call (a wrapper may stand in)."""

    submit = f"submit_{action}"

    def execute(runner, bond, name, *value):
        return getattr(gb, submit)(runner.ledger, runner._bond(bond), runner.accounts[name], *value)

    return execute


_OFFER_KEYS = frozenset(("seller", "price", "expiry"))


def _bind_offer(scope, lineno, args):
    bond = scope.ref(lineno, args[0], "bond")
    kv = _parse_kv(args[2:], lineno)
    if kv.keys() != _OFFER_KEYS:
        raise ScenarioError(lineno, "offer: expected seller=, price=, expiry=")
    # one string per seller, not one per offer line: scripts hold many offers
    seller = sys.intern(scope.ref(lineno, kv["seller"], "account"))
    terms = bond, seller, parse_money(kv["price"], lineno), parse_int(kv["expiry"], lineno)
    scope.offers[scope.new(lineno, args[1], "offer")] = terms
    return terms


def _offer(runner, bond, seller, price, expiry):
    # the terms are bound to each `trade` that names the offer; the run only
    # checks that the bond was issued
    runner._bond(bond)


def _bind_trade(scope, lineno, args):
    bond = scope.ref(lineno, args[0], "bond")
    offer = scope.offers[scope.ref(lineno, args[1], "offer")]
    buyer = scope.ref(lineno, args[2], "account")
    return bond, offer, buyer, parse_bonds(args[3], lineno)


def _trade(runner, bond, offer, buyer, amount):
    dep = runner._bond(bond)
    offer_bond, seller, price, expiry = offer
    signed = gb.make_trade_offer(runner.bonds[offer_bond], runner.accounts[seller], price, expiry)
    return gb.submit_trade(runner.ledger, dep, signed, runner.accounts[buyer], amount)


def _bind_fund_escrow(scope, lineno, args):
    return (*_bind_holder(scope, lineno, args), parse_money(args[2], lineno))


def _bind_rate(scope, lineno, args):
    return (*_bind_holder(scope, lineno, args), parse_int(args[2], lineno))


def _bind_report_put(scope, lineno, args):
    payload = scope.line.split(None, 2)[2]
    if payload.startswith("data="):
        data, path = payload[len("data="):].encode("utf-8"), None
    elif payload.startswith("file="):
        data, path = None, payload[len("file="):].strip()
        pure = PurePath(path)
        if not pure.parts or pure.is_absolute() or ".." in pure.parts:
            raise ScenarioError(lineno, f"report-put: file= must name a file in the script's directory: {path}")
    else:
        raise ScenarioError(lineno, "report-put: expected data=... or file=...")
    return scope.new(lineno, args[0], "report"), data, path


def _report_put(runner, name, data, path):
    if path is not None:
        if runner.directory is None:
            raise RunStopped("file_unreadable", f"no script directory to read {path} from")
        try:
            directory = Path(runner.directory).resolve()
            target = (directory / path).resolve()
            if not target.is_relative_to(directory):
                raise RunStopped("file_unreadable", f"{path} leads out of the script's directory")
            data = target.read_bytes()
        except (OSError, RuntimeError, ValueError) as exc:  # a symlink loop, a NUL byte
            raise RunStopped("file_unreadable", str(exc)) from None
    runner.reports[name] = runner.store.store(data)


def _bind_report_anchor(scope, lineno, args):
    return (*_bind_holder(scope, lineno, args), scope.ref(lineno, args[2], "report"))


def _report_anchor(runner, bond, sender, report):
    dep = runner._bond(bond)
    return gb.submit_report_anchor(runner.ledger, dep, runner.accounts[sender], runner.reports[report])


def _bind_advance_time(scope, lineno, args):
    t = parse_int(args[0], lineno)
    if t < scope.last_time:
        raise ScenarioError(lineno, f"time moves backwards: {t} < {scope.last_time}")
    scope.last_time = t
    return (t,)


def _advance_time(runner, t):
    runner.ledger.advance_time(t)


# assert TARGET OPERANDS... CMP VALUE: the operands each target names, and how
# it reads the actual value from the run
_ASSERT_TARGETS = {
    "algo-balance": ("NAME", lambda r, a: r.ledger.algo_balance(r.accounts[a])),
    "stablecoin-balance": ("NAME", lambda r, a: r.ledger.asset_balance(r.accounts[a], r.stablecoin_id)),
    "cost-total": ("NAME", lambda r, a: r.ledger.cost.total_for(r.accounts[a])),
    "bond-balance": (
        "BOND NAME",
        lambda r, b, a: r.ledger.asset_balance(r.accounts[a], r._bond(b).bond_asset_id),
    ),
    "global-state": ("BOND KEY", lambda r, b, key: r.ledger.app_global(r._bond(b).main_app_id, key) or 0),
    "local-state": (
        "BOND NAME KEY",
        lambda r, b, a, key: r.ledger.app_local(r.accounts[a], r._bond(b).main_app_id, key) or 0,
    ),
    "rating": ("BOND INDEX", lambda r, b, index: gb.get_rating(r.ledger, r._bond(b), index)),
}


def _bind_assert(scope, lineno, args):
    target, rest = args[0], args[1:]
    if target == "rejected":
        if len(rest) > 1 or (rest and rest[0] not in ("true", "false")):
            raise ScenarioError(lineno, "assert rejected: expected nothing, true or false")
        return _assert_rejected, not rest or rest[0] == "true"
    if target not in _ASSERT_TARGETS:
        raise ScenarioError(lineno, f"unknown assert target: {target}")
    shape, read = _ASSERT_TARGETS[target]
    kinds = shape.split()
    keys = _GLOBAL_KEYS if target == "global-state" else _LOCAL_KEYS
    if len(rest) != len(kinds) + 2 or ("KEY" in kinds and rest[kinds.index("KEY")] not in keys):
        raise ScenarioError(lineno, f"assert {target}: expected {shape} CMP VALUE")
    operands = []
    for kind, token in zip(kinds, rest):
        if kind == "BOND":
            operands.append(scope.ref(lineno, token, "bond"))
        elif kind == "NAME":
            operands.append(scope.ref(lineno, token, "account"))
        elif kind == "KEY":
            operands.append(keys[token])
        else:  # INDEX: a rating round, 0 up to the bond's rounds
            index, rounds = parse_int(token, lineno), scope.rounds[rest[0]]
            if not 0 <= index <= rounds:
                raise ScenarioError(lineno, f"rating index out of range: {index} (bond has {rounds} rounds)")
            operands.append(index)
    cmp_token = rest[-2]
    if cmp_token not in _COMPARATORS:
        raise ScenarioError(lineno, f"unknown comparison: {cmp_token}")
    expected = _operand_parser(target, rest)(rest[-1], lineno)
    label = f"{target} {' '.join(rest[:-2])}"
    return _assert_compare, read, tuple(operands), cmp_token, _COMPARATORS[cmp_token], expected, label


def _operand_parser(target: str, rest: list):
    """How an assert's expected value is read: money, bonds or an integer."""
    if target == "stablecoin-balance" or (target == "global-state" and rest[1] == "reserve"):
        return parse_money
    if target == "bond-balance" or (target == "local-state" and rest[2] == "trade"):
        return parse_bonds
    return parse_int


def _assert(runner, check, *operands):
    """An assert step binds which check it makes, with that check's operands."""
    check(runner, *operands)


def _assert_rejected(runner, expected):
    last = runner.last_action
    if last is None:
        raise AssertionFailure("no prior action")
    if last.rejected != expected:
        raise AssertionFailure(
            f"expected rejected={str(expected).lower()}, last action "
            f"{'rejected: ' + last.reason() if last.rejected else 'approved'}"
        )


def _assert_compare(runner, read, names, cmp_token, compare, expected, label):
    actual = read(runner, *names)
    if not compare(actual, expected):
        raise AssertionFailure(f"{label}: {actual} {cmp_token} {expected} is false")


_VERBS = {
    "create-account": _Verb(1, 1, _bind_create_account, _create_account),
    "fund-algos": _Verb(2, 2, _bind_fund_algos, _fund_algos),
    "fund-stablecoin": _Verb(2, 2, _bind_fund_stablecoin, _fund_stablecoin),
    "issue": _Verb(2, None, _bind_issue, _issue),
    "approve-bond": _Verb(1, 2, _bind_approve_bond, _freeze),
    "approve-account": _Verb(2, 3, _bind_approve_account, _approve_account),
    "freeze": _Verb(3, 3, _bind_freeze, _freeze),
    "buy": _Verb(3, 3, _bind_quantity, _submits("buy")),
    "set-trade": _Verb(3, 3, _bind_quantity, _submits("set_trade")),
    "offer": _Verb(2, None, _bind_offer, _offer),
    "trade": _Verb(4, 4, _bind_trade, _trade),
    "fund-escrow": _Verb(3, 3, _bind_fund_escrow, _submits("fund_escrow")),
    "rate": _Verb(3, 3, _bind_rate, _submits("rate")),
    "claim-coupon": _Verb(2, 2, _bind_holder, _submits("coupon")),
    "claim-principal": _Verb(2, 2, _bind_holder, _submits("principal")),
    "claim-default": _Verb(2, 2, _bind_holder, _submits("default")),
    "report-put": _Verb(2, None, _bind_report_put, _report_put),
    "report-anchor": _Verb(3, 3, _bind_report_anchor, _report_anchor),
    "advance-time": _Verb(1, 1, _bind_advance_time, _advance_time),
    "assert": _Verb(1, None, _bind_assert, _assert),
}


# ---------------------------------------------------------------------------
# cost reporting


def _add_row(totals: dict, key, row) -> None:
    amount, min_delta, fee = totals.get(key, (0, 0, 0))
    totals[key] = (amount + row.amount, min_delta + row.min_delta, fee + row.fee)


def format_costs(runner: ScenarioRunner) -> str:
    """Per-actor totals plus per-action rows, with one issuance table per bond,
    summed in one pass over the cost rows."""
    names = {addr: name for name, addr in runner.accounts.items()}
    issuance_labels = set(gb.ISSUANCE_ROW_ORDER)
    actor_totals: dict = {}  # address -> (amount, min_delta, fee)
    issuance_totals: dict = {}  # (deployment tag, label) -> the same
    action_totals: dict = {}  # (actor name, label) -> the same
    for row in runner.ledger.cost.rows:
        _add_row(actor_totals, row.actor, row)
        if row.label in issuance_labels:
            _add_row(issuance_totals, (row.tag, row.label), row)
        else:
            _add_row(action_totals, (names.get(row.actor, row.actor), row.label), row)

    lines = ["PER-ACTOR COSTS (microAlgos)", f"{'actor':<16}{'amount':>12}{'min_balance':>14}{'fee':>10}{'total':>12}"]
    for name, addr in runner.accounts.items():
        if addr in actor_totals:
            amount, min_delta, fee = actor_totals[addr]
            lines.append(f"{name:<16}{amount:>12}{min_delta:>14}{fee:>10}{amount + min_delta + fee:>12}")

    for bond_name, dep in runner.bonds.items():
        lines.append("")
        lines.append(f"ISSUANCE COSTS: {bond_name}")
        lines.append(f"{'action':<42}{'amount':>10}{'min_balance':>13}{'fee':>9}{'total':>10}")
        for label in gb.ISSUANCE_ROW_ORDER:
            if (dep.main_app_id, label) in issuance_totals:
                amount, min_delta, fee = issuance_totals[dep.main_app_id, label]
                lines.append(f"{label:<42}{amount:>10}{min_delta:>13}{fee:>9}{amount + min_delta + fee:>10}")

    if action_totals:
        lines.append("")
        lines.append("ACTION COSTS")
        lines.append(f"{'actor':<16}{'action':<20}{'amount':>10}{'min_balance':>13}{'fee':>9}{'total':>10}")
        for (actor, label), (amount, min_delta, fee) in action_totals.items():
            lines.append(
                f"{actor:<16}{label:<20}{amount:>10}{min_delta:>13}{fee:>9}{amount + min_delta + fee:>10}"
            )
    return "".join(line + "\n" for line in lines)
