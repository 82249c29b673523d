"""Declarative scenario scripts: parsing, static validation, and replay.

A scenario is a line-oriented script: one step per line, `#` comments,
symbolic names bound by `create-account NAME` / `issue NAME ...` and so on.
Execution is single-threaded and fully deterministic; the transcript records
one line per step in the form

    STEP <n> <action> -> APPROVED|REJECTED(<reason>)

Protocol rejections do not stop a run (they are data for `assert rejected`);
a failing `assert` stops the run with exit code 1, and so does a failure of
the environment (an unreadable report file, an empty faucet, a bond whose
`issue` step was rejected), as `REJECTED(<code>: <detail>)`.

An `offer` step keeps the offer's terms; its delegated signature is built
when a `trade` step uses it, so offers that are never traded cost no more
than their parse.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal, DecimalException
from typing import List, Optional, Tuple

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


@dataclass(frozen=True)
class Step:
    lineno: int
    verb: str
    args: tuple
    raw: str


@dataclass
class RunOutcome:
    exit_code: int
    transcript: List[str] = field(default_factory=list)

    def transcript_text(self) -> str:
        return "".join(line + "\n" for line in self.transcript)


# ---------------------------------------------------------------------------
# value parsing


def parse_money(token: str, lineno: int = 0) -> int:
    """Stablecoin amounts: `$12.34` means dollars (max 6dp), bare integers
    are base units."""
    try:
        if not token.startswith("$"):
            return int(token)
        dollars = token[1:]
        # Whole ASCII-digit dollars skip Decimal.  Up to 22 digits times UNIT
        # fit Decimal's default 28-digit precision, so both ways agree.
        if dollars.isascii() and dollars.isdigit() and len(dollars) <= 22:
            return int(dollars) * UNIT
        scaled = Decimal(dollars) * UNIT
        if scaled != scaled.to_integral_value():
            raise ScenarioError(lineno, f"more than 6 decimal places: {token}")
        return int(scaled)
    except (DecimalException, ValueError, OverflowError):  # bad syntax, huge exponent, Infinity
        raise ScenarioError(lineno, f"bad amount: {token}") from None


def parse_bonds(token: str, lineno: int = 0) -> int:
    """Bond quantities are decimal whole bonds (max 6dp), scaled to base units."""
    try:
        scaled = Decimal(token) * UNIT
    except DecimalException:  # bad syntax, exponent overflow
        raise ScenarioError(lineno, f"bad bond quantity: {token}") from None
    if scaled != scaled.to_integral_value():
        raise ScenarioError(lineno, f"more than 6 decimal places: {token}")
    try:
        return int(scaled)
    except OverflowError:  # Infinity
        raise ScenarioError(lineno, f"bad bond quantity: {token}") from None


def parse_int(token: str, lineno: int = 0) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScenarioError(lineno, f"bad integer: {token}") from None


def _parse_kv(args: tuple, lineno: int) -> dict:
    pairs = {}
    for token in args:
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise ScenarioError(lineno, f"expected key=value, got: {token}")
        pairs[key] = value
    return pairs


# ---------------------------------------------------------------------------
# parsing + static validation


_ISSUE_KEYS = {
    "operator",
    "issuer",
    "verifier",
    "regulator",
    "bonds",
    "rounds",
    "start-buy",
    "end-buy",
    "maturity",
    "cost",
    "coupon",
    "principal",
}


def parse_scenario(text: str) -> List[Step]:
    steps: List[Step] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "#" in line:
            cut = _INLINE_COMMENT_RE.search(line)
            if cut:
                line = line[: cut.start()].rstrip()
        tokens = line.split()
        steps.append(Step(lineno, tokens[0], tuple(tokens[1:]), line))
    _validate(steps)
    return steps


def _validate(steps: List[Step]) -> None:
    """Checks names and shapes, and parses every token that can be parsed
    before the run: integers, amounts, bond quantities, rating indices (up
    to the bond's `rounds=`) and assert operands."""
    accounts: dict = {}
    bonds: dict = {}  # bond name -> coupon rounds
    offers: dict = {}
    reports: dict = {}
    names: set = set()  # union of the four pools
    last_time = 0

    def need(step: Step, n: int) -> None:
        if len(step.args) < n:
            raise ScenarioError(step.lineno, f"{step.verb}: expected at least {n} argument(s)")

    def check_new(step: Step, name: str, kind: str, pool: dict) -> None:
        if not _NAME_RE.match(name) or name in _RESERVED_NAMES:
            raise ScenarioError(step.lineno, f"bad {kind} name: {name}")
        if name in names:
            raise ScenarioError(step.lineno, f"name already defined: {name}")
        names.add(name)
        pool[name] = None

    def check_ref(step: Step, name: str, pool: dict, kind: str) -> None:
        if name not in pool:
            raise ScenarioError(step.lineno, f"undefined {kind}: {name}")

    for step in steps:
        verb = step.verb
        if verb == "create-account":
            need(step, 1)
            check_new(step, step.args[0], "account", accounts)
        elif verb in ("fund-algos", "fund-stablecoin"):
            need(step, 2)
            check_ref(step, step.args[0], accounts, "account")
            parse = parse_int if verb == "fund-algos" else parse_money
            if parse(step.args[1], step.lineno) < 0:
                raise ScenarioError(step.lineno, f"negative amount: {step.args[1]}")
        elif verb == "issue":
            need(step, 2)
            check_new(step, step.args[0], "bond", bonds)
            kv = _parse_kv(step.args[1:], step.lineno)
            missing = _ISSUE_KEYS - kv.keys()
            if missing:
                raise ScenarioError(step.lineno, f"issue: missing {', '.join(sorted(missing))}")
            unknown = kv.keys() - _ISSUE_KEYS
            if unknown:
                raise ScenarioError(step.lineno, f"issue: unknown {', '.join(sorted(unknown))}")
            for role in ("operator", "issuer", "verifier", "regulator"):
                check_ref(step, kv[role], accounts, "account")
            for key in ("bonds", "start-buy", "end-buy", "maturity"):
                parse_int(kv[key], step.lineno)
            for key in ("cost", "coupon", "principal"):
                parse_money(kv[key], step.lineno)
            bonds[step.args[0]] = parse_int(kv["rounds"], step.lineno)
        elif verb == "approve-bond":
            need(step, 1)
            check_ref(step, step.args[0], bonds, "bond")
            if len(step.args) > 1:
                parse_int(step.args[1], step.lineno)
        elif verb == "approve-account":
            need(step, 2)
            check_ref(step, step.args[0], bonds, "bond")
            check_ref(step, step.args[1], accounts, "account")
            if len(step.args) > 2:
                parse_int(step.args[2], step.lineno)
        elif verb == "freeze":
            need(step, 3)
            check_ref(step, step.args[0], bonds, "bond")
            if step.args[1] != "all":
                check_ref(step, step.args[1], accounts, "account")
            parse_int(step.args[2], step.lineno)
        elif verb in ("buy", "set-trade"):
            need(step, 3)
            check_ref(step, step.args[0], bonds, "bond")
            check_ref(step, step.args[1], accounts, "account")
            parse_bonds(step.args[2], step.lineno)
        elif verb == "offer":
            need(step, 2)
            check_ref(step, step.args[0], bonds, "bond")
            kv = _parse_kv(step.args[2:], step.lineno)
            if set(kv) != {"seller", "price", "expiry"}:
                raise ScenarioError(step.lineno, "offer: expected seller=, price=, expiry=")
            check_ref(step, kv["seller"], accounts, "account")
            parse_money(kv["price"], step.lineno)
            parse_int(kv["expiry"], step.lineno)
            check_new(step, step.args[1], "offer", offers)
        elif verb == "trade":
            need(step, 4)
            check_ref(step, step.args[0], bonds, "bond")
            check_ref(step, step.args[1], offers, "offer")
            check_ref(step, step.args[2], accounts, "account")
            parse_bonds(step.args[3], step.lineno)
        elif verb == "fund-escrow":
            need(step, 3)
            check_ref(step, step.args[0], bonds, "bond")
            check_ref(step, step.args[1], accounts, "account")
            parse_money(step.args[2], step.lineno)
        elif verb == "rate":
            need(step, 3)
            check_ref(step, step.args[0], bonds, "bond")
            check_ref(step, step.args[1], accounts, "account")
            parse_int(step.args[2], step.lineno)
        elif verb in ("claim-coupon", "claim-principal", "claim-default"):
            need(step, 2)
            check_ref(step, step.args[0], bonds, "bond")
            check_ref(step, step.args[1], accounts, "account")
        elif verb == "report-put":
            need(step, 2)
            if not (step.args[1].startswith("data=") or step.args[1].startswith("file=")):
                raise ScenarioError(step.lineno, "report-put: expected data=... or file=...")
            check_new(step, step.args[0], "report", reports)
        elif verb == "report-anchor":
            need(step, 3)
            check_ref(step, step.args[0], bonds, "bond")
            check_ref(step, step.args[1], accounts, "account")
            check_ref(step, step.args[2], reports, "report")
        elif verb == "advance-time":
            need(step, 1)
            t = parse_int(step.args[0], step.lineno)
            if t < last_time:
                raise ScenarioError(step.lineno, f"time moves backwards: {t} < {last_time}")
            last_time = t
        elif verb == "assert":
            need(step, 1)
            _validate_assert(step, accounts, bonds)
        else:
            raise ScenarioError(step.lineno, f"unknown step: {verb}")


def _validate_assert(step: Step, accounts: dict, bonds: dict) -> None:
    target = step.args[0]
    rest = step.args[1:]

    def check(name: str, pool: dict, kind: str) -> None:
        if name not in pool:
            raise ScenarioError(step.lineno, f"undefined {kind}: {name}")

    if target == "rejected":
        if rest and rest[0] not in ("true", "false"):
            raise ScenarioError(step.lineno, "assert rejected: expected true or false")
        return
    if target in ("algo-balance", "stablecoin-balance", "cost-total"):
        if len(rest) != 3:
            raise ScenarioError(step.lineno, f"assert {target}: expected NAME CMP VALUE")
        check(rest[0], accounts, "account")
    elif target == "bond-balance":
        if len(rest) != 4:
            raise ScenarioError(step.lineno, "assert bond-balance: expected BOND NAME CMP VALUE")
        check(rest[0], bonds, "bond")
        check(rest[1], accounts, "account")
    elif target == "global-state":
        if len(rest) != 4 or rest[1] not in _GLOBAL_KEYS:
            raise ScenarioError(step.lineno, "assert global-state: expected BOND KEY CMP VALUE")
        check(rest[0], bonds, "bond")
    elif target == "local-state":
        if len(rest) != 5 or rest[2] not in _LOCAL_KEYS:
            raise ScenarioError(step.lineno, "assert local-state: expected BOND NAME KEY CMP VALUE")
        check(rest[0], bonds, "bond")
        check(rest[1], accounts, "account")
    elif target == "rating":
        if len(rest) != 4:
            raise ScenarioError(step.lineno, "assert rating: expected BOND INDEX CMP VALUE")
        check(rest[0], bonds, "bond")
        index, rounds = parse_int(rest[1], step.lineno), bonds[rest[0]]
        if not 0 <= index <= rounds:
            raise ScenarioError(step.lineno, f"rating index out of range: {index} (bond has {rounds} rounds)")
    else:
        raise ScenarioError(step.lineno, f"unknown assert target: {target}")
    cmp_token = rest[-2]
    if cmp_token not in _COMPARATORS:
        raise ScenarioError(step.lineno, f"unknown comparison: {cmp_token}")
    _operand_parser(target, rest)(rest[-1], step.lineno)


def _operand_parser(target: str, rest: tuple):
    """How an assert's expected value is read: money, bonds or an integer."""
    if target == "stablecoin-balance" or (target == "global-state" and rest[1] == "reserve"):
        return parse_money
    if target == "bond-balance" or (target == "local-state" and rest[2] == "trade"):
        return parse_bonds
    return parse_int


# ---------------------------------------------------------------------------
# execution


class ScenarioRunner:
    """Replays a parsed scenario against a fresh ledger.

    The runner owns the environment plumbing: a faucet account that mints
    microAlgos, and the stablecoin asset whose dispenser hands out funds
    (receiving stablecoin never costs the recipient anything)."""

    def __init__(self):
        self.ledger = Ledger()
        self.store = ReportStore()
        self.faucet = self.ledger.create_account("faucet")
        self.ledger.fund_algos(self.faucet, 10**15)
        self.stablecoin_id = self.ledger.create_asset(self.faucet, total=1_000_000_000_000, decimals=6)
        self.accounts: dict = {}
        self.bonds: dict = {}
        self.offers: dict = {}
        self.reports: dict = {}
        self.last_action: Optional[SubmitResult] = None

    # -- plumbing ------------------------------------------------------------

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

    def run(self, steps: List[Step]) -> RunOutcome:
        outcome = RunOutcome(EXIT_OK)
        for n, step in enumerate(steps, start=1):
            try:
                result = self._execute(step)
            except RunStopped as failure:
                outcome.transcript.append(f"STEP {n} {step.verb} -> REJECTED({failure.code}: {failure})")
                outcome.exit_code = EXIT_FAILURE
                return outcome
            if result is None:
                outcome.transcript.append(f"STEP {n} {step.verb} -> APPROVED")
            elif result.approved:
                outcome.transcript.append(f"STEP {n} {step.verb} -> APPROVED")
            else:
                outcome.transcript.append(f"STEP {n} {step.verb} -> REJECTED({result.reason()})")
        return outcome

    # -- step dispatch ---------------------------------------------------------

    def _execute(self, step: Step) -> Optional[SubmitResult]:
        method = getattr(self, "_do_" + step.verb.replace("-", "_"))
        return method(step)

    def _do_create_account(self, step: Step) -> None:
        self.accounts[step.args[0]] = self.ledger.create_account(step.args[0])

    def _do_fund_algos(self, step: Step) -> None:
        self.ledger.fund_algos(self.accounts[step.args[0]], parse_int(step.args[1], step.lineno))

    def _do_fund_stablecoin(self, step: Step) -> None:
        self.fund_stablecoin(self.accounts[step.args[0]], parse_money(step.args[1], step.lineno))

    def _do_issue(self, step: Step) -> SubmitResult:
        kv = _parse_kv(step.args[1:], step.lineno)
        params = gb.BondParams(
            total_bonds=parse_int(kv["bonds"], step.lineno),
            coupon_rounds=parse_int(kv["rounds"], step.lineno),
            start_buy=parse_int(kv["start-buy"], step.lineno),
            end_buy=parse_int(kv["end-buy"], step.lineno),
            maturity=parse_int(kv["maturity"], step.lineno),
            bond_cost=parse_money(kv["cost"], step.lineno),
            coupon_base=parse_money(kv["coupon"], step.lineno),
            principal=parse_money(kv["principal"], step.lineno),
            issuer=self.accounts[kv["issuer"]],
            green_verifier=self.accounts[kv["verifier"]],
            financial_regulator=self.accounts[kv["regulator"]],
            stablecoin_id=self.stablecoin_id,
        )
        try:
            dep = gb.issue(self.ledger, params, self.accounts[kv["operator"]])
        except (LedgerError, ValueError) as exc:
            self.last_action = SubmitResult(False, Rejection("issue_failed", {"error": str(exc)}))
            return self.last_action
        self.bonds[step.args[0]] = dep
        # the issuer collects stablecoin sale proceeds; holding is free plumbing
        self.fund_stablecoin(params.issuer, 0)
        self.last_action = SubmitResult(True)
        return self.last_action

    def _do_approve_bond(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        value = parse_int(step.args[1], step.lineno) if len(step.args) > 1 else 1
        self.last_action = gb.submit_freeze_all(self.ledger, dep, dep.params.financial_regulator, value)
        return self.last_action

    def _do_approve_account(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        addr = self.accounts[step.args[1]]
        value = parse_int(step.args[2], step.lineno) if len(step.args) > 2 else 1
        if not self.ledger.is_opted_in(addr, dep.main_app_id):
            result = gb.register_investor(self.ledger, dep, addr)
            if result.rejected:
                self.last_action = result
                return result
        self.last_action = gb.submit_freeze_account(
            self.ledger, dep, dep.params.financial_regulator, addr, value
        )
        return self.last_action

    def _do_freeze(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        value = parse_int(step.args[2], step.lineno)
        regulator = dep.params.financial_regulator
        if step.args[1] == "all":
            self.last_action = gb.submit_freeze_all(self.ledger, dep, regulator, value)
        else:
            target = self.accounts[step.args[1]]
            self.last_action = gb.submit_freeze_account(self.ledger, dep, regulator, target, value)
        return self.last_action

    def _do_buy(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        investor = self.accounts[step.args[1]]
        amount = parse_bonds(step.args[2], step.lineno)
        self.last_action = gb.submit_buy(self.ledger, dep, investor, amount)
        return self.last_action

    def _do_set_trade(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        seller = self.accounts[step.args[1]]
        amount = parse_bonds(step.args[2], step.lineno)
        self.last_action = gb.submit_set_trade(self.ledger, dep, seller, amount)
        return self.last_action

    def _do_offer(self, step: Step) -> None:
        # keeps the terms; `_do_trade` builds the signature from them
        dep = self._bond(step.args[0])
        kv = _parse_kv(step.args[2:], step.lineno)
        self.offers[step.args[1]] = (
            dep,
            self.accounts[kv["seller"]],
            parse_money(kv["price"], step.lineno),
            parse_int(kv["expiry"], step.lineno),
        )

    def _do_trade(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        offer = gb.make_trade_offer(*self.offers[step.args[1]])
        buyer = self.accounts[step.args[2]]
        amount = parse_bonds(step.args[3], step.lineno)
        self.last_action = gb.submit_trade(self.ledger, dep, offer, buyer, amount)
        return self.last_action

    def _do_fund_escrow(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        funder = self.accounts[step.args[1]]
        amount = parse_money(step.args[2], step.lineno)
        self.last_action = gb.submit_fund_escrow(self.ledger, dep, funder, amount)
        return self.last_action

    def _do_rate(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        verifier = self.accounts[step.args[1]]
        self.last_action = gb.submit_rate(self.ledger, dep, verifier, parse_int(step.args[2], step.lineno))
        return self.last_action

    def _do_claim_coupon(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        self.last_action = gb.submit_coupon(self.ledger, dep, self.accounts[step.args[1]])
        return self.last_action

    def _do_claim_principal(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        self.last_action = gb.submit_principal(self.ledger, dep, self.accounts[step.args[1]])
        return self.last_action

    def _do_claim_default(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        self.last_action = gb.submit_default(self.ledger, dep, self.accounts[step.args[1]])
        return self.last_action

    def _do_report_put(self, step: Step) -> None:
        payload = step.raw.split(None, 2)[2]
        if payload.startswith("data="):
            data = payload[len("data="):].encode("utf-8")
        else:
            path = payload[len("file="):].strip()
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                raise RunStopped("file_unreadable", str(exc)) from None
        self.reports[step.args[0]] = self.store.store(data)

    def _do_report_anchor(self, step: Step) -> SubmitResult:
        dep = self._bond(step.args[0])
        sender = self.accounts[step.args[1]]
        cid = self.reports[step.args[2]]
        self.last_action = gb.submit_report_anchor(self.ledger, dep, sender, cid)
        return self.last_action

    def _do_advance_time(self, step: Step) -> None:
        self.ledger.advance_time(parse_int(step.args[0], step.lineno))

    # -- asserts ------------------------------------------------------------------

    def _do_assert(self, step: Step) -> None:
        target = step.args[0]
        rest = step.args[1:]
        if target == "rejected":
            expected = not rest or rest[0] == "true"
            if self.last_action is None:
                raise AssertionFailure("no prior action")
            if self.last_action.rejected != expected:
                raise AssertionFailure(
                    f"expected rejected={str(expected).lower()}, last action "
                    f"{'rejected: ' + self.last_action.reason() if self.last_action.rejected else 'approved'}"
                )
            return
        actual = self._assert_value(target, rest, step.lineno)
        cmp_token = rest[-2]
        expected = _operand_parser(target, rest)(rest[-1], step.lineno)
        if not _COMPARATORS[cmp_token](actual, expected):
            raise AssertionFailure(f"{target} {' '.join(rest[:-2])}: {actual} {cmp_token} {expected} is false")

    def _assert_value(self, target: str, rest: tuple, lineno: int) -> int:
        if target == "algo-balance":
            return self.ledger.algo_balance(self.accounts[rest[0]])
        if target == "stablecoin-balance":
            return self.ledger.asset_balance(self.accounts[rest[0]], self.stablecoin_id)
        if target == "cost-total":
            return self.ledger.cost.total_for(self.accounts[rest[0]])
        if target == "bond-balance":
            dep = self._bond(rest[0])
            return self.ledger.asset_balance(self.accounts[rest[1]], dep.bond_asset_id)
        if target == "global-state":
            dep = self._bond(rest[0])
            return self.ledger.app_global(dep.main_app_id, _GLOBAL_KEYS[rest[1]]) or 0
        if target == "local-state":
            dep = self._bond(rest[0])
            addr = self.accounts[rest[1]]
            return self.ledger.app_local(addr, dep.main_app_id, _LOCAL_KEYS[rest[2]]) or 0
        if target == "rating":
            dep = self._bond(rest[0])
            return gb.get_rating(self.ledger, dep, parse_int(rest[1], lineno))
        raise AssertionFailure(f"unknown target {target}")


def run_scenario_text(text: str) -> Tuple[RunOutcome, ScenarioRunner]:
    steps = parse_scenario(text)
    runner = ScenarioRunner()
    return runner.run(steps), runner


# ---------------------------------------------------------------------------
# cost reporting


def format_costs(runner: ScenarioRunner) -> str:
    """Per-actor totals plus per-action rows, with one issuance table per bond."""
    cost = runner.ledger.cost
    lines: List[str] = []
    names = {addr: name for name, addr in runner.accounts.items()}

    lines.append("PER-ACTOR COSTS (microAlgos)")
    lines.append(f"{'actor':<16}{'amount':>12}{'min_balance':>14}{'fee':>10}{'total':>12}")
    for name, addr in runner.accounts.items():
        rows = cost.rows_for(addr)
        if not rows:
            continue
        amount = sum(r.amount for r in rows)
        min_delta = sum(r.min_delta for r in rows)
        fee = sum(r.fee for r in rows)
        lines.append(f"{name:<16}{amount:>12}{min_delta:>14}{fee:>10}{amount + min_delta + fee:>12}")

    for bond_name, dep in runner.bonds.items():
        lines.append("")
        lines.append(f"ISSUANCE COSTS: {bond_name}")
        lines.append(f"{'action':<42}{'amount':>10}{'min_balance':>13}{'fee':>9}{'total':>10}")
        tagged = cost.rows_for(tag=dep.main_app_id)
        for label in gb.ISSUANCE_ROW_ORDER:
            rows = [r for r in tagged if r.label == label]
            if not rows:
                continue
            amount = sum(r.amount for r in rows)
            min_delta = sum(r.min_delta for r in rows)
            fee = sum(r.fee for r in rows)
            lines.append(f"{label:<42}{amount:>10}{min_delta:>13}{fee:>9}{amount + min_delta + fee:>10}")

    action_totals: dict = {}
    issuance_labels = set(gb.ISSUANCE_ROW_ORDER)
    for row in cost.rows:
        if row.label in issuance_labels:
            continue
        key = (names.get(row.actor, row.actor), row.label)
        amount, min_delta, fee = action_totals.get(key, (0, 0, 0))
        action_totals[key] = (amount + row.amount, min_delta + row.min_delta, fee + row.fee)
    if action_totals:
        lines.append("")
        lines.append("ACTION COSTS")
        lines.append(f"{'actor':<16}{'action':<20}{'amount':>10}{'min_balance':>13}{'fee':>9}{'total':>10}")
        for (actor, label), (amount, min_delta, fee) in action_totals.items():
            lines.append(
                f"{actor:<16}{label:<20}{amount:>10}{min_delta:>13}{fee:>9}{amount + min_delta + fee:>10}"
            )
    return "".join(line + "\n" for line in lines)
