"""Differential test of the protocol's group checks.

Two ledgers run the same lifecycle side by side.  On one, the bonds are
deployed with the hand-written handlers and trade-offer predicate kept in
`reference_protocol`; on the other, with `bondsim.greenbond`'s.  The
lifecycle reaches every action: freeze-all, freeze, rate, buy, set-trade,
trade, fund-escrow, coupon, principal, and a default claim on a second,
underfunded bond.

Before each canonical group is submitted, mutated copies of it are
evaluated on both ledgers and then undone (`trial`), so a mutant that is
approved does not derail the lifecycle.  A mutant changes one field of one
transaction (sender, receiver, revoke target, asset, app, first argument,
on-completion, amount, fee, signature), drops, duplicates or swaps
transactions, or swaps a Payment for an AssetTransfer or back.  Both ledgers
must give the same outcome, `(approved, rejection code, handler code, index
of the rejected transaction)`, and an approved mutant must leave them in the
same observable state.

`test_every_single_mutation_agrees` tries every single mutation of every
step, and the compositions of two or three that some pins need in order to
show at all (`deep_mutations`); `test_mutated_groups_agree` lets Hypothesis
compose up to three.
"""
from __future__ import annotations

import contextlib
import dataclasses
import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from bondsim import greenbond as gb
from bondsim.greenbond import UNIT
from bondsim.ledger import MAX_GROUP_SIZE, AppCall, AssetTransfer, Payment, _Reject, _Undo
from bondsim.programs import OnComplete

import reference_protocol as ref
from conftest import BondEnv

USD = UNIT
ACTIONS = tuple(
    value for name, value in sorted(vars(gb).items()) if name.startswith("ACT_") and isinstance(value, bytes)
)
AMOUNT_EDITS = ("+1", "-1", "0", "x2")


@contextlib.contextmanager
def reference_programs():
    """Deploy with the reference handlers: `issue` reads both program
    builders from the module's globals."""
    saved = gb.build_main_program, gb.build_manage_program
    gb.build_main_program, gb.build_manage_program = ref.build_main_program, ref.build_manage_program
    try:
        yield
    finally:
        gb.build_main_program, gb.build_manage_program = saved


def trial(led, txns):
    """Evaluate a group exactly as `Ledger.submit_group` does, then undo it.
    Returns the outcome and, for an approved group, the observable state it
    leads to."""
    txns = tuple(txns)
    if not 1 <= len(txns) <= MAX_GROUP_SIZE:
        return (False, "bad_group_size", None, None), None
    group = gb.TransactionGroup(txns)
    undo = _Undo(led._state)
    state = None
    try:
        for idx in range(len(txns)):
            led._apply_txn(undo, group, idx)
        led._check_min_balances(undo)
        outcome = (True, None, None, None)
        state = led.observable_state()
    except _Reject as r:
        detail = r.rejection.detail
        outcome = (False, r.rejection.code, detail.get("code"), detail.get("txn_index"))
    except Exception as e:  # a handler fault must be the same fault
        outcome = (False, type(e).__name__, str(e), None)
    undo.rollback()
    return outcome, state


# ---------------------------------------------------------------------------
# mutations


def _retyped(t, asset_id):
    common = dict(sender=t.sender, receiver=t.receiver, amount=t.amount, signature=t.signature, fee=t.fee)
    if isinstance(t, Payment):
        return AssetTransfer(asset_id=asset_id, **common)
    return Payment(**common)


def _edit_amount(amount, edit):
    return {"+1": amount + 1, "-1": amount - 1, "0": 0, "x2": amount * 2}[edit]


def apply_mutation(txns: tuple, m: tuple) -> tuple:
    """One mutation; a mutation naming an index or a field the group no
    longer has (after an earlier drop or retype) leaves it unchanged."""
    kind, i = m[0], m[1]
    if i >= len(txns):
        return txns
    t = txns[i]
    if kind == "drop":
        return txns[:i] + txns[i + 1 :]
    if kind == "dup":
        return txns[: i + 1] + txns[i:]
    if kind == "swap":
        j = m[2]
        if j >= len(txns):
            return txns
        out = list(txns)
        out[i], out[j] = txns[j], txns[i]
        return tuple(out)
    if kind == "retype":
        if isinstance(t, AppCall):
            return txns
        new = _retyped(t, m[2])
    elif kind == "set":
        if not hasattr(t, m[2]):
            return txns
        new = dataclasses.replace(t, **{m[2]: m[3]})
    elif kind == "amount":
        if not hasattr(t, "amount"):
            return txns
        new = dataclasses.replace(t, amount=_edit_amount(t.amount, m[2]))
    elif kind == "fee":
        new = dataclasses.replace(t, fee=t.fee + 1000)
    elif kind == "action":
        if not isinstance(t, AppCall):
            return txns
        new = dataclasses.replace(t, args=(m[2],) + t.args[1:])
    else:
        raise ValueError(kind)
    return txns[:i] + (new,) + txns[i + 1 :]


def single_mutations(txns: tuple, public) -> list:
    """Every single mutation of a canonical group."""
    out = []
    for i, t in enumerate(txns):
        for field in ("sender", "receiver", "revoke_target"):
            if hasattr(t, field):
                out += [("set", i, field, a) for a in public.addresses if a != getattr(t, field)]
        if isinstance(t, AssetTransfer):
            out += [("set", i, "asset_id", a) for a in public.assets if a != t.asset_id]
            if t.revoke_target is not None:
                out.append(("set", i, "revoke_target", None))
        if isinstance(t, AppCall):
            out += [("set", i, "app_id", a) for a in public.apps if a != t.app_id]
            out += [("action", i, name) for name in ACTIONS if t.args[:1] != (name,)]
            out += [("set", i, "on_complete", oc) for oc in OnComplete if oc is not t.on_complete]
        else:
            out += [("amount", i, edit) for edit in AMOUNT_EDITS]
            out += [("retype", i, a) for a in public.assets]
        if t.signature is not None:
            out.append(("set", i, "signature", None))  # signed by the sender's own key
        out += [("fee", i), ("drop", i), ("dup", i)]
        out += [("swap", i, j) for j in range(i + 1, len(txns))]
    return out


def deep_mutations(txns: tuple, public) -> list:
    """Compositions that single mutations cannot stand in for, because a
    check that runs earlier in the group answers for the pin first:

    * two amounts changed together, as a zero bond leg with a zero price
      leg: a bond amount must be positive;
    * a head that closes out of the main app, which approves a close-out
      without looking at the group, then any single mutation: the later
      legs' checks, most of them stopping at the `on_complete` pin that the
      manage app and a trade offer hold on the head.  (With a NoOp head the
      main app's check of the payout leg answers first, so no composition
      here reaches the manage app's own payout `asset_id` pin, which stays
      a second guard.)
    * a head that opts in to or closes out of an app, signed by its
      sender's own key or not, then one change to the head: the pins the
      manage app and a trade offer hold on the head;
    * a head signed by its sender's own key rather than by a trade offer,
      then any single mutation: the main app's trade pins."""
    singles = single_mutations(txns, public)
    amounts = [m for m in singles if m[0] == "amount"]
    deep = [(a, b) for a, b in itertools.combinations(amounts, 2) if a[1] != b[1]]
    if len(txns) == 1 or not isinstance(txns[0], AppCall):
        return deep
    heads = [m for m in singles if m[1] == 0 and m[0] in ("set", "action")]
    own_key = ("set", 0, "signature", None)
    opt_in, close_out = (("set", 0, "on_complete", oc) for oc in (OnComplete.OPT_IN, OnComplete.CLOSE_OUT))
    deep += [(close_out, m) for m in singles] + [(opt_in, m) for m in heads]
    deep += [(oc, own_key, m) for oc in (opt_in, close_out) for m in heads]
    if txns[0].signature is not None:
        deep += [(own_key, m) for m in singles]
    return deep


# ---------------------------------------------------------------------------
# the twin lifecycle


@dataclasses.dataclass
class Public:
    addresses: tuple
    assets: tuple
    apps: tuple


class Twin:
    """The same environment twice: `envs[0]` runs the reference programs,
    `envs[1]` the current ones."""

    def __init__(self, on_step):
        self.envs = (BondEnv(), BondEnv())
        self.make_offer = (ref.make_trade_offer, gb.make_trade_offer)
        self.on_step = on_step
        self.deps = []
        self.steps = []

    def deploy(self, **kw):
        with reference_programs():
            ref_dep = self.envs[0].deploy(approve=False, **kw)
        dep = self.envs[1].deploy(approve=False, **kw)
        assert (ref_dep.bond_escrow, ref_dep.stablecoin_escrow) == (dep.bond_escrow, dep.stablecoin_escrow)
        self.deps.append((ref_dep, dep))
        return len(self.deps) - 1

    def account(self, label, stablecoin=10**12):
        addrs = {env.new_account(label, stablecoin=stablecoin) for env in self.envs}
        (addr,) = addrs
        return addr

    def register(self, bond, addr):
        for env, dep in zip(self.envs, self.deps[bond]):
            assert gb.register_investor(env.ledger, dep, addr).approved

    def advance(self, now):
        for env in self.envs:
            env.ledger.advance_time(now)

    def public(self, bond) -> Public:
        """Every account, asset and app either bond's deployment makes public."""
        env = self.envs[1]
        addrs, assets, apps = [env.operator, env.issuer, env.verifier, env.regulator, *self.investors], [], []
        for _, dep in self.deps:
            addrs += [dep.bond_escrow, dep.stablecoin_escrow]
            assets.append(dep.bond_asset_id)
            apps += [dep.main_app_id, dep.manage_app_id]
        return Public(tuple(addrs), (*assets, env.stablecoin), tuple(apps))

    def step(self, name, bond, build):
        """Mutate, then submit the canonical group; `build(env, dep, side)`."""
        groups = [build(env, dep, side) for side, (env, dep) in enumerate(zip(self.envs, self.deps[bond]))]
        self.on_step(self, name, bond, [g.txns for g in groups])
        results = [env.ledger.submit_group(g) for env, g in zip(self.envs, groups)]
        assert results[0] == results[1], name
        assert results[1].approved, (name, results[1].rejection)
        assert self.envs[0].ledger.observable_state() == self.envs[1].ledger.observable_state()
        self.steps.append(name)


def run_lifecycle(on_step) -> list:
    """Drive both ledgers through every protocol action; returns the steps."""
    twin = Twin(on_step)
    a = twin.deploy(total_bonds=100, coupon_rounds=2, start_buy=100, end_buy=200, maturity=400)
    # a second bond whose escrow will hold less than its first coupon round
    b = twin.deploy(total_bonds=100, coupon_rounds=2, start_buy=500, end_buy=600, maturity=800)
    inv1, inv2, inv3, inv4 = (twin.account(f"inv{k}") for k in range(1, 5))
    twin.investors = (inv1, inv2, inv3, inv4)
    env = twin.envs[1]
    regulator, verifier, issuer = env.regulator, env.verifier, env.issuer

    twin.step("freeze_all", a, lambda e, d, s: gb.build_freeze_all_group(d, regulator, 1))
    for inv in (inv1, inv2):
        twin.register(a, inv)
        twin.step("freeze", a, lambda e, d, s, inv=inv: gb.build_freeze_account_group(d, regulator, inv, 1))
    twin.step("rate", a, lambda e, d, s: gb.build_rate_group(d, verifier, 4))
    twin.advance(100)
    twin.step("buy", a, lambda e, d, s: gb.build_buy_group(d, inv1, 10 * UNIT))
    twin.step("buy", a, lambda e, d, s: gb.build_buy_group(d, inv2, 5 * UNIT))
    twin.step("set_trade", a, lambda e, d, s: gb.build_set_trade_group(d, inv1, 4 * UNIT))

    def trade(e, d, side):
        offer = twin.make_offer[side](d, inv1, 90 * USD, 300)
        return gb.build_trade_group(d, offer, inv2, 2 * UNIT)

    twin.step("trade", a, trade)
    twin.step("fund_escrow", a, lambda e, d, s: gb.build_fund_escrow_group(d, issuer, 10_000 * USD))
    twin.advance(200)
    twin.step("rate", a, lambda e, d, s: gb.build_rate_group(d, verifier, 3))
    for now in (300, 400):
        twin.advance(now)
        for inv in (inv1, inv2):
            twin.step("coupon", a, lambda e, d, s, inv=inv: gb.build_coupon_group(e.ledger, d, inv))
    for inv in (inv1, inv2):
        twin.step("principal", a, lambda e, d, s, inv=inv: gb.build_principal_group(e.ledger, d, inv))

    twin.step("freeze_all", b, lambda e, d, s: gb.build_freeze_all_group(d, regulator, 1))
    for inv in (inv3, inv4):
        twin.register(b, inv)
        twin.step("freeze", b, lambda e, d, s, inv=inv: gb.build_freeze_account_group(d, regulator, inv, 1))
    twin.advance(500)
    twin.step("buy", b, lambda e, d, s: gb.build_buy_group(d, inv3, 6 * UNIT))
    twin.step("buy", b, lambda e, d, s: gb.build_buy_group(d, inv4, 4 * UNIT))
    twin.step("fund_escrow", b, lambda e, d, s: gb.build_fund_escrow_group(d, issuer, 300 * USD))
    twin.advance(700)
    twin.step("default", b, lambda e, d, s: gb.build_default_group(e.ledger, d, inv3))
    return twin.steps


def compare(twin, name, pair):
    """Trial one mutant on both ledgers; returns the outcome."""
    ref_out, ref_state = trial(twin.envs[0].ledger, pair[0])
    new_out, new_state = trial(twin.envs[1].ledger, pair[1])
    assert ref_out == new_out, (name, pair[1])
    assert ref_state == new_state, (name, pair[1])
    return new_out


def mutate_both(groups, mutations):
    out = []
    for txns in groups:
        for m in mutations:
            txns = apply_mutation(txns, m)
        out.append(txns)
    return out


def test_lifecycle_reaches_every_action():
    seen = set(run_lifecycle(lambda *a: None))
    assert seen == {
        "freeze_all", "freeze", "rate", "buy", "set_trade", "trade",
        "fund_escrow", "coupon", "principal", "default",
    }


def test_every_single_mutation_agrees():
    outcomes = set()

    def sweep(twin, name, bond, groups):
        public = twin.public(bond)
        for m in single_mutations(groups[1], public):
            outcomes.add(compare(twin, name, mutate_both(groups, [m]))[:3:2])
        for ms in deep_mutations(groups[1], public):
            outcomes.add(compare(twin, name, mutate_both(groups, ms))[:3:2])

    run_lifecycle(sweep)
    # the sweep reaches the handlers' own denials, not only the ledger's
    assert {(False, "bad_group"), (False, "bad_payout"), (True, None)} <= outcomes


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_groups_agree(data):
    def fuzz(twin, name, bond, groups):
        candidates = single_mutations(groups[1], twin.public(bond))
        mutations = data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3), label=name)
        compare(twin, name, mutate_both(groups, mutations))

    run_lifecycle(fuzz)
