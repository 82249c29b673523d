"""An honest-participant model of one bond, run against the ledger, alone
and with an attacker among the participants.

A Hypothesis state machine drives one deployment with four approved
investors through buys, trades through delegated offers, escrow funding,
ratings, the passage of time, leaving the main app and coming back, and
coupon, principal and default claims; the issuer anchors a report on the use
of proceeds, then one as each coupon period begins.  Beside the ledger it
keeps a pure model of what each holder is owed, written from the protocol's
rules rather than from its code: the rating-linked coupon (10% more per star
below 5, compounded, floored), the reserve the main app keeps for a round's
slower claimants, the coupon counter that a buyer holding no bonds takes
from the seller, the counter a holder coming back with bonds starts at (the
last round opened), and the default recovery in proportion to the bonds
surrendered.  It also keeps the content ids of the issuer's reports.

Every honest action must end as the model says, approved or refused with
the model's code, and every approved payout must be the model's amount.

A second machine adds a fifth investor to the same participants: the
attacker, which holds bonds from the start and submits groups of up to 16
transactions built from every public object: both escrow logic signatures,
every trade offer published so far, its own key, and an app of its own that
approves every call.  A group starts from one of the protocol's groups with the
attacker as actor (or from nothing), then has legs changed, added
(including an escrow's leg paying the attacker, after a refund of its fee),
dropped, duplicated or swapped.  The escrows sign by the group's head, so
the group is also submitted under every other head: each on-completion, app
and action.  Before each attack the attacker, if it left the main app, opts
in again, and the regulator approves it.  After each group:

* a refused group leaves the ledger as it was;
* an honest holder's bonds or stablecoin fall only in a group that the
  holder's own offer signs, and then for at least the offer's price;
* an approved group is what the model allows the attacker, which the model
  then takes in: a protocol action that the attacker may take (the model's
  outcome, payout and counter included), or else deposits into the escrow
  and the attacker leaving or rejoining the main app.

Before each attack the attacker also copies the issuer's latest report into
notes of its own: one under the manage app's prefix, and one under a near
miss of it ("0<app id>+").  Its listing holds only the former.

After every step:

* the model's holdings, coupon counters, escrow funds and reserve are the
  ledger's;
* per round, the coupons paid are at most the per-bond coupon times the
  bonds circulating when the round opened;
* every uint in app state lies in [0, 2^64);
* the bond supply is conserved, and `total_algos() + total_fees_burned()
  == total_minted()`;
* the stablecoin escrow holds at least the reserve;
* the issuer's report listing is the model's.

Some outcomes are rare draws: an honest holder's approved default and
principal claims, a trade refused because the buyer's coupon counter differs
from the seller's, and an approved attacker trade (taking an honest offer)
or coupon claim.  Explicit sequences drive each machine's own rules to each,
with every invariant checked after each step.
"""
import dataclasses
import hashlib
from collections import Counter, defaultdict

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test,
)

from bondsim import greenbond as gb
from bondsim import reports
from bondsim.ledger import MAX_GROUP_SIZE, AppCall, AssetTransfer, Payment, TransactionGroup
from bondsim.programs import LogicSig, OnComplete, StatefulProgram, StateSchema

from conftest import BondEnv

UNIT = gb.UNIT
USD = UNIT
ROUNDS, START_BUY, END_BUY, MATURITY = 2, 50, 100, 300
PERIOD = (MATURITY - END_BUY) // ROUNDS
BASE = PRINCIPAL = 100 * USD  # per bond: `BondEnv.deploy`'s defaults
PRICE = 90 * USD  # per bond, in every offer
INVESTOR = st.integers(0, 3)
LEAVE = (OnComplete.CLOSE_OUT, OnComplete.CLEAR_STATE)
SETTINGS = settings(
    max_examples=100, stateful_step_count=50, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# what an attacker's leg may carry
ACTIONS = tuple(value for name, value in sorted(vars(gb).items()) if name.startswith("ACT_"))
AMOUNTS = (UNIT, 3 * UNIT, UNIT // 2, 10 * UNIT, 0, 1, gb.FLAT_FEE, gb.ESCROW_SEED, 100 * USD, 1_000 * USD)
# the choices that the attacks known to work on a weaker protocol need come first: an
# escrow's leg under a head whose check does not hold it, or under a head that leaves
TEMPLATES = ("buy", "coupon", "set_trade", "take_offer", "principal", "default", "fund", "leave", "rejoin", "none")
EDITS = ("theft", "retarget", "insert", "pad", "head", "field", "drop", "dup", "swap")
FIELDS = ("on_complete", "action", "revoke", "receiver", "signer", "amount", "asset", "app")
ON_COMPLETES = (OnComplete.CLOSE_OUT, OnComplete.NO_OP, OnComplete.CLEAR_STATE, OnComplete.OPT_IN,
                OnComplete.UPDATE_APPLICATION, OnComplete.DELETE_APPLICATION)

seen: Counter = Counter()  # what the runs reached, by outcome
CHECKS = []  # the name of every invariant, for the explicit sequences


def check(method):
    """An invariant of the machines, also checked after each explicit step."""
    CHECKS.append(method.__name__)
    return invariant()(method)


def per_bond_coupon(rating: int) -> int:
    """The paper's penalty table: 10% more per star below 5; unrated pays 5 stars."""
    below = 5 - (rating or 5)
    return BASE * 11**below // 10**below


class HonestActors(RuleBasedStateMachine):
    bonds = 24  # whole bonds issued

    def __init__(self):
        super().__init__()
        self.env = BondEnv()
        self.led = self.env.ledger
        self.dep = self.env.deploy(
            total_bonds=self.bonds, coupon_rounds=ROUNDS, start_buy=START_BUY, end_buy=END_BUY, maturity=MATURITY
        )
        self.investors = [self.env.investor(name) for name in "abcd"]
        self.holdings = dict.fromkeys(self.investors, 0)
        self.paid = dict.fromkeys(self.investors, 0)  # each holder's coupon counter
        self.offers = []  # every trade offer published
        self.ratings = {}  # rating slot -> stars
        self.funds = self.reserve = self.unlocked = 0
        self.opened = {}  # round -> (its per-bond coupon, the bonds circulating when it opened)
        self.paid_out = defaultdict(int)  # round -> coupons paid in it
        self.reports = []  # the content ids the issuer anchored, in order

    # -- the model's reading of the schedule

    @property
    def now(self) -> int:
        return self.led.now

    def circulation(self) -> int:
        return sum(self.holdings.values())

    def claimable(self) -> int:
        return 0 if self.now < END_BUY else min(ROUNDS, (self.now - END_BUY) // PERIOD)

    def rating_slot(self):
        """The round rated now: round i during its coupon period (the buy window is over)."""
        if END_BUY <= self.now < MATURITY:
            return 1 + (self.now - END_BUY) // PERIOD
        return None

    def per_bond(self, round_no: int) -> int:
        return per_bond_coupon(self.ratings.get(round_no, 0))

    def rejoined(self, holder) -> int:
        """The counter of a holder opting in again: with bonds, the last round opened."""
        return self.unlocked if self.holdings[holder] else 0

    # -- the model's outcome of each action: (refusal code or None, its payout, its changes)

    def trade_outcome(self, seller, buyer, amount):
        """A trade's (refusal code or None, whether the buyer adopts the seller's counter, its changes)."""
        adopts = buyer != seller and self.holdings[buyer] == 0
        code = None if adopts or self.paid[buyer] == self.paid[seller] else "coupons_differ"

        def commit():
            if adopts:
                self.paid[buyer] = self.paid[seller]
            self.holdings[seller] -= amount
            self.holdings[buyer] += amount

        return code, adopts, commit

    def coupon_outcome(self, investor):
        held, round_no = self.holdings[investor], self.paid[investor] + 1
        payout = per_bond = 0
        reserve, opens = self.reserve, round_no > self.unlocked
        if not held:
            code = "no_bonds"
        elif round_no > self.claimable():
            code = "nothing_claimable"
        else:
            per_bond = self.per_bond(round_no)
            payout = held * per_bond // UNIT
            if opens:  # the round's first claim reserves it for every circulating bond
                reserve += per_bond * self.circulation() // UNIT
            reserve -= payout
            code = "escrow_shortfall" if self.funds < reserve + payout else None

        def commit():
            if opens:
                self.unlocked = round_no
                self.opened[round_no] = (per_bond, self.circulation())
            self.reserve = reserve
            self.paid[investor] = round_no
            self.paid_out[round_no] += payout

        return code, payout, commit

    def principal_outcome(self, investor):
        held = self.holdings[investor]
        if self.now < MATURITY:
            code = "before_maturity"
        elif not held:
            code = "no_bonds"
        elif self.paid[investor] != ROUNDS:
            code = "unclaimed_coupons"
        else:
            owed = self.reserve + self.circulation() * PRINCIPAL // UNIT
            code = "escrow_shortfall" if self.funds < owed else None
        return code, held * PRINCIPAL // UNIT, lambda: self.holdings.update({investor: 0})

    def default_outcome(self, investor):
        held, circulation = self.holdings[investor], self.circulation()
        payout = 0
        if not held:
            code = "no_bonds"
        elif self.paid[investor] != self.unlocked:
            code = "behind_on_coupons"
        else:
            if self.unlocked < ROUNDS:
                due = self.per_bond(self.unlocked + 1) * circulation // UNIT
            else:
                due = circulation * PRINCIPAL // UNIT
            code = "not_in_default" if self.funds >= self.reserve + due else None
            payout = (self.funds - self.reserve) * held // circulation
        return code, payout, lambda: self.holdings.update({investor: 0})

    # -- submitting honest actions

    def expect(self, result, code, name):
        assert result.reason() == ("" if code is None else f"app_rejected:{code}"), (name, self.now)
        seen[name if code is None else code] += 1

    def claim(self, submit, investor, outcome, name):
        """Submit a claim; an approved one must pay the model's payout."""
        code, payout, commit = outcome
        before = self.led.asset_balance(investor, self.env.stablecoin)
        result = submit(self.led, self.dep, investor)
        self.expect(result, code, name)
        if result.approved:
            assert self.led.asset_balance(investor, self.env.stablecoin) - before == payout, name
            self.funds -= payout
            commit()

    # -- rules

    @initialize(bonds=st.lists(st.integers(0, 6), min_size=4, max_size=4))
    def open_the_buy_window(self, bonds):
        """Each investor buys its first whole bonds as the window opens."""
        self.led.advance_time(START_BUY)
        for investor, count in zip(self.investors, bonds):
            self.buy_for(investor, count * UNIT)
        self.anchor_due_reports()

    @precondition(lambda self: self.now < END_BUY)
    @rule(who=INVESTOR, amount=st.sampled_from([UNIT // 2, UNIT, 3 * UNIT]))
    def buy(self, who, amount):
        self.buy_for(self.investors[who], amount)

    def buy_for(self, investor, amount):
        amount = min(amount, self.bonds * UNIT - self.circulation())
        if amount:
            self.expect(gb.submit_buy(self.led, self.dep, investor, amount), None, "buy")
            self.holdings[investor] += amount

    def publish(self, seller, amount):
        assert gb.submit_set_trade(self.led, self.dep, seller, amount).approved
        offer = gb.make_trade_offer(self.dep, seller, PRICE, expiry=10**6)
        self.offers.append(offer)
        return offer

    @rule(seller=INVESTOR, buyer=INVESTOR, amount=st.sampled_from([UNIT // 2, UNIT, None]))
    def trade(self, seller, buyer, amount):
        """Set the allowance, publish an offer, and let the buyer take it."""
        seller, buyer = self.investors[seller], self.investors[buyer]
        held = self.holdings[seller]
        amount = held if amount is None else min(amount, held)
        if not amount:
            return
        offer = self.publish(seller, amount)
        code, adopts, commit = self.trade_outcome(seller, buyer, amount)
        self.expect(gb.submit_trade(self.led, self.dep, offer, buyer, amount), code, "adopt" if adopts else "trade")
        if code is None:
            commit()

    @rule(part=st.sampled_from([None, 100 * USD, 1_000 * USD]))
    def fund(self, part):
        """The issuer funds the escrow with a `part`, or with what it still lacks
        to pay every claim the model allows: the reserve, each round not yet
        opened at its highest (one-star) coupon, and every principal."""
        amount = part
        if part is None:
            per_bond = (ROUNDS - self.unlocked) * per_bond_coupon(1) + PRINCIPAL
            amount = max(0, self.reserve + per_bond * self.circulation() // UNIT - self.funds)
        self.expect(gb.submit_fund_escrow(self.led, self.dep, self.env.issuer, amount), None, "fund")
        self.funds += amount

    @precondition(lambda self: self.rating_slot() is not None)
    @rule(stars=st.integers(1, 5))
    def rate(self, stars):
        self.expect(gb.submit_rate(self.led, self.dep, self.env.verifier, stars), None, "rate")
        self.ratings[self.rating_slot()] = stars

    @precondition(lambda self: self.now < MATURITY + PERIOD)
    @rule(step=st.sampled_from([100, 50]))
    def advance(self, step):
        self.led.advance_time(self.now + step)
        self.anchor_due_reports()

    def anchor_due_reports(self):
        """The issuer anchors a fresh report on the use of proceeds, then one as
        each coupon period begins."""
        begun = 0 if self.now < END_BUY else min(ROUNDS, 1 + (self.now - END_BUY) // PERIOD)
        while len(self.reports) <= begun:
            cid = hashlib.sha256(b"report %d" % len(self.reports)).hexdigest()
            self.expect(gb.submit_report_anchor(self.led, self.dep, self.env.issuer, cid), None, "anchor")
            self.reports.append(cid)

    @precondition(lambda self: self.unlocked)  # from then on a returning holder's counter is not 0
    @rule(who=INVESTOR, leave=st.sampled_from(LEAVE))
    def leave_and_return(self, who, leave):
        """Close out of (or clear) the main app, opt in again, and be re-approved."""
        investor, main = self.investors[who], self.dep.main_app_id
        assert self.led.submit_group([AppCall(investor, main, leave)]).approved
        assert self.led.submit_group([AppCall(investor, main, OnComplete.OPT_IN)]).approved
        self.expect(gb.submit_freeze_account(self.led, self.dep, self.env.regulator, investor, 1), None, "rejoin")
        self.paid[investor] = self.rejoined(investor)

    @precondition(lambda self: self.now >= END_BUY + PERIOD)
    @rule(who=INVESTOR)
    def coupon(self, who):
        investor = self.investors[who]
        self.claim(gb.submit_coupon, investor, self.coupon_outcome(investor), "coupon")

    @precondition(lambda self: self.now >= MATURITY)
    @rule(who=INVESTOR)
    def principal(self, who):
        investor = self.investors[who]
        self.claim(gb.submit_principal, investor, self.principal_outcome(investor), "principal")

    # a holder claims only once the first round is due, and while there is something to recover
    @precondition(lambda self: self.now >= END_BUY + PERIOD and self.funds > self.reserve)
    @rule(who=INVESTOR)
    def default(self, who):
        investor = self.investors[who]
        self.claim(gb.submit_default, investor, self.default_outcome(investor), "default")

    # -- invariants

    @check
    def the_model_is_the_ledger(self):
        led, dep = self.led, self.dep
        for holder, held in self.holdings.items():
            assert led.asset_balance(holder, dep.bond_asset_id) == held
            assert gb.investor_local_state(led, dep, holder)[0] == self.paid[holder]
        assert self.env.escrow_funds() == self.funds
        assert gb.main_global_state(led, dep)[:2] == (self.unlocked, self.reserve)

    @check
    def no_round_pays_more_than_its_bonds_are_owed(self):
        for round_no, total in self.paid_out.items():
            per_bond, circulation = self.opened[round_no]
            assert total <= per_bond * circulation // UNIT

    @check
    def app_state_holds_only_uint64(self):
        state = self.led.observable_state()
        values = [value for pairs, _ in state["apps"].values() for _, value in pairs]
        values += [value for _, _, local, _ in state["accounts"].values() for _, pairs in local for _, value in pairs]
        assert all(0 <= value < 2**64 for value in values if isinstance(value, int))

    @check
    def supply_and_algos_are_conserved(self):
        assert self.led.asset_supply_held(self.dep.bond_asset_id) == self.bonds * UNIT
        assert self.led.total_algos() + self.led.total_fees_burned() == self.led.total_minted()

    @check
    def the_escrow_covers_the_reserve(self):
        assert self.env.escrow_funds() >= gb.main_global_state(self.led, self.dep)[1]

    @check
    def the_issuer_lists_its_reports(self):
        assert reports.list_reports(self.led, self.env.issuer, self.dep.manage_app_id) == self.reports


class HonestActorsAndAttacker(HonestActors):
    """The honest participants, and an attacker (see the module docstring)."""

    bonds = 40  # so that the bond escrow keeps bonds to steal

    def __init__(self):
        super().__init__()
        self.attacker = self.env.investor("mallory", algos=10**9)
        # an app of the attacker's own, which approves every call
        self.own_app = self.led.register_app(StatefulProgram("own", StateSchema(), lambda ctx: None), self.attacker)
        self.holdings[self.attacker] = self.paid[self.attacker] = 0
        self.attacker_state = "approved"  # or "left" the main app, or opted in again and "pending"
        self.attacker_reports = []  # the content ids it anchored under the manage app's prefix

    @initialize()
    def the_attacker_buys(self):
        """The attacker buys 3 bonds as the window opens."""
        self.led.advance_time(START_BUY)
        self.buy_for(self.attacker, 3 * UNIT)

    @rule(seller=INVESTOR, amount=st.sampled_from([UNIT // 2, UNIT]))
    def offer(self, seller, amount):
        """Publish an offer that nobody honest takes."""
        seller = self.investors[seller]
        if self.holdings[seller]:
            self.publish(seller, min(amount, self.holdings[seller]))

    def copy_the_latest_report(self):
        """The attacker anchors the issuer's latest report, not yet copied, under
        the manage app's prefix and under a near miss of it."""
        me, app, cid = self.attacker, self.dep.manage_app_id, self.reports[-1]
        if cid in self.attacker_reports:
            return
        for note in (f"{app}+{cid}", f"0{app}+{cid}"):
            assert self.led.submit_group([Payment(me, me, 0, note=note.encode("ascii"))]).approved
        self.attacker_reports.append(cid)
        seen["attacker anchor"] += 1

    @check
    def the_attacker_lists_only_its_prefixed_notes(self):
        assert reports.list_reports(self.led, self.attacker, self.dep.manage_app_id) == self.attacker_reports

    def signers(self) -> list:
        """Every (sender, signature) the attacker can sign a leg with."""
        dep = self.dep
        own = [(self.attacker, None), (dep.bond_escrow, dep.bond_escrow_lsig)]
        own.append((dep.stablecoin_escrow, dep.stablecoin_escrow_lsig))
        return own + [(offer.seller, offer.lsig) for offer in self.offers]

    def addresses(self) -> list:
        dep = self.dep
        return [self.attacker, *self.investors, self.env.issuer, dep.bond_escrow, dep.stablecoin_escrow]

    def apps(self) -> tuple:
        return self.own_app, self.dep.main_app_id, self.dep.manage_app_id

    def template(self, pick) -> list:
        """A protocol group with the attacker as actor, built as its builder does."""
        led, dep, me, main = self.led, self.dep, self.attacker, self.dep.main_app_id
        name, amount = pick(TEMPLATES), pick(AMOUNTS)
        builders = {
            "coupon": lambda: gb.build_coupon_group(led, dep, me),
            "set_trade": lambda: gb.build_set_trade_group(dep, me, amount),
            "buy": lambda: gb.build_buy_group(dep, me, amount),
            "take_offer": lambda: gb.build_trade_group(dep, pick(self.offers[::-1]), me, amount),
            "principal": lambda: gb.build_principal_group(led, dep, me),
            "default": lambda: gb.build_default_group(led, dep, me),
            "fund": lambda: gb.build_fund_escrow_group(dep, me, amount),
            "leave": lambda: TransactionGroup((AppCall(me, main, pick(LEAVE)),)),
            "rejoin": lambda: TransactionGroup((AppCall(me, main, OnComplete.OPT_IN),)),
        }
        if name == "none" or name == "take_offer" and not self.offers:
            return []
        return list(builders[name]().txns)

    def theft(self, pick) -> list:
        """Legs that would move a holder's bonds, or the escrows' bonds or
        stablecoin, to the attacker, after a refund of the escrow's fee."""
        dep, me = self.dep, self.attacker
        by_bond_escrow = {"sender": dep.bond_escrow, "signature": dep.bond_escrow_lsig}
        leg = pick([
            AssetTransfer(asset_id=dep.bond_asset_id, receiver=me, amount=UNIT, revoke_target=victim, **by_bond_escrow)
            for victim in (*self.investors, dep.bond_escrow)
        ] + [
            AssetTransfer(dep.stablecoin_escrow, self.env.stablecoin, me, 100 * USD,
                          signature=dep.stablecoin_escrow_lsig),
        ])
        return [Payment(me, leg.sender, gb.FLAT_FEE), leg]

    def leg(self, pick):
        """Any leg the attacker can sign."""
        dep = self.dep
        sender, signature = pick(self.signers())
        kind = pick((Payment, AssetTransfer, AppCall))
        if kind is Payment:
            return Payment(sender, pick(self.addresses()), pick(AMOUNTS), signature)
        if kind is AssetTransfer:
            asset, receiver = pick((dep.bond_asset_id, self.env.stablecoin)), pick(self.addresses())
            return AssetTransfer(sender, asset, receiver, pick(AMOUNTS), pick([None, *self.addresses()]), signature)
        args = (pick(ACTIONS),) + pick(((), (b"0",), (b"1",), (str(UNIT).encode(),)))
        accounts = pick(((), dep._calls_manage[0], dep._calls_main[0], (pick(self.addresses()),)))
        apps = pick(((), (dep.main_app_id,), (dep.manage_app_id,)))
        return AppCall(sender, pick(self.apps()), pick(ON_COMPLETES), args, accounts, apps, signature)

    def edit(self, pick, txns: list) -> list:
        """One change to the group: its head, which legs it holds, or a field of one leg."""
        kind = pick(EDITS)
        room = MAX_GROUP_SIZE - len(txns)
        if kind == "theft" or not txns:
            legs = self.theft(pick)
            at = pick(range(len(txns) + 1))
            return txns[:at] + legs + txns[at:] if room >= len(legs) else txns
        if kind in ("insert", "pad"):
            leg = self.leg(pick)
            if kind == "pad":
                return txns + [leg] * min(room, pick((1, 2, 3, 5, MAX_GROUP_SIZE)))
            at = pick(range(len(txns) + 1))
            return txns[:at] + [leg] + txns[at:] if room else txns
        if kind == "head":
            kind, i = pick(("on_complete", "app", "action")), 0
        elif kind == "retarget":
            escrows = [i for i, t in enumerate(txns) if t.sender in (self.dep.bond_escrow, self.dep.stablecoin_escrow)]
            if not escrows:
                return txns
            kind, i = pick(("revoke", "receiver")), pick(escrows)
        else:
            kind, i = pick(FIELDS) if kind == "field" else kind, pick(range(len(txns)))
        t = txns[i]
        if kind == "drop":
            return txns[:i] + txns[i + 1:]
        if kind == "dup":
            return txns[: i + 1] + txns[i:] if room else txns
        if kind == "swap":
            j = pick(range(len(txns)))
            out = list(txns)
            out[i], out[j] = txns[j], txns[i]
            return out
        field = {"signer": "sender", "revoke": "revoke_target", "asset": "asset_id", "app": "app_id", "action": "args"}
        if not hasattr(t, field.get(kind, kind)):
            return txns
        changed = {
            "on_complete": lambda: {"on_complete": pick(ON_COMPLETES)},
            "action": lambda: {"args": (pick(ACTIONS),) + t.args[1:]},
            "revoke": lambda: {"revoke_target": pick([None, *self.addresses()])},
            "receiver": lambda: {"receiver": pick(self.addresses())},
            "signer": lambda: dict(zip(("sender", "signature"), pick(self.signers()))),
            "amount": lambda: {"amount": pick(AMOUNTS + (t.amount + 1, t.amount - 1, 2 * t.amount))},
            "asset": lambda: {"asset_id": pick((self.dep.bond_asset_id, self.env.stablecoin))},
            "app": lambda: {"app_id": pick(self.apps())},
        }[kind]()
        return txns[:i] + [dataclasses.replace(t, **changed)] + txns[i + 1:]

    def readmit_the_attacker(self):
        """The attacker opts in again if it left, and the regulator approves it."""
        led, me = self.led, self.attacker
        if self.attacker_state == "left":
            assert led.submit_group([AppCall(me, self.dep.main_app_id, OnComplete.OPT_IN)]).approved
            self.paid[me] = self.rejoined(me)
        if self.attacker_state != "approved":
            self.expect(gb.submit_freeze_account(led, self.dep, self.env.regulator, me, 1), None, "readmit")
            self.attacker_state = "approved"

    def heads(self, txns: list) -> list:
        """The group, then the group under every other head: the escrows sign by
        the head, so each on-completion, app and action of it is tried."""
        head = txns[0]
        if not isinstance(head, AppCall):
            return [txns]
        variants = [{"on_complete": oc} for oc in ON_COMPLETES] + [{"app_id": app} for app in self.apps()]
        variants += [{"args": (action,) + (head.args[1:] or (b"1",))} for action in ACTIONS]
        others = (dataclasses.replace(head, **variant) for variant in variants)
        return [txns] + [[other, *txns[1:]] for other in others if other != head]

    @rule(data=st.data())
    def attack(self, data):
        self.attack_by(lambda values: data.draw(st.sampled_from(values)))

    def attack_by(self, pick):
        """One attack, each of its choices made by `pick(values)`."""
        self.readmit_the_attacker()
        self.copy_the_latest_report()
        txns = self.template(pick)
        for _ in range(pick((0, 1, 2, 3) if txns else (1, 2, 3))):
            txns = self.edit(pick, txns)
        for group in self.heads(txns) if txns else ():
            self.submit_attack(group)

    def submit_attack(self, txns):
        """Submit one attacker group and check what it did to the honest holders."""
        led, coin, bond = self.led, self.env.stablecoin, self.dep.bond_asset_id
        honest = [*self.investors, self.env.issuer]
        before = led.observable_state()
        held = {h: (led.asset_balance(h, bond), led.asset_balance(h, coin)) for h in honest}
        result = led.submit_group(txns)
        offered = {t.signature.delegator for t in txns if isinstance(t.signature, LogicSig)}
        for h, (bonds, cash) in held.items():
            sold, got = bonds - led.asset_balance(h, bond), led.asset_balance(h, coin) - cash
            if sold or got < 0:
                assert h in offered and sold >= 0 and got >= sold * PRICE // UNIT, (h, sold, got, txns)
        if result.rejected:
            assert led.observable_state() == before, txns
            seen["attack refused"] += 1
        else:
            self.take_in(txns)

    def take_in(self, txns):
        """Check an approved attacker group against the model, and apply it."""
        head, dep, me = txns[0], self.dep, self.attacker
        action = None
        if isinstance(head, AppCall) and head.app_id == dep.main_app_id and head.on_complete is OnComplete.NO_OP:
            action = head.args[:1]
        if action == (gb.ACT_BUY,):
            assert head.sender == me and self.attacker_state == "approved" and START_BUY <= self.now < END_BUY, txns
            self.holdings[me] += txns[2].amount
        elif action == (gb.ACT_TRADE,):
            seller, buyer, amount = head.sender, txns[2].receiver, txns[2].amount
            assert buyer == me and self.attacker_state == "approved", txns
            code, _, commit = self.trade_outcome(seller, buyer, amount)
            assert code is None, (code, txns)
            commit()
        elif action in ((gb.ACT_COUPON,), (gb.ACT_SELL,), (gb.ACT_DEFAULT,)):
            outcome = {gb.ACT_COUPON: self.coupon_outcome, gb.ACT_SELL: self.principal_outcome,
                       gb.ACT_DEFAULT: self.default_outcome}[action[0]](me)
            code, payout, commit = outcome
            assert head.sender == me and self.attacker_state == "approved" and code is None, (code, txns)
            payouts = [t.amount for t in txns if t.sender == dep.stablecoin_escrow]
            assert payouts == [payout], (payouts, payout)
            self.funds -= payout
            commit()
        else:
            self.take_in_legs(txns)
            return
        seen[f"attacker {action[0].decode()}"] += 1

    def take_in_legs(self, txns):
        """A group that is no protocol action: only the attacker's deposits and
        its leaving or rejoining the main app may change what the model holds."""
        dep, me, coin = self.dep, self.attacker, self.env.stablecoin
        for t in txns:
            assert t.sender not in (dep.bond_escrow, dep.stablecoin_escrow), t
            if isinstance(t, AssetTransfer) and t.asset_id == coin and t.receiver == dep.stablecoin_escrow:
                self.funds += t.amount
                seen["attacker deposit"] += 1
            elif isinstance(t, AppCall) and t.app_id == dep.main_app_id and t.on_complete is OnComplete.OPT_IN:
                assert t.sender == me, t
                self.attacker_state, self.paid[me] = "pending", self.rejoined(me)
                seen["attacker rejoin"] += 1
            elif isinstance(t, AppCall) and t.app_id == dep.main_app_id and t.on_complete in LEAVE:
                assert t.sender == me, t
                self.attacker_state, self.paid[me] = "left", 0


def test_honest_actors_are_paid_what_the_model_owes():
    seen.clear()
    run_state_machine_as_test(HonestActors, settings=SETTINGS)
    # the runs reached coupons, both trade rules, the shortfall refusal and a holder's
    # return; the rare outcomes have explicit sequences below
    reached = {"coupon", "adopt", "trade", "escrow_shortfall", "rejoin", "anchor"}
    assert reached <= set(seen), seen


def test_an_attacker_gets_only_what_the_model_allows_it():
    seen.clear()
    run_state_machine_as_test(HonestActorsAndAttacker, settings=SETTINGS)
    # approved attacker groups of each kind the model takes in; a trade and a
    # coupon are rare draws, so the explicit sequences below reach them
    reached = {"attacker buy", "attacker deposit", "attacker rejoin", "attacker anchor"}
    assert reached <= set(seen), seen


def scripted(*choices):
    """A `pick` for `attack_by` that makes `choices` in order, each among the values offered."""
    queue = list(choices)

    def pick(values):
        choice = queue.pop(0)
        assert choice in values, (choice, values)
        return choice

    return pick


def drive(machine_class, *steps):
    """Run a machine of `machine_class` through `steps`, each calling its rules,
    after the opening buys (investors a and b hold 2 bonds each, the attacker
    3), and check each of the machine's invariants after each step."""
    seen.clear()
    machine = machine_class()
    opening = [lambda m: m.open_the_buy_window([2, 2, 0, 0])]
    if isinstance(machine, HonestActorsAndAttacker):
        opening.append(lambda m: m.the_attacker_buys())
    checks = [name for name in CHECKS if hasattr(machine, name)]
    for step in (*opening, *steps):
        step(machine)
        for name in checks:
            getattr(machine, name)()


ROUND_ONE_DUE = (lambda m: m.advance(100), lambda m: m.advance(100))  # from the buy window's start to t=250


def test_an_honest_holder_may_claim_a_default():
    """The escrow holds 100 USD, short of round 1's 400 USD."""
    drive(HonestActors, lambda m: m.fund(100 * USD), *ROUND_ONE_DUE, lambda m: m.default(0), lambda m: m.default(1))
    assert seen["default"] == 2, seen


def test_an_honest_holder_may_redeem_its_principal():
    """Investor a claims both rounds, then redeems at t=350, past maturity."""
    both_rounds = (lambda m: m.coupon(0), lambda m: m.coupon(0))
    drive(HonestActors, lambda m: m.fund(None), *ROUND_ONE_DUE, lambda m: m.advance(100), *both_rounds,
          lambda m: m.principal(0))
    assert seen["principal"], seen


def test_a_trade_between_holders_on_different_rounds_is_refused():
    """Investor a claims round 1; b, holding bonds with round 1 unclaimed, takes a's offer."""
    drive(HonestActors, lambda m: m.fund(None), *ROUND_ONE_DUE, lambda m: m.coupon(0), lambda m: m.trade(0, 1, UNIT))
    assert seen["coupons_differ"], seen


def test_an_attacker_may_take_an_honest_offer():
    drive(HonestActorsAndAttacker, lambda m: m.offer(0, UNIT),
          lambda m: m.attack_by(scripted("take_offer", UNIT, m.offers[-1], 0)))
    assert seen["attacker trade"], seen


def test_an_attacker_may_claim_its_coupon():
    drive(HonestActorsAndAttacker, lambda m: m.fund(None), *ROUND_ONE_DUE,
          lambda m: m.attack_by(scripted("coupon", UNIT, 0)))
    assert seen["attacker coupon"], seen
