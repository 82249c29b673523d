"""An honest-participant model of one bond, run against the ledger.

A Hypothesis state machine drives one deployment with four approved
investors through buys, trades through delegated offers, escrow funding,
ratings, the passage of time, and coupon, principal and default claims.
Beside the ledger it keeps a pure model of what each holder is owed, written
from the protocol's rules rather than from its code: the rating-linked
coupon (10% more per star below 5, compounded, floored), the reserve the
main app keeps for a round's slower claimants, the coupon counter that a
buyer holding no bonds takes from the seller, and the default recovery in
proportion to the bonds surrendered.

Every action must end as the model says, approved or refused with the
model's code, and every approved payout must be the model's amount.  After
every step:

* the model's holdings, coupon counters, escrow funds and reserve are the
  ledger's;
* per round, the coupons paid are at most the per-bond coupon times the
  bonds circulating when the round opened;
* every uint in app state lies in [0, 2^64);
* the bond supply and the Algos are conserved;
* the stablecoin escrow holds at least the reserve.

Every participant here is honest.  Groups an attacker assembles are the
subject of `test_escrow_authority.py`, `test_head_pins.py` and
`test_group_shapes.py`.
"""
from collections import Counter, defaultdict

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test,
)

from bondsim import greenbond as gb

from conftest import BondEnv

UNIT = gb.UNIT
USD = UNIT
BONDS, ROUNDS, START_BUY, END_BUY, MATURITY = 24, 2, 50, 100, 300
PERIOD = (MATURITY - END_BUY) // ROUNDS
SUPPLY = BONDS * UNIT
BASE = PRINCIPAL = 100 * USD  # per bond: `BondEnv.deploy`'s defaults
PRICE = 90 * USD  # per bond, in every offer
INVESTOR = st.integers(0, 3)
SETTINGS = settings(
    max_examples=100, stateful_step_count=50, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seen: Counter = Counter()  # what the runs reached, by outcome


def per_bond_coupon(rating: int) -> int:
    """The paper's penalty table: 10% more per star below 5; unrated pays 5 stars."""
    below = 5 - (rating or 5)
    return BASE * 11**below // 10**below


class HonestActors(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = BondEnv()
        self.led = self.env.ledger
        self.dep = self.env.deploy(
            total_bonds=BONDS, coupon_rounds=ROUNDS, start_buy=START_BUY, end_buy=END_BUY, maturity=MATURITY
        )
        self.investors = [self.env.investor(name) for name in "abcd"]
        self.holdings = dict.fromkeys(self.investors, 0)
        self.paid = dict.fromkeys(self.investors, 0)  # each holder's coupon counter
        self.ratings = {}  # rating slot -> stars
        self.funds = self.reserve = self.unlocked = 0
        self.opened = {}  # round -> (its per-bond coupon, the bonds circulating when it opened)
        self.paid_out = defaultdict(int)  # round -> coupons paid in it

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

    def expect(self, result, code, name):
        assert result.reason() == ("" if code is None else f"app_rejected:{code}"), (name, self.now)
        seen[name if code is None else code] += 1

    def claim(self, submit, investor, code, payout, name):
        """Submit a claim; an approved one must pay the model's `payout`."""
        before = self.led.asset_balance(investor, self.env.stablecoin)
        result = submit(self.led, self.dep, investor)
        self.expect(result, code, name)
        if result.approved:
            assert self.led.asset_balance(investor, self.env.stablecoin) - before == payout, name
            self.funds -= payout
        return result.approved

    # -- rules

    @initialize(bonds=st.lists(st.integers(0, 6), min_size=4, max_size=4))
    def open_the_buy_window(self, bonds):
        """Each investor buys its first whole bonds as the window opens."""
        self.led.advance_time(START_BUY)
        for who, count in enumerate(bonds):
            self.buy(who, count * UNIT)

    @precondition(lambda self: self.now < END_BUY)
    @rule(who=INVESTOR, amount=st.sampled_from([UNIT // 2, UNIT, 3 * UNIT]))
    def buy(self, who, amount):
        investor = self.investors[who]
        amount = min(amount, SUPPLY - self.circulation())
        if amount:
            self.expect(gb.submit_buy(self.led, self.dep, investor, amount), None, "buy")
            self.holdings[investor] += amount

    @rule(seller=INVESTOR, buyer=INVESTOR, amount=st.sampled_from([UNIT // 2, UNIT, None]))
    def trade(self, seller, buyer, amount):
        """Set the allowance, publish an offer, and let the buyer take it."""
        seller, buyer = self.investors[seller], self.investors[buyer]
        held = self.holdings[seller]
        amount = held if amount is None else min(amount, held)
        if not amount:
            return
        assert gb.submit_set_trade(self.led, self.dep, seller, amount).approved
        offer = gb.make_trade_offer(self.dep, seller, PRICE, expiry=10**6)
        adopts = buyer != seller and self.holdings[buyer] == 0
        code = None if adopts or self.paid[buyer] == self.paid[seller] else "coupons_differ"
        self.expect(gb.submit_trade(self.led, self.dep, offer, buyer, amount), code, "adopt" if adopts else "trade")
        if code is None:
            if adopts:
                self.paid[buyer] = self.paid[seller]
            self.holdings[seller] -= amount
            self.holdings[buyer] += amount

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

    @precondition(lambda self: self.now >= END_BUY + PERIOD)
    @rule(who=INVESTOR)
    def coupon(self, who):
        investor = self.investors[who]
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
        if self.claim(gb.submit_coupon, investor, code, payout, "coupon"):
            if opens:
                self.unlocked = round_no
                self.opened[round_no] = (per_bond, self.circulation())
            self.reserve = reserve
            self.paid[investor] = round_no
            self.paid_out[round_no] += payout

    @precondition(lambda self: self.now >= MATURITY)
    @rule(who=INVESTOR)
    def principal(self, who):
        investor = self.investors[who]
        held = self.holdings[investor]
        if not held:
            code = "no_bonds"
        elif self.paid[investor] != ROUNDS:
            code = "unclaimed_coupons"
        else:
            owed = self.reserve + self.circulation() * PRINCIPAL // UNIT
            code = "escrow_shortfall" if self.funds < owed else None
        if self.claim(gb.submit_principal, investor, code, held * PRINCIPAL // UNIT, "principal"):
            self.holdings[investor] = 0

    # a holder claims only once the first round is due, and while there is something to recover
    @precondition(lambda self: self.now >= END_BUY + PERIOD and self.funds > self.reserve)
    @rule(who=INVESTOR)
    def default(self, who):
        investor = self.investors[who]
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
        if self.claim(gb.submit_default, investor, code, payout, "default"):
            self.holdings[investor] = 0

    # -- invariants

    @invariant()
    def the_model_is_the_ledger(self):
        led, dep = self.led, self.dep
        for investor in self.investors:
            assert led.asset_balance(investor, dep.bond_asset_id) == self.holdings[investor]
            assert gb.investor_local_state(led, dep, investor)[0] == self.paid[investor]
        assert self.env.escrow_funds() == self.funds
        assert gb.main_global_state(led, dep)[:2] == (self.unlocked, self.reserve)

    @invariant()
    def no_round_pays_more_than_its_bonds_are_owed(self):
        for round_no, total in self.paid_out.items():
            per_bond, circulation = self.opened[round_no]
            assert total <= per_bond * circulation // UNIT

    @invariant()
    def app_state_holds_only_uint64(self):
        state = self.led.observable_state()
        values = [value for pairs, _, _ in state["apps"].values() for _, value in pairs]
        values += [value for _, _, local, _ in state["accounts"].values() for _, pairs in local for _, value in pairs]
        assert all(0 <= value < 2**64 for value in values if isinstance(value, int))

    @invariant()
    def supply_and_algos_are_conserved(self):
        assert self.led.asset_supply_held(self.dep.bond_asset_id) == SUPPLY
        assert self.led.total_algos() + self.led.total_fees_burned() == self.led.total_minted()

    @invariant()
    def the_escrow_covers_the_reserve(self):
        assert self.env.escrow_funds() >= gb.main_global_state(self.led, self.dep)[1]


def test_honest_actors_are_paid_what_the_model_owes():
    seen.clear()
    run_state_machine_as_test(HonestActors, settings=SETTINGS)
    # the runs reached every kind of payout, both trade rules and the refusals that guard them
    reached = {"coupon", "principal", "default", "adopt", "trade", "coupons_differ", "escrow_shortfall"}
    assert reached <= set(seen), seen
