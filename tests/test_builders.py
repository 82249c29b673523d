"""Each action's builder passes its legs' fields by position, in the field
order of the transaction classes.  These tests hold every shape's compiled
builder to a builder compiled from the same pins with keyword arguments,
so a reordered or re-defaulted transaction field shows as a changed group."""
import types

import pytest

from bondsim import greenbond as gb
from bondsim.greenbond import ESCROW_FUNDING, ESCROW_SEED, UNIT

SHAPES = {name: shape for name, shape in vars(gb).items() if isinstance(shape, gb._Shape)}


def keyword_build(shape: gb._Shape):
    """`shape.build`, compiled with each leg's fields passed by keyword, the
    legs built one by one into a list."""

    def render(source):
        lines = ["txns = []"]
        for leg in shape.legs:
            given = {**{field: pin.value for field, pin in leg.pins.items()}, **leg.extra}
            fields = ", ".join(f"{field}={source(text)}" for field, text in given.items())
            lines.append(f"txns.append({leg.kind.__name__}({fields}))")
        return [*lines, "return TransactionGroup(tuple(txns))"]

    holder = types.SimpleNamespace()
    gb._compile(holder, "build", "dep, actor", "dep", render)
    return holder.build


@pytest.fixture
def operands(env):
    """A deployment, an actor, and each shape's own operands."""
    dep = env.deploy()
    actor, other = env.investor("actor"), env.investor("other")
    offer = gb.make_trade_offer(dep, actor, 90 * UNIT, expiry=300)
    own = {
        "_LINK": dict(),
        "_FUND_CONTRACTS": dict(funding=ESCROW_FUNDING),
        "_SETUP": dict(supply=dep.params.supply_base_units, seed=ESCROW_SEED),
        "_FREEZE_ALL": dict(value=1),
        "_FREEZE": dict(target=other, value=0),
        "_SET_TRADE": dict(quantity=3 * UNIT),
        "_RATE": dict(rating=4),
        "_FUND_ESCROW": dict(quantity=7 * UNIT),
        "_BUY": dict(quantity=5 * UNIT),
        "_TRADE": dict(buyer=other, quantity=2 * UNIT, price=offer.price_per_bond, offer=offer.lsig),
        "_COUPON": dict(payout=9 * UNIT),
        "_PRINCIPAL": dict(holdings=11 * UNIT),
        "_DEFAULT": dict(holdings=11 * UNIT, payout=13 * UNIT),
    }
    return dep, actor, own


def test_every_shape_has_operands(operands):
    assert set(SHAPES) == set(operands[2])


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_positional_builder_equals_keyword_builder(operands, name):
    dep, actor, own = operands
    shape = SHAPES[name]
    group = shape.build(dep, actor, **own[name])
    assert group == keyword_build(shape)(dep, actor, **own[name])
    assert [type(t) for t in group.txns] == [leg.kind for leg in shape.legs]
