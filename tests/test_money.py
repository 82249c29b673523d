"""`parse_money`'s whole-dollar branch against a Decimal-only reference, and
long amounts and quantities: exact or refused, never rounded."""
from decimal import Context, Decimal, DecimalException, DivisionByZero, Inexact, InvalidOperation, Overflow
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bondsim.scenario import UNIT, ScenarioError, parse_bonds, parse_money


def reference_parse_money(token: str, lineno: int = 0) -> int:
    """`parse_money` without its whole-dollar branch: every `$` amount goes
    through Decimal."""
    try:
        if token.startswith("$"):
            exact = Context(prec=4300, traps=[DivisionByZero, Inexact, InvalidOperation, Overflow])
            scaled = exact.multiply(Decimal(token[1:]), UNIT)
            if scaled != scaled.to_integral_value():
                raise ScenarioError(lineno, f"more than 6 decimal places: {token}")
            if scaled and scaled.adjusted() >= 4300:  # more than 4,300 digits
                raise ValueError(token)
            return int(scaled)
        return int(token)
    except (DecimalException, ValueError, OverflowError):
        raise ScenarioError(lineno, f"bad amount: {token}") from None


def outcome(parse, token: str):
    try:
        value = parse(token, 7)
    except ScenarioError as exc:
        return "error", str(exc)
    assert type(value) is int
    return "value", value


TOKEN_CHARS = "0123456789_.+-$eE \t١²"
tokens = st.one_of(
    st.text(alphabet="0123456789", max_size=40).map(lambda d: "$" + d),
    st.text(alphabet="0123456789", min_size=1, max_size=6).map(lambda d: "$" + "0" * 3 + d),
    st.text(alphabet=TOKEN_CHARS, max_size=30).map(lambda s: "$" + s),
    st.text(alphabet=TOKEN_CHARS, max_size=30),
    st.text(max_size=12),
)


@settings(max_examples=1000, deadline=None)
@given(tokens)
@example("")
@example("$")
@example("$007")
@example("$1_000")
@example("$1.5")
@example("$+5")
@example("$-5")
@example("$١٢")
@example("$²")
@example("$" + "9" * 22)
@example("$" + "9" * 23)
@example("$" + "1" * 30)
@example("$" + "1" * 40)
@example("$1." + "0" * 40 + "1")
@example("$Infinity")
@example("$NaN")
@example("$sNaN")
@example("$1e1000000")
@example("$1e4293")
@example("$1e4294")
@example("$0E4300")
@example("$-1e4294")
@example("$1e999990")
@example("1" * 4300)
@example("1" * 4301)
def test_parse_money_matches_decimal_reference(token):
    assert outcome(parse_money, token) == outcome(reference_parse_money, token)


def test_whole_dollars_are_exact():
    assert parse_money("$0") == 0
    assert parse_money("$0012") == 12 * UNIT
    assert parse_money("$" + "9" * 22) == int("9" * 22) * UNIT


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=4280, max_value=999_990))
@example(4293)
@example(4294)
@example(999_990)
def test_bond_quantities_of_more_than_4300_digits_are_refused(exponent):
    token = f"1e{exponent}"
    if exponent + 6 < 4300:  # 1 followed by exponent + 6 zeros
        assert parse_bonds(token) == 10 ** (exponent + 6)
    else:
        assert outcome(parse_bonds, token) == ("error", f"line 7: bad bond quantity: {token}")
    assert parse_bonds(f"0e{exponent}") == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**60), st.text(alphabet="0123456789", max_size=50))
@example(int("1" * 30), "")
@example(1, "0" * 40 + "1")
@example(1, "5" + "0" * 40)
def test_long_values_are_exact_or_refused(whole, fraction):
    token = f"{whole}.{fraction}" if fraction else str(whole)
    exact = Fraction(token) * UNIT
    for parse, text in ((parse_bonds, token), (parse_money, "$" + token)):
        if exact.denominator == 1:
            assert parse(text) == exact
        else:
            assert outcome(parse, text) == ("error", f"line 7: more than 6 decimal places: {text}")
