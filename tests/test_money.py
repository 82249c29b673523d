"""`parse_money`'s whole-dollar branch against a Decimal-only reference."""
from decimal import Decimal, DecimalException

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bondsim.scenario import UNIT, ScenarioError, parse_money


def reference_parse_money(token: str, lineno: int = 0) -> int:
    """`parse_money` without its whole-dollar branch: every `$` amount goes
    through Decimal."""
    try:
        if token.startswith("$"):
            scaled = Decimal(token[1:]) * UNIT
            if scaled != scaled.to_integral_value():
                raise ScenarioError(lineno, f"more than 6 decimal places: {token}")
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
@example("$" + "1" * 40)
@example("$Infinity")
@example("$NaN")
@example("$sNaN")
@example("$1e1000000")
def test_parse_money_matches_decimal_reference(token):
    assert outcome(parse_money, token) == outcome(reference_parse_money, token)


def test_whole_dollars_are_exact():
    assert parse_money("$0") == 0
    assert parse_money("$0012") == 12 * UNIT
    assert parse_money("$" + "9" * 22) == int("9" * 22) * UNIT
