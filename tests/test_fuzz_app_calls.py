"""Fuzzing the apps' own programs: the creator sends short sequences of app
calls, with every on-completion and short arbitrary arguments, to a deployed
bond's two apps and to a main and a manage program registered directly and
never linked.  Each submit must end in a `SubmitResult`: a handler refuses
what it cannot read, and nothing raises out of `submit_group`."""
from hypothesis import given, settings
from hypothesis import strategies as st

from bondsim import greenbond as gb
from bondsim.ledger import AppCall, SubmitResult
from bondsim.programs import OnComplete

from conftest import BondEnv

TOKENS = [b"configure", b"finalize", b"bond_asset", b"peer_app", b"setup", b"buy", b"rate", b"1", b"-1", b"\xff"]
token = st.sampled_from(TOKENS) | st.binary(max_size=4)
# half the argument lists start as a link does, so that its parse is reached
args = st.lists(token, max_size=6).map(tuple) | st.lists(token, max_size=5).map(lambda rest: (b"configure", *rest))
calls = st.lists(st.tuples(st.integers(0, 3), st.sampled_from(list(OnComplete)), args), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(calls)
def test_creator_app_calls_end_in_a_result(calls):
    env = BondEnv()
    dep = env.deploy()
    led = env.ledger
    apps = [
        dep.main_app_id,
        dep.manage_app_id,
        led.register_app(gb.build_main_program(dep.params), env.operator),
        led.register_app(gb.build_manage_program(dep.params), env.operator),
    ]
    for target, on_complete, arguments in calls:
        call = AppCall(sender=env.operator, app_id=apps[target], on_complete=on_complete, args=arguments)
        assert isinstance(led.submit_group([call]), SubmitResult)
