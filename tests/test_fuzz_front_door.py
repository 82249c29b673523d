"""Fuzzing the front door: the bundled scripts with lines dropped, swapped or
repeated, tokens dropped, inserted or replaced by random verbs, names, odd
amounts and garbage.  `bondsim run` must end with exit code 0, 1 or 2, and
nothing may raise out of `cli.main`."""
import contextlib
import io
import string
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bondsim import cli
from bondsim.scenario import _VERBS

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = [(ROOT / "scenarios" / name).read_text().splitlines() for name in ("lifecycle.bsim", "default-checks.bsim")]
SCRIPT_TOKENS = sorted({token for lines in SCRIPTS for line in lines for token in line.split()})
ODD_TOKENS = [
    "$1e999990", "1e999990", "$1e1000000", "1e4294", "$1e4294", "0E4300", "$0E4300", "1e4290",
    "inf", "$inf", "-inf", "$Infinity", "NaN", "$NaN", "sNaN", "$-1", "-5", "-0", "$1.0000001",
    "1e-7", "0.5", "9" * 40, "$" + "9" * 40, "1" * 4301, "$", "=", "x=", "=y", "price=$1e999990",
    "expiry=-1", "rounds=-1", "rounds=99", "bonds=0", "bonds=1e3", "cost=$-1", "all", "rejected",
    "faucet", "#", "==", ">=", "true", "maybe", "data=", "file=", "file=../x", "file=/etc/hostname",
    "٣", "1_000",
]
tokens = st.one_of(
    st.sampled_from(sorted(_VERBS) + ["bogus"]),
    st.sampled_from(SCRIPT_TOKENS),
    st.sampled_from(ODD_TOKENS),
    st.text(alphabet=string.ascii_letters + string.digits + "$=.-_#+", max_size=12),
)
mutations = st.tuples(
    st.sampled_from(["drop", "swap", "repeat", "drop-token", "insert-token", "set-token", "set-verb"]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    tokens,
)


def mutate(lines: list, mutation: tuple) -> None:
    kind, i, j, token = mutation
    i %= len(lines)
    if kind == "drop":
        del lines[i]
    elif kind == "swap":
        j %= len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    else:
        words = lines[i].split()
        if kind == "set-verb" or not words:
            words[:1] = [token]
        elif kind == "drop-token":
            del words[j % len(words)]
        elif kind == "insert-token":
            words.insert(j % (len(words) + 1), token)
        else:
            words[j % len(words)] = token
        lines[i] = " ".join(words)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(range(len(SCRIPTS))), st.lists(mutations, min_size=1, max_size=4))
def test_mutated_scripts_end_in_a_documented_exit_code(tmp_path_factory, script, changes):
    lines = list(SCRIPTS[script])
    for mutation in changes:
        if lines:
            mutate(lines, mutation)
    path = tmp_path_factory.mktemp("fuzz") / "s.bsim"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path)])
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: line ") and out.getvalue() == ""


@pytest.mark.parametrize("data", [b"create-account a\xff\n", b"\xfe\xff", b"create-account \xc3\n"])
def test_undecodable_script_is_a_usage_error(tmp_path, capsys, data):
    path = tmp_path / "s.bsim"
    path.write_bytes(data)
    assert cli.main(["run", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read scenario: ")
