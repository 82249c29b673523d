"""`bondsim run` and `bondsim costs` output, byte for byte, against files
recorded under `tests/golden/` before the scenario verb table replaced the
old validator and dispatcher: in this interpreter, and in every CPython 3.10
or later installed under the pyenv root (`$PYENV_ROOT`, or `~/.pyenv`)."""
import json
import os
import re
import subprocess
from pathlib import Path

import pytest

from bondsim import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SCRIPTS = [
    ROOT / "scenarios" / "lifecycle.bsim",
    ROOT / "scenarios" / "default-checks.bsim",
    ROOT / "bench" / "generated-base.bsim",
]
COMMANDS = ("run", "costs")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_output_matches_golden(script, command, capsys):
    assert cli.main([command, str(script)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / f"{script.stem}.{command}.txt").read_text()


# The child prints its version first, so an interpreter that writes nothing did not start.
REPLAY = """
import contextlib, io, json, sys
print(json.dumps(sys.version_info[:3]), flush=True)
from bondsim import cli
outputs = {}
for script in sys.argv[1:]:
    for command in %r:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, script])
        outputs[script + " " + command] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(outputs))
""" % (COMMANDS,)


def installed_interpreters() -> list:
    """`bin/python3` of each version directory named 3.10 or later under the pyenv root."""
    versions = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = []
    for home in sorted(versions.iterdir()) if versions.is_dir() else ():
        number = re.match(r"(\d+)\.(\d+)\.", home.name)
        if number and (int(number[1]), int(number[2])) >= (3, 10):
            found.append(pytest.param(home / "bin" / "python3", id=home.name))
    return found or [pytest.param(None, id="none", marks=pytest.mark.skip(f"no CPython 3.10+ under {versions}"))]


@pytest.mark.parametrize("python", installed_interpreters())
def test_output_matches_golden_under_each_interpreter(python):
    # -B: a fresh interpreter leaves no bytecode cache behind in src/
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        child = subprocess.run(
            [str(python), "-B", "-c", REPLAY, *map(str, SCRIPTS)], capture_output=True, text=True, env=env, timeout=120
        )
    except OSError as exc:
        pytest.skip(f"{python} does not start: {exc}")
    if not child.stdout:
        pytest.skip(f"{python} does not start: {child.stderr.strip()[-200:]}")
    version, _, outputs = child.stdout.partition("\n")
    assert child.returncode == 0, (version, child.stderr)
    outputs = json.loads(outputs)
    for script in SCRIPTS:
        for command in COMMANDS:
            code, out, err = outputs[f"{script} {command}"]
            assert (code, err) == (0, ""), (version, script.name, command, err)
            assert out == (GOLDEN / f"{script.stem}.{command}.txt").read_text(), (version, script.name, command)
