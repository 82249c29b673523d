"""`bondsim run` and `bondsim costs` output, byte for byte, against files
recorded under `tests/golden/` before the scenario verb table replaced the
old validator and dispatcher: in this interpreter, and in every CPython 3.10
or later installed under the pyenv root (`$PYENV_ROOT`, or `~/.pyenv`)."""
import json
import os
import random
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


def test_offers_spliced_into_the_generated_base_keep_every_base_outcome(tmp_path, capsys):
    """The scenario-replay workload's shape: 200 `offer` lines spread through
    `bench/generated-base.bsim` after its issue step.  Offers bind names but
    never touch the ledger, so each reads APPROVED, each base step keeps its
    recorded outcome under its new step number, and the cost table stays the
    base script's."""
    base = [s for s in (line.strip() for line in SCRIPTS[2].read_text().splitlines()) if s and not s.startswith("#")]
    outcomes = [line.split(" ", 2)[2] for line in (GOLDEN / "generated-base.run.txt").read_text().splitlines()]
    steps = list(zip(base, outcomes))
    first = next(i for i, s in enumerate(base) if s.startswith("issue ")) + 1
    rng = random.Random(24)
    for k in range(200):
        offer = f"offer b o{k} seller=a{k % 4 + 1} price=${50 + k % 100} expiry={1000 + 37 * k}"
        steps.insert(rng.randrange(first, len(steps) + 1), (offer, "offer -> APPROVED"))
    script = tmp_path / "spliced.bsim"
    script.write_text("".join(line + "\n" for line, _ in steps))

    assert cli.main(["run", str(script)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"STEP {n} {outcome}" for n, (_, outcome) in enumerate(steps, 1)]
    assert cli.main(["costs", str(script)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "generated-base.costs.txt").read_text()


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
