"""Identical inputs give identical output: `bondsim run` and `bondsim costs`
in fresh interpreters under different string-hash seeds print the same
bytes as each other and as the files under `tests/golden/`."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bondsim

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
SCRIPTS = [
    ROOT / "scenarios" / "lifecycle.bsim",
    ROOT / "scenarios" / "default-checks.bsim",
    ROOT / "bench" / "generated-base.bsim",
]
HASH_SEEDS = ("0", "3")


def _cli(command: str, script: Path, hash_seed: str) -> bytes:
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(bondsim.__file__).resolve().parents[1]),
        PYTHONHASHSEED=hash_seed,
    )
    proc = subprocess.run(
        [sys.executable, "-m", "bondsim.cli", command, str(script)],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout


@pytest.mark.parametrize("command", ["run", "costs"])
@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_output_does_not_depend_on_the_hash_seed(script, command):
    outputs = [_cli(command, script, seed) for seed in HASH_SEEDS]
    assert outputs == [(GOLDEN / f"{script.stem}.{command}.txt").read_bytes()] * len(HASH_SEEDS)
