"""`bondsim run` and `bondsim costs` output, byte for byte, against files
recorded under `tests/golden/` before the scenario verb table replaced the
old validator and dispatcher."""
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


@pytest.mark.parametrize("command", ["run", "costs"])
@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_output_matches_golden(script, command, capsys):
    assert cli.main([command, str(script)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / f"{script.stem}.{command}.txt").read_text()
