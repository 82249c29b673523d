"""The `cli` -> `scenario` path: one argparse parser per process, inline
comments, offers whose signature is built by the trade that uses it, and
tokens that are checked before a script runs."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bondsim
from bondsim import cli
from bondsim import greenbond as gb
from bondsim.scenario import EXIT_OK, ScenarioError, parse_scenario, run_scenario_text

ROOT = Path(__file__).resolve().parents[1]

SETUP = """\
create-account operator
create-account issuer
create-account verifier
create-account regulator
create-account inv1
create-account inv2
fund-algos operator 2000000
fund-algos issuer 2000000
fund-algos verifier 2000000
fund-algos regulator 2000000
fund-algos inv1 2000000
fund-algos inv2 2000000
fund-stablecoin inv1 $100000
fund-stablecoin inv2 $100000
issue bond1 operator=operator issuer=issuer verifier=verifier regulator=regulator bonds=100 rounds=2 start-buy=100 end-buy=200 maturity=400 cost=$100 coupon=$10 principal=$100
approve-bond bond1
approve-account bond1 inv1
approve-account bond1 inv2
advance-time 100
buy bond1 inv1 5
set-trade bond1 inv1 4
"""
SETUP_LINES = SETUP.count("\n")


# ---------------------------------------------------------------------------
# one parser per process


def test_parser_is_built_once_and_reused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copy(ROOT / "scenarios" / "default-checks.bsim", tmp_path / "s.bsim")
    sequence = [
        ["bogus"],
        ["run", "s.bsim"],
        ["costs", "s.bsim"],
        ["price-curve", "--face", "100", "--sweep"],
        ["report", "get", "not-a-content-id"],
        ["run", "s.bsim"],
    ]

    def call(argv):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    fresh = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(call(argv))
    assert [code for code, _, _ in fresh] == [2, 0, 0, 2, 2, 0]

    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    monkeypatch.setattr(cli, "_parser", None)
    forwards = [call(argv) for argv in sequence]
    backwards = [call(argv) for argv in reversed(sequence)][::-1]
    twice = [call(argv) for argv in sequence + sequence]
    assert forwards == fresh
    assert backwards == fresh
    assert twice == fresh + fresh
    assert len(built) <= 1


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


# ---------------------------------------------------------------------------
# inline comments


def test_inline_comment_needs_whitespace_before_hash():
    text = "report-put r data=a#b\nreport-put s data=a #b\nreport-put t data=a\t#b c\n"
    steps = parse_scenario(text)
    assert [raw for _, _, raw, _, _ in steps] == ["report-put r data=a#b", "report-put s data=a", "report-put t data=a"]
    outcome, runner = run_scenario_text(text)
    assert outcome.exit_code == EXIT_OK
    assert runner.store.fetch(runner.reports["r"]) == b"a#b"
    assert runner.store.fetch(runner.reports["s"]) == b"a"
    assert runner.store.fetch(runner.reports["t"]) == b"a"


# ---------------------------------------------------------------------------
# offers are built by the trade that uses them


@pytest.fixture
def offer_calls(monkeypatch):
    calls = []
    real = gb.make_trade_offer

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gb, "make_trade_offer", counting)
    return calls


def test_untraded_offers_build_no_signature(offer_calls):
    offers = "".join(f"offer bond1 o{i} seller=inv1 price=$100 expiry=10000\n" for i in range(50))
    outcome, _ = run_scenario_text(SETUP + offers)
    assert outcome.exit_code == EXIT_OK, outcome.transcript
    assert offer_calls == []


def test_each_trade_builds_its_offer(offer_calls):
    text = SETUP + """\
offer bond1 deal seller=inv1 price=$1000 expiry=10000
offer bond1 idle seller=inv1 price=$1 expiry=10000
trade bond1 deal inv2 0.5
assert rejected false
trade bond1 deal inv2 1.5
assert rejected false
assert bond-balance bond1 inv2 == 2
assert stablecoin-balance inv2 == $98000
"""
    outcome, runner = run_scenario_text(text)
    assert outcome.exit_code == EXIT_OK, outcome.transcript
    investor = runner.accounts["inv1"]
    dep = runner.bonds["bond1"]
    assert offer_calls == [(dep, investor, 1000 * gb.UNIT, 10000)] * 2


def test_trade_after_offer_expiry_is_logic_rejected():
    text = SETUP + """\
offer bond1 deal seller=inv1 price=$100 expiry=150
advance-time 150
trade bond1 deal inv2 1
"""
    outcome, _ = run_scenario_text(text)
    assert outcome.exit_code == EXIT_OK
    assert outcome.transcript[-1].startswith(f"STEP {SETUP_LINES + 3} trade -> REJECTED(logic_rejected")


# ---------------------------------------------------------------------------
# tokens are checked before the run


def _run_cli(script: Path):
    env = dict(os.environ, PYTHONPATH=str(Path(bondsim.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "bondsim.cli", "run", str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


# a token past the verb's last argument, on lines that parse without it
TRAILING = ["create-account a extra", "fund-algos inv1 100 200", "advance-time 500 6", "assert rejected false junk"]


@pytest.mark.parametrize(
    "line",
    [
        "fund-algos inv1 -5",
        "rate bond1 verifier abc",
        "assert algo-balance inv1 == x",
        "offer bond1 o seller=inv1 price=$x expiry=1000",
        "buy bond1 inv2 1.0000001",
        "assert rating bond1 3 == 0",
        "fund-stablecoin inv1 $1e1000000",
        "buy bond1 inv2 1e1000000",
        "issue bond2 operator=operator issuer=issuer verifier=verifier regulator=regulator bonds=10 bonds=20"
        " rounds=2 start-buy=100 end-buy=200 maturity=400 cost=$100 coupon=$10 principal=$100",
        "offer bond1 o seller=inv1 price=$1 expiry=10 seller=inv1",
        "report-put r file=",
        "report-put r file=.",
        *TRAILING,
    ],
)
def test_bad_token_exits_2_with_its_line(line, tmp_path):
    script = tmp_path / "bad.bsim"
    script.write_text(SETUP + line + "\n")
    proc = _run_cli(script)
    assert proc.returncode == 2
    assert f"line {SETUP_LINES + 1}:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("line", TRAILING)
def test_only_the_trailing_token_makes_the_line_bad(line):
    """Each line of `TRAILING` parses without its last token, so the token
    past the verb's last argument is what the parser refuses."""
    parse_scenario(SETUP + line.rsplit(" ", 1)[0] + "\n")
    with pytest.raises(ScenarioError, match=f"^line {SETUP_LINES + 1}: .*expected (at most|nothing)"):
        parse_scenario(SETUP + line + "\n")


@pytest.mark.parametrize(
    "lines, code",
    [
        (
            "issue bond2 operator=operator issuer=issuer verifier=verifier regulator=regulator bonds=100"
            " rounds=2 start-buy=300 end-buy=200 maturity=400 cost=$100 coupon=$10 principal=$100\n"
            "approve-bond bond2\n",
            "bond_not_issued: bond2",
        ),
        ("report-put r file=missing\n", "file_unreadable: "),
        ("fund-stablecoin inv1 2000000000000\n", "faucet_empty: "),
    ],
    ids=["bond_not_issued", "file_unreadable", "faucet_empty"],
)
def test_environment_failure_stops_the_run_with_exit_1(lines, code, tmp_path):
    """A run-time failure of the environment is the step's `REJECTED(...)`
    and ends the run with exit 1, as a failed assert does."""
    script = tmp_path / "env.bsim"
    text = SETUP + lines + "assert rejected false\n"
    script.write_text(text)
    proc = _run_cli(script)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    last = SETUP_LINES + lines.count("\n")  # no blank or comment lines: step n is line n
    verb = lines.splitlines()[-1].split()[0]
    assert proc.stdout.splitlines()[-1].startswith(f"STEP {last} {verb} -> REJECTED({code}")
    assert len(proc.stdout.splitlines()) == last


@pytest.mark.parametrize(
    "line",
    [
        "fund-stablecoin inv1 $-1",
        "fund-stablecoin inv1 $Infinity",
        "buy bond1 inv2 inf",
        "fund-escrow bond1 issuer $1.0000001",
        "freeze bond1 all yes",
        "approve-account bond1 inv2 x",
        "assert stablecoin-balance inv1 == 5.5",
        "assert local-state bond1 inv1 trade == $1",
        "assert rating bond1 -1 == 0",
    ],
)
def test_more_bad_tokens_are_parse_errors(line):
    with pytest.raises(ScenarioError, match=f"^line {SETUP_LINES + 1}: "):
        parse_scenario(SETUP + line + "\n")


def test_rating_index_up_to_rounds_is_accepted():
    outcome, _ = run_scenario_text(SETUP + "assert rating bond1 2 == 0\nassert rating bond1 0 == 0\n")
    assert outcome.exit_code == EXIT_OK, outcome.transcript


# ---------------------------------------------------------------------------
# report files stay in the script's directory


def script_in_sub(tmp_path, text):
    """`sub/s.bsim` holding `text`, with `outside.txt` beside `sub`."""
    (tmp_path / "outside.txt").write_text("outside")
    (tmp_path / "sub").mkdir()
    script = tmp_path / "sub" / "s.bsim"
    script.write_text(text)
    return script


@pytest.mark.parametrize("cwd", ["sub", "parent"])
@pytest.mark.parametrize("path", ["../outside.txt", "/etc/hostname", "a/../../outside.txt", "a/../b"])
def test_report_file_outside_the_directory_is_a_parse_error(tmp_path, monkeypatch, capsys, path, cwd):
    script = script_in_sub(tmp_path, f"create-account a\nreport-put r file={path}\n")
    monkeypatch.chdir(script.parent if cwd == "sub" else tmp_path)
    assert cli.main(["run", os.path.relpath(script)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: line 2: report-put: file= must name a file in the script's directory")


@pytest.mark.parametrize("cwd", ["sub", "parent"])
def test_report_file_is_read_from_the_scripts_directory(tmp_path, monkeypatch, capsys, cwd):
    script = script_in_sub(tmp_path, "report-put r file=blob.bin\nreport-put s file=./nested/inner\n")
    (script.parent / "blob.bin").write_bytes(b"blob")
    (script.parent / "nested").mkdir()
    (script.parent / "nested" / "inner").symlink_to(script.parent / "blob.bin")  # a link that stays inside
    monkeypatch.chdir(script.parent if cwd == "sub" else tmp_path)
    assert cli.main(["run", os.path.relpath(script)]) == 0
    assert capsys.readouterr().out == "STEP 1 report-put -> APPROVED\nSTEP 2 report-put -> APPROVED\n"
    outcome, runner = run_scenario_text(script.read_text(), os.path.relpath(script.parent))
    assert outcome.exit_code == EXIT_OK
    assert runner.store.fetch(runner.reports["r"]) == runner.store.fetch(runner.reports["s"]) == b"blob"


@pytest.mark.parametrize(
    "name, detail",
    [
        ("link", "link leads out of the script's directory"),
        ("loop", None),
        ("nul\x00byte", None),
        ("missing", None),
    ],
)
def test_report_file_that_cannot_be_read_inside_the_directory_stops_the_run(tmp_path, capsys, name, detail):
    script = script_in_sub(tmp_path, f"create-account a\nreport-put r file={name}\nassert rejected false\n")
    (script.parent / "link").symlink_to(tmp_path / "outside.txt")
    (script.parent / "loop").symlink_to(script.parent / "loop")
    assert cli.main(["run", str(script)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith(f"STEP 2 report-put -> REJECTED(file_unreadable: {detail or ''}")
    assert len(out.splitlines()) == 2 and "Traceback" not in err


def test_a_run_with_no_directory_reads_no_file(tmp_path, monkeypatch):
    (tmp_path / "blob.bin").write_bytes(b"blob")
    monkeypatch.chdir(tmp_path)
    outcome, runner = run_scenario_text("report-put r file=blob.bin\n")
    assert outcome.exit_code == 1 and runner.reports == {}
    detail = "no script directory to read blob.bin from"
    assert outcome.transcript == [f"STEP 1 report-put -> REJECTED(file_unreadable: {detail})"]
