"""The command line's argv: bad numbers and unwritable paths are usage errors
(an `error:` line and exit 2), and a Hypothesis fuzz over every subcommand
finds no argv that makes `cli.main` raise or return another exit code.  Every
path the fuzz names lies under a temporary directory, which is also the
working directory, so the default report store lands there too."""
import contextlib
import hashlib
import io
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondsim import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ("lifecycle.bsim", "default-checks.bsim")


def call(argv):
    """Exit code, stdout text and stderr text of `cli.main(argv)`; stdout
    has a byte buffer, as `report get` writes raw bytes."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8", "replace"), err.getvalue()


@pytest.fixture(scope="module")
def sandbox(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    for name in SCRIPTS:
        (root / name).write_text((ROOT / "scenarios" / name).read_text())
    (root / "file.txt").write_bytes(REPORT)
    (root / "dir").mkdir()
    return root


@pytest.mark.parametrize(
    "argv",
    [
        ["price-curve", "--face", "100", "--rate", "0.05", "--sweep", "T", "--values", "1e400"],
        ["price-curve", "--face", "100", "--rate", "0.05", "--sweep", "T", "--values", "nan"],
        ["price-curve", "--face", "100", "--rate", "0.05", "--sweep", "T", "--values", "-3"],
        ["price-curve", "--face", "100", "--rate", "0.05", "--sweep", "T", "--values", ","],
        ["price-curve", "--face", "100", "--rate", "-2", "--sweep", "T", "--values", "5"],
        ["price-curve", "--face", "100", "--rate", "-0.5", "--sweep", "T", "--values", "1e18"],
        ["price-curve", "--face", "100", "--rate", "0.05", "--coupon-rates", "0.1", "--periods", "-1"],
        ["price-curve", "--face", "nan", "--rate", "0.05", "--sweep", "T", "--values", "5"],
        ["price-curve", "--face", "100", "--rate", "nan", "--sweep", "T", "--values", "5"],
        ["price-curve", "--face", "100", "--rate", "inf", "--sweep", "T", "--values", "5"],
        ["price-curve", "--face", "100", "--rate", "0.05", "--coupon-rate", "inf", "--sweep", "T", "--values", "5"],
        ["price-curve", "--face", "100", "--rate", "0.05", "--coupon-rates", "0.1,nan"],
        ["price-curve", "--face", "1e308", "--rate", "-0.5", "--sweep", "T", "--values", "1000"],
        ["price-curve", "--face", "100", "--rate", "0.05", "--sweep", "T", "--values", "5", "--out", "{f}/sub"],
        ["price-curve", "--face", "100", "--rate", "0.05", "--sweep", "T", "--values", "5", "--out", "{d}"],
        ["run", "{s}", "--transcript", "{f}/sub"],
        ["run", "{s}", "--transcript", "{d}"],
        ["report", "put", "{f}", "--store", "{f}/sub"],
        ["report", "get", "{cid}", "--store", "{store}", "--out", "{f}/sub"],
    ],
)
def test_bad_argv_is_a_usage_error(tmp_path, argv):
    (tmp_path / "file.txt").write_bytes(b"report")
    (tmp_path / "s.bsim").write_text((ROOT / "scenarios" / "lifecycle.bsim").read_text())
    store = tmp_path / "store"
    assert call(["report", "put", str(tmp_path / "file.txt"), "--store", str(store)])[0] == 0
    names = {"f": tmp_path / "file.txt", "d": tmp_path, "s": tmp_path / "s.bsim", "store": store}
    names["cid"] = next(store.iterdir()).name
    code, _, err = call([arg.format(**{k: str(v) for k, v in names.items()}) for arg in argv])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def paths(root: Path):
    return st.sampled_from(
        [str(root / p) for p in (*SCRIPTS, "file.txt", "dir", "missing", "file.txt/sub", "dir/out", "missing/out")]
        + ["store", "store/sub", "-", ""]
    )


NUMBERS = st.sampled_from(
    ["0", "1", "-1", "-2", "-3", "0.05", "1.5", "100", "1e18", "1e400", "-1e400", "nan", "inf", "x", "", "1,2", ","]
)
REPORT = b"an impact report"
CONTENT_IDS = st.sampled_from([hashlib.sha256(REPORT).hexdigest(), "0" * 64, "F" * 64, "../file.txt", "dir", ""])


def argvs(root: Path):
    path = paths(root)
    run = st.tuples(st.just(["run"]), st.lists(path, max_size=1), st.lists(path, max_size=1)).map(
        lambda t: t[0] + t[1] + (["--transcript", *t[2]] if t[2] else [])
    )
    costs = st.lists(path, max_size=2).map(lambda ps: ["costs", *ps])
    options = st.lists(
        st.tuples(
            st.sampled_from(["--face", "--rate", "--sweep", "--values", "--coupon-rate", "--coupon-rates", "--periods"]),
            st.one_of(NUMBERS, st.sampled_from(["T", "X"])),
        ).map(list)
        | st.tuples(st.just("--out"), path).map(list),
        max_size=6,
    )
    curve = options.map(lambda opts: ["price-curve", *(token for opt in opts for token in opt)])
    report = st.tuples(
        st.sampled_from(["put", "get", "list", "drop"]),
        st.lists(st.one_of(path, CONTENT_IDS, st.sampled_from(["issuer", "bond1", "nobody"])), max_size=3),
        st.lists(st.tuples(st.sampled_from(["--store", "--out"]), path).map(list), max_size=2),
    ).map(lambda t: ["report", t[0], *t[1], *(token for opt in t[2] for token in opt)])
    noise = st.lists(st.one_of(NUMBERS, path, st.sampled_from(["run", "--help", "-h", "--out", "report"])), max_size=4)
    return st.one_of(run, costs, curve, report, noise)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_argv_ends_in_a_documented_exit_code(sandbox, data):
    argv = data.draw(argvs(sandbox))
    cwd = os.getcwd()
    os.chdir(sandbox)
    try:
        code, _, err = call(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code, err)
