import hashlib

import pytest

from bondsim.cli import main

LIFECYCLE = """
create-account operator
create-account issuer
create-account verifier
create-account regulator
create-account inv1
fund-algos operator 2000000
fund-algos issuer 2000000
fund-algos verifier 2000000
fund-algos regulator 2000000
fund-algos inv1 2000000
fund-stablecoin issuer $100000
fund-stablecoin inv1 $100000
issue bond1 operator=operator issuer=issuer verifier=verifier regulator=regulator bonds=10 rounds=1 start-buy=100 end-buy=200 maturity=400 cost=$100 coupon=$10 principal=$100
approve-bond bond1
approve-account bond1 inv1
advance-time 100
buy bond1 inv1 1
assert bond-balance bond1 inv1 == 1
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "lifecycle.bsim"
    path.write_text(LIFECYCLE)
    return str(path)


def test_run_ok(scenario_file, capsys):
    assert main(["run", scenario_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "STEP 1 create-account -> APPROVED"
    assert "STEP 17 buy -> APPROVED" in out


def test_run_writes_transcript(scenario_file, tmp_path, capsys):
    out_path = tmp_path / "t.txt"
    assert main(["run", scenario_file, "--transcript", str(out_path)]) == 0
    assert out_path.read_text() == capsys.readouterr().out


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.bsim")]) == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.bsim"
    path.write_text("explode\n")
    assert main(["run", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_run_assert_failure(tmp_path, capsys):
    path = tmp_path / "fail.bsim"
    path.write_text("create-account a\nfund-algos a 5\nassert algo-balance a == 6\n")
    assert main(["run", str(path)]) == 1
    assert "assert_failed" in capsys.readouterr().out


def test_costs_output(scenario_file, capsys):
    assert main(["costs", scenario_file]) == 0
    out = capsys.readouterr().out
    assert "ISSUANCE COSTS: bond1" in out
    assert "Fund contract accounts" in out
    assert "203000" in out


def test_costs_refuses_failing_scenario(tmp_path, capsys):
    path = tmp_path / "fail.bsim"
    path.write_text("create-account a\nassert algo-balance a == 6\n")
    assert main(["costs", str(path)]) == 1


def test_price_curve_period_sweep(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code = main(
        [
            "price-curve",
            "--face", "100", "--rate", "0.05", "--coupon-rate", "0.05",
            "--sweep", "T", "--values", "5,10,15,20",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "rating,sweep_value,price"
    assert len(lines) == 21
    # deterministic byte-identical output
    out2 = tmp_path / "curve2.csv"
    main(
        [
            "price-curve",
            "--face", "100", "--rate", "0.05", "--coupon-rate", "0.05",
            "--sweep", "T", "--values", "5,10,15,20",
            "--out", str(out2),
        ]
    )
    assert out2.read_bytes() == out_path.read_bytes()


def test_price_curve_zero_coupon_family_constant(capsys):
    assert main(["price-curve", "--face", "100", "--rate", "0.05", "--coupon-rates", "0,0.05", "--periods", "10", "--out", "-"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    zero_prices = {price for rating, value, price in rows if float(value) == 0.0}
    assert len(zero_prices) == 1


def test_price_curve_flag_validation(capsys):
    assert main(["price-curve", "--face", "100", "--rate", "0.05"]) == 2
    assert main(["price-curve", "--face", "100", "--rate", "0.05", "--sweep", "T"]) == 2
    assert main(["price-curve", "--face", "100", "--rate", "0.05", "--sweep", "X", "--values", "1"]) == 2


def test_report_put_get_round_trip(tmp_path, capsys):
    store = str(tmp_path / "store")
    source = tmp_path / "doc.pdf"
    source.write_bytes(b"%PDF fake bytes")
    assert main(["report", "put", str(source), "--store", store]) == 0
    cid = capsys.readouterr().out.strip()
    assert cid == hashlib.sha256(b"%PDF fake bytes").hexdigest()
    # same file twice: same id
    assert main(["report", "put", str(source), "--store", store]) == 0
    assert capsys.readouterr().out.strip() == cid
    out_file = tmp_path / "fetched.bin"
    assert main(["report", "get", cid, "--store", store, "--out", str(out_file)]) == 0
    assert out_file.read_bytes() == b"%PDF fake bytes"


def test_report_get_unknown_cid(tmp_path, capsys):
    assert main(["report", "get", "ff" * 32, "--store", str(tmp_path / "store")]) == 1
    assert "unknown content id" in capsys.readouterr().err


def test_report_list_from_scenario(tmp_path, capsys):
    scenario = tmp_path / "anchored.bsim"
    scenario.write_text(
        LIFECYCLE
        + """
report-put r1 data=first
report-put r2 data=second
report-anchor bond1 issuer r1
report-anchor bond1 issuer r2
"""
    )
    assert main(["report", "list", str(scenario), "issuer", "bond1"]) == 0
    cids = capsys.readouterr().out.split()
    assert cids == [hashlib.sha256(b"first").hexdigest(), hashlib.sha256(b"second").hexdigest()]


@pytest.mark.parametrize(
    "bad_id",
    ["../secret", "../../../etc/hostname", "FF" * 32, "f" * 63, "f" * 65, "g" * 64, ("ff" * 32) + "/"],
)
def test_report_get_refuses_ids_that_are_not_content_hashes(bad_id, tmp_path, capsys):
    (tmp_path / "secret").write_text("host file")
    store = tmp_path / "store"
    store.mkdir()
    assert main(["report", "get", bad_id, "--store", str(store)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_report_get_refuses_tampered_blob(tmp_path, capsys):
    store = str(tmp_path / "store")
    source = tmp_path / "impact.txt"
    source.write_bytes(b"genuine impact data")
    assert main(["report", "put", str(source), "--store", store]) == 0
    cid = capsys.readouterr().out.strip()
    (tmp_path / "store" / cid).write_bytes(b"forged impact data")
    assert main(["report", "get", cid, "--store", store]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not match" in captured.err
