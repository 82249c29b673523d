import pytest

from bondsim.scenario import (
    EXIT_FAILURE,
    EXIT_OK,
    ScenarioError,
    format_costs,
    parse_money,
    parse_bonds,
    parse_scenario,
    run_scenario_text,
)

BASIC_SETUP = """
# accounts and funding
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
issue bond1 operator=operator issuer=issuer verifier=verifier regulator=regulator bonds=100 rounds=2 start-buy=100 end-buy=200 maturity=400 cost=$100 coupon=$10 principal=$100
"""


def test_money_parsing():
    assert parse_money("$12.34") == 12_340_000
    assert parse_money("$0.000001") == 1
    assert parse_money("1500000") == 1_500_000
    assert parse_bonds("0.5") == 500_000
    assert parse_bonds("5") == 5_000_000
    with pytest.raises(ScenarioError):
        parse_money("$0.0000001")
    with pytest.raises(ScenarioError):
        parse_bonds("half")


def test_empty_scenario():
    outcome, _ = run_scenario_text("")
    assert outcome.exit_code == EXIT_OK
    assert outcome.transcript == []


def test_comments_and_blank_lines():
    outcome, _ = run_scenario_text("# nothing\n\n   # still nothing\ncreate-account a  # inline\n")
    assert outcome.exit_code == EXIT_OK
    assert outcome.transcript == ["STEP 1 create-account -> APPROVED"]


def test_undefined_name_is_parse_error():
    with pytest.raises(ScenarioError):
        parse_scenario("fund-algos ghost 100\n")
    with pytest.raises(ScenarioError):
        parse_scenario("create-account a\nbuy nope a 1\n")


def test_duplicate_name_is_parse_error():
    with pytest.raises(ScenarioError):
        parse_scenario("create-account a\ncreate-account a\n")


def test_unknown_verb_is_parse_error():
    with pytest.raises(ScenarioError):
        parse_scenario("explode everything\n")


def test_time_must_not_decrease():
    with pytest.raises(ScenarioError):
        parse_scenario("advance-time 100\nadvance-time 50\n")


def test_issue_requires_all_keys():
    with pytest.raises(ScenarioError):
        parse_scenario("create-account op\nissue b operator=op\n")


def test_full_lifecycle_scenario():
    text = BASIC_SETUP + """
approve-bond bond1
approve-account bond1 inv1
advance-time 100
buy bond1 inv1 5
assert bond-balance bond1 inv1 == 5
assert stablecoin-balance inv1 == $99500
fund-escrow bond1 issuer $1000
advance-time 300
claim-coupon bond1 inv1
assert rejected false
assert global-state bond1 coupons-paid == 1
assert global-state bond1 reserve == $0
assert local-state bond1 inv1 coupons-paid == 1
advance-time 400
claim-coupon bond1 inv1
claim-principal bond1 inv1
assert rejected false
assert bond-balance bond1 inv1 == 0
"""
    outcome, runner = run_scenario_text(text)
    assert outcome.exit_code == EXIT_OK, outcome.transcript
    assert all("REJECTED" not in line for line in outcome.transcript)


def test_rejected_assertions():
    text = BASIC_SETUP + """
advance-time 100
buy bond1 inv1 5
assert rejected
assert rejected true
approve-bond bond1
approve-account bond1 inv1
buy bond1 inv1 5
assert rejected false
"""
    outcome, _ = run_scenario_text(text)
    assert outcome.exit_code == EXIT_OK, outcome.transcript
    assert "STEP 15 buy -> REJECTED(app_rejected:bond_frozen)" in outcome.transcript


def test_failed_assert_stops_run():
    text = BASIC_SETUP + """
assert algo-balance inv1 == 1
advance-time 100
"""
    outcome, _ = run_scenario_text(text)
    assert outcome.exit_code == EXIT_FAILURE
    assert outcome.transcript[-1].startswith("STEP 14 assert -> REJECTED(assert_failed")
    # nothing after the failing assert ran
    assert len(outcome.transcript) == 14


def test_transcript_format_and_determinism():
    text = BASIC_SETUP + """
approve-bond bond1
approve-account bond1 inv1
advance-time 100
buy bond1 inv1 2.5
"""
    first, runner1 = run_scenario_text(text)
    second, runner2 = run_scenario_text(text)
    assert first.transcript == second.transcript
    assert first.transcript_text() == second.transcript_text()
    # identical final ledger states and identical cost ledgers
    assert runner1.ledger.observable_state() == runner2.ledger.observable_state()
    assert runner1.ledger.cost.rows == runner2.ledger.cost.rows
    for i, line in enumerate(first.transcript, start=1):
        assert line.startswith(f"STEP {i} ")
        assert "-> APPROVED" in line or "-> REJECTED(" in line


def test_trade_and_offer_steps():
    text = BASIC_SETUP + """
create-account inv2
fund-algos inv2 2000000
fund-stablecoin inv2 $100000
approve-bond bond1
approve-account bond1 inv1
approve-account bond1 inv2
advance-time 100
buy bond1 inv1 5
set-trade bond1 inv1 2
offer bond1 deal seller=inv1 price=$1000 expiry=10000
trade bond1 deal inv2 0.5
assert rejected false
assert bond-balance bond1 inv2 == 0.5
assert local-state bond1 inv1 trade == 1.5
trade bond1 deal inv2 1.5
assert local-state bond1 inv1 trade == 0
trade bond1 deal inv2 0.5
assert rejected true
"""
    outcome, _ = run_scenario_text(text)
    assert outcome.exit_code == EXIT_OK, outcome.transcript


def test_rating_and_report_steps(tmp_path):
    (tmp_path / "impact.bin").write_bytes(b"\x00impact bytes\xff")
    script = tmp_path / "s.bsim"
    script.write_text(BASIC_SETUP + """
rate bond1 verifier 4
assert rating bond1 0 == 4
report-put uop data=use of proceeds summary
report-put impact file=impact.bin
report-anchor bond1 issuer uop
report-anchor bond1 issuer impact
assert cost-total verifier == 1000
""")
    outcome, runner = run_scenario_text(script.read_text(), script.parent)
    assert outcome.exit_code == EXIT_OK, outcome.transcript
    from bondsim.reports import list_reports

    dep = runner.bonds["bond1"]
    cids = list_reports(runner.ledger, runner.accounts["issuer"], dep.manage_app_id)
    assert cids == [runner.reports["uop"], runner.reports["impact"]]
    assert runner.store.fetch(runner.reports["impact"]) == b"\x00impact bytes\xff"


def test_freeze_step():
    text = BASIC_SETUP + """
approve-bond bond1
approve-account bond1 inv1
freeze bond1 inv1 0
advance-time 100
buy bond1 inv1 1
assert rejected true
freeze bond1 all 0
freeze bond1 inv1 1
buy bond1 inv1 1
assert rejected true
"""
    outcome, _ = run_scenario_text(text)
    assert outcome.exit_code == EXIT_OK, outcome.transcript


def test_cost_report_contains_tables():
    text = BASIC_SETUP + """
approve-bond bond1
approve-account bond1 inv1
advance-time 100
buy bond1 inv1 1
"""
    outcome, runner = run_scenario_text(text)
    assert outcome.exit_code == EXIT_OK
    report = format_costs(runner)
    assert "ISSUANCE COSTS: bond1" in report
    assert "Fund contract accounts" in report
    assert "Deploy Main App" in report
    assert "Opt into ASA" in report
    assert "Buy" in report
    # deterministic output
    outcome2, runner2 = run_scenario_text(text)
    assert format_costs(runner2) == report


def test_a_refused_registration_can_be_retried():
    """Funded for the asset opt-in but not the app's, the investor is refused
    at the app opt-in; funded, the same step registers it, and each opt-in
    is charged once."""
    text = BASIC_SETUP + """
create-account inv
fund-algos inv 300000
approve-account bond1 inv
fund-algos inv 1000000
approve-account bond1 inv
"""
    outcome, runner = run_scenario_text(text)
    assert outcome.exit_code == EXIT_OK, outcome.transcript
    assert outcome.transcript[-3].startswith("STEP 16 approve-account -> REJECTED(min_balance_violation")
    assert outcome.transcript[-2:] == ["STEP 17 fund-algos -> APPROVED", "STEP 18 approve-account -> APPROVED"]
    dep, inv = runner.bonds["bond1"], runner.accounts["inv"]
    assert runner.ledger.is_opted_in(inv, dep.main_app_id)
    assert [r.label for r in runner.ledger.cost.rows_for(inv)] == ["Opt into ASA", "Opt into App"]


NAME_DEFINERS = {
    "account": "create-account {}",
    "bond": "issue {} operator=operator issuer=issuer verifier=verifier regulator=regulator bonds=10 rounds=1 start-buy=100 end-buy=200 maturity=400 cost=$100 coupon=$10 principal=$100",
    "offer": "offer bond1 {} seller=issuer price=$100 expiry=300",
    "report": "report-put {} data=hello",
}


@pytest.mark.parametrize("first", sorted(NAME_DEFINERS))
@pytest.mark.parametrize("second", sorted(NAME_DEFINERS))
def test_name_reuse_across_kinds_is_rejected(first, second, tmp_path, capsys):
    from bondsim.cli import main

    lines = BASIC_SETUP.strip().splitlines()
    lines += [NAME_DEFINERS[first].format("dup"), "create-account spacer", NAME_DEFINERS[second].format("dup")]
    path = tmp_path / "dup.bsim"
    path.write_text("\n".join(lines) + "\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line {len(lines)}: name already defined: dup" in captured.err
