"""Command-line front door.

Subcommands:
    run <scenario> [--transcript OUT]   replay a scenario, print the transcript
    costs <scenario>                    replay, then print cost tables
    price-curve ...                     emit a rating/price CSV
    report put|get|list ...             content-addressed report store
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import pricing
from .reports import CorruptContent, ReportStore, UnknownContent, is_content_id, list_reports
from .scenario import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    ScenarioError,
    format_costs,
    parse_scenario,
    ScenarioRunner,
)

DEFAULT_STORE = "report-store"


def _replay(path: str):
    """(runner, outcome) of a replay of the scenario at `path`, or None
    after reporting why it cannot be read."""
    try:
        steps = parse_scenario(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return None
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    runner = ScenarioRunner(Path(path).parent)
    return runner, runner.run(steps)


def _cmd_run(args) -> int:
    replay = _replay(args.scenario)
    if replay is None:
        return EXIT_USAGE
    outcome = replay[1]
    text = outcome.transcript_text()
    sys.stdout.write(text)
    if args.transcript:
        Path(args.transcript).write_text(text)
    return outcome.exit_code


def _cmd_costs(args) -> int:
    replay = _replay(args.scenario)
    if replay is None:
        return EXIT_USAGE
    runner, outcome = replay
    if outcome.exit_code != EXIT_OK:
        sys.stdout.write(outcome.transcript_text())
        print("error: scenario did not run cleanly", file=sys.stderr)
        return outcome.exit_code
    sys.stdout.write(format_costs(runner))
    return EXIT_OK


def _cmd_price_curve(args) -> int:
    if args.sweep and args.coupon_rates:
        print("error: choose either --sweep T --values ... or --coupon-rates ...", file=sys.stderr)
        return EXIT_USAGE
    if args.sweep and args.sweep != "T":
        print(f"error: unknown sweep variable: {args.sweep}", file=sys.stderr)
        return EXIT_USAGE
    if args.sweep and not args.values:
        print("error: --sweep requires --values", file=sys.stderr)
        return EXIT_USAGE
    if not args.sweep and not args.coupon_rates:
        print("error: nothing to sweep", file=sys.stderr)
        return EXIT_USAGE
    raw = args.values if args.sweep else args.coupon_rates
    try:
        values = [float(v) for v in raw.split(",") if v != ""]
    except ValueError:
        print(f"error: bad {'values' if args.sweep else 'coupon rates'} list: {raw}", file=sys.stderr)
        return EXIT_USAGE
    if args.sweep:
        sweep, fixed = pricing.SWEEP_PERIODS, {"coupon_rate": args.coupon_rate}
    else:
        sweep, fixed = pricing.SWEEP_COUPON_RATE, {"periods": args.periods}
    try:  # a negative period count, a rate of -1 or less, a non-finite number or price
        values = [int(v) for v in values] if args.sweep else values
        rows = pricing.curve(sweep, values, face=args.face, rate=args.rate, **fixed)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    lines = ["rating,sweep_value,price"]
    for row in rows:
        lines.append(f"{row.rating},{row.sweep_value!r},{row.price!r}")
    text = "".join(line + "\n" for line in lines)
    if args.out and args.out != "-":
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_report(args) -> int:
    if args.action in ("put", "get") and not args.target:
        print(f"error: report {args.action} requires a target", file=sys.stderr)
        return EXIT_USAGE

    if args.action == "put":
        try:
            data = Path(args.target).read_bytes()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(ReportStore(args.store).store(data))
        return EXIT_OK

    if args.action == "get":
        if not is_content_id(args.target):
            print(f"error: bad content id (want 64 lowercase hex digits): {args.target!r}", file=sys.stderr)
            return EXIT_USAGE
        try:
            data = ReportStore(args.store).fetch(args.target)
        except UnknownContent:
            print(f"error: unknown content id: {args.target}", file=sys.stderr)
            return EXIT_FAILURE
        except CorruptContent:
            print(f"error: stored blob does not match its content id: {args.target}", file=sys.stderr)
            return EXIT_FAILURE
        if args.out:
            Path(args.out).write_bytes(data)
        else:
            sys.stdout.buffer.write(data)
        return EXIT_OK

    # list: replay a scenario, then read the issuer's anchored notes
    if not args.scenario or not args.issuer or not args.bond:
        print("error: report list requires SCENARIO ISSUER BOND", file=sys.stderr)
        return EXIT_USAGE
    replay = _replay(args.scenario)
    if replay is None:
        return EXIT_USAGE
    runner, outcome = replay
    if outcome.exit_code != EXIT_OK:
        print("error: scenario did not run cleanly", file=sys.stderr)
        return outcome.exit_code
    if args.issuer not in runner.accounts:
        print(f"error: undefined account: {args.issuer}", file=sys.stderr)
        return EXIT_USAGE
    if args.bond not in runner.bonds:
        print(f"error: undefined bond: {args.bond}", file=sys.stderr)
        return EXIT_USAGE
    dep = runner.bonds[args.bond]
    for cid in list_reports(runner.ledger, runner.accounts[args.issuer], dep.manage_app_id):
        print(cid)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bondsim", description="Green-bond ledger simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a scenario script")
    p_run.add_argument("scenario")
    p_run.add_argument("--transcript", help="also write the transcript to this file")
    p_run.set_defaults(func=_cmd_run)

    p_costs = sub.add_parser("costs", help="replay a scenario and print cost tables")
    p_costs.add_argument("scenario")
    p_costs.set_defaults(func=_cmd_costs)

    p_curve = sub.add_parser("price-curve", help="emit a rating/price CSV")
    p_curve.add_argument("--face", type=float, required=True)
    p_curve.add_argument("--rate", type=float, required=True)
    p_curve.add_argument("--sweep", help="sweep variable (T)")
    p_curve.add_argument("--values", help="comma-separated sweep values")
    p_curve.add_argument("--coupon-rate", type=float, default=0.05, help="fixed coupon rate for a T sweep")
    p_curve.add_argument("--coupon-rates", help="comma-separated coupon rates to sweep")
    p_curve.add_argument("--periods", type=int, default=10, help="fixed periods for a coupon-rate sweep")
    p_curve.add_argument("--out", help="output CSV path ('-' for stdout)")
    p_curve.set_defaults(func=_cmd_price_curve)

    p_report = sub.add_parser("report", help="content-addressed report store")
    p_report.add_argument("action", choices=["put", "get", "list"])
    p_report.add_argument("target", nargs="?", help="file (put), content id (get), or scenario (list)")
    p_report.add_argument("issuer", nargs="?", help="issuer account name (list)")
    p_report.add_argument("bond", nargs="?", help="bond name (list)")
    p_report.add_argument("--store", default=DEFAULT_STORE, help="store directory for put/get")
    p_report.add_argument("--out", help="write fetched bytes to this file (get)")
    p_report.set_defaults(func=_cmd_report)
    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built on the first `main` call


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "report":
        args.scenario = args.target
    try:
        return args.func(args)
    except OSError as exc:  # an output file or store directory the arguments name
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
