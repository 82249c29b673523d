"""Span tracing of bondsim's layers, from outside the program.

`Tracer.install()` replaces public functions of bondsim's modules with
wrappers that record one span per call: (name, start, end, parent, op id).
Spans stay in memory; `write()` saves them when the run ends and
`metrics()` turns them into the per-layer figures.

A layer's self time is its span's duration minus its child spans.  Counting
done by a wrapper (accounts at submit, lines parsed, ...) runs outside any
span, and its cost is taken out of the enclosing span's times so that it
does not show up as work of the caller.  Garbage-collector pauses are taken
from `gc.callbacks` while an operation runs.
"""
from __future__ import annotations

import dataclasses
import gc
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

from bondsim import cli, ledger, programs, reports, scenario
from bondsim import greenbond as gb


class Tracer:
    """Spans live in flat integer arrays, one entry per span, so that
    recording hundreds of thousands of them adds nothing for the garbage
    collector to scan."""

    def __init__(self):
        self.names: list = []  # span name by name id
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")  # index of the enclosing span, -1 for none
        self.op_id = array("q")
        self.excluded = array("q")  # bookkeeping ns inside the span, not its work
        self.stack: list = []
        self.op = -1  # id of the operation being timed; -1 during set-up
        self.counts: Counter = Counter()
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._gc_start = 0
        self._patches: list = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, start, end = self.stack, self.start, self.end
        add_name, add_parent = self.name_id.append, self.parent.append
        add_op, add_excluded, add_end = self.op_id.append, self.excluded.append, end.append

        def traced(*args, **kwargs):
            idx = len(start)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_op(self.op)
            add_excluded(0)
            add_end(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def count(self, started_ns: int, **amounts) -> None:
        """Add to counters, charging the bookkeeping since `started_ns` to
        no layer."""
        counts = self.counts
        for key, amount in amounts.items():
            counts[key] += amount
        if self.stack:
            self.excluded[self.stack[-1]] += perf_counter_ns() - started_ns

    def _on_gc(self, phase: str, info: dict) -> None:
        if self.op < 0:
            return
        if phase == "start":
            self._gc_start = perf_counter_ns()
        elif self._gc_start:
            self.gc_pause_ns += perf_counter_ns() - self._gc_start
            self.gc_collections += 1
            self._gc_start = 0

    # -- instrumentation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public entry points of every measured layer."""
        wrap, count = self.wrap, self.count

        span = wrap("cli.main", cli.main)
        self._patch(cli, "main", span)

        parse = wrap("scenario.parse", scenario.parse_scenario)

        def parse_scenario(text):
            t = perf_counter_ns()
            count(t, parse_lines=text.count("\n") + (not text.endswith("\n")))
            return parse(text)

        self._patch(scenario, "parse_scenario", parse_scenario)
        self._patch(cli, "parse_scenario", parse_scenario)

        run = wrap("scenario.run", scenario.ScenarioRunner.run)

        def run_steps(runner, steps):
            count(perf_counter_ns(), steps=len(steps))
            return run(runner, steps)

        self._patch(scenario.ScenarioRunner, "run", run_steps)
        span = wrap("scenario.format_costs", scenario.format_costs)
        self._patch(scenario, "format_costs", span)
        self._patch(cli, "format_costs", span)

        self._patch(gb, "issue", wrap("greenbond.issue", gb.issue))
        for name in dir(gb):
            if name.startswith("build_") and name.endswith("_group"):
                self._patch(gb, name, wrap("greenbond.build", getattr(gb, name)))
            elif name.startswith("submit_") or name == "register_investor":
                self._patch(gb, name, wrap("greenbond.submit", getattr(gb, name)))
        for name in ("build_main_program", "build_manage_program"):
            self._patch(gb, name, self._traced_program(getattr(gb, name)))

        submit = wrap("ledger.submit_group", ledger.Ledger.submit_group)

        def submit_group(led, txns):
            t = perf_counter_ns()
            size = len(ledger.as_group(txns).txns)
            count(t, groups=1, txns=size, accounts=len(led.accounts()))
            result = submit(led, txns)
            if result.rejected:
                count(perf_counter_ns(), rejected=1)
            return result

        self._patch(ledger.Ledger, "submit_group", submit_group)

        evaluate = wrap("programs.lsig_eval", programs.eval_logic_signature)
        self._patch(programs, "eval_logic_signature", evaluate)
        self._patch(ledger, "eval_logic_signature", evaluate)

        listing = wrap("reports.list", reports.list_reports)

        def list_reports(led, issuer, manage_app_id):
            count(perf_counter_ns(), log_entries_scanned=len(led.applied_log))
            return listing(led, issuer, manage_app_id)

        self._patch(reports, "list_reports", list_reports)
        self._patch(cli, "list_reports", list_reports)
        self._patch(reports, "anchor_report", wrap("reports.anchor", reports.anchor_report))
        gc.callbacks.append(self._on_gc)

    def _traced_program(self, build):
        wrap = self.wrap

        def traced_build(params):
            program = build(params)
            return dataclasses.replace(program, approval=wrap("greenbond.handler", program.approval))

        return traced_build

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start ns, end ns, parent index, op id."""
        names = self.names
        with open(path, "w") as fh:
            for row in zip(self.name_id, self.start, self.end, self.parent, self.op_id):
                fh.write(json.dumps([names[row[0]], *row[1:]]) + "\n")

    def layer_times(self) -> dict:
        """name -> [calls, inclusive ns, self ns], bookkeeping excluded."""
        n = len(self)
        duration = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        excluded = list(self.excluded)  # own and descendants'
        parent = self.parent
        for i in range(n - 1, -1, -1):  # children come after parents
            p = parent[i]
            if p >= 0:
                child[p] += duration[i]
                excluded[p] += excluded[i]
        out: dict = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name_id[i]], [0, 0, 0])
            row[0] += 1
            row[1] += duration[i] - excluded[i]
            row[2] += duration[i] - child[i] - self.excluded[i]
        return out

    def metrics(self) -> dict:
        """Per-layer figures; a layer the workload never calls reads 0."""
        layers = self.layer_times()
        c = self.counts

        def mean_us(name: str, own: bool = False) -> float:
            calls, inclusive, self_ns = layers.get(name, (0, 0, 0))
            return (self_ns if own else inclusive) / calls / 1e3 if calls else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        run_self = layers.get("scenario.run", (0, 0, 0))[2]
        return {
            "ledger.submit_self_us": (mean_us("ledger.submit_group", own=True), "us/group"),
            "ledger.accounts": (ratio(c["accounts"], c["groups"]), "count"),
            "ledger.groups": (c["groups"], "count"),
            "ledger.rejected_ratio": (ratio(c["rejected"], c["groups"]), "ratio"),
            "ledger.txns_per_group": (ratio(c["txns"], c["groups"]), "txns/group"),
            "gc.pause_us": (ratio(self.gc_pause_ns / 1e3, self.gc_collections), "us/collection"),
            "gc.collections": (self.gc_collections, "count"),
            "greenbond.handler_us": (mean_us("greenbond.handler", own=True), "us/call"),
            "programs.lsig_eval_us": (mean_us("programs.lsig_eval"), "us/call"),
            "programs.lsig_evals": (layers.get("programs.lsig_eval", (0,))[0], "count"),
            "greenbond.build_us": (mean_us("greenbond.build"), "us/call"),
            "greenbond.submit_self_us": (mean_us("greenbond.submit", own=True), "us/call"),
            "greenbond.issue_us": (mean_us("greenbond.issue"), "us/call"),
            "reports.list_us": (mean_us("reports.list"), "us/call"),
            "reports.log_entries_scanned": (c["log_entries_scanned"], "count"),
            "reports.anchor_us": (mean_us("reports.anchor"), "us/call"),
            "scenario.parse_us": (mean_us("scenario.parse"), "us/call"),
            "scenario.parse_lines": (c["parse_lines"], "count"),
            "scenario.run_self_us": (ratio(run_self / 1e3, c["steps"]), "us/step"),
            "scenario.steps": (c["steps"], "count"),
            "scenario.format_costs_us": (mean_us("scenario.format_costs"), "us/call"),
            "cli.main_self_us": (mean_us("cli.main", own=True), "us/call"),
        }
