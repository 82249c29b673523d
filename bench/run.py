#!/usr/bin/env python3
"""bondsim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; bondsim is imported from `src/`.  Workloads
(see `workloads.py` and `BENCHMARK.json`): lifecycle-wide, market-narrow,
scenario-replay.  `all` runs each in a fresh process.

One caller runs operations in a closed loop: the next starts when the last
returns.  The timed phase runs passes (a fresh environment plus its
operations) until S seconds of operations have elapsed and, with tracing
off, at least 1,000 operations have been timed.  Every outcome is compared
with the generator's expectation; each pass ends with invariant checks.
The passes of a run are identical, and each timed sample counts as the
fastest time its operation reached over the passes after the first: the
host's speed swings otherwise dominate the spread between runs (README.md).

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the metrics
are the end-to-end ones: ops_per_s, op_p50_us, op_p99_us, setup_s,
peak_rss_mib.  error_rate (failed / attempted) is printed by name on the
lines above it, with an environment record and the sample counts.  With
`--trace 1` the run first measures S/2 seconds untraced, then replays the
same operations with span tracing for at most S/2 seconds, and reports the
per-layer metrics plus the tracing overhead (untraced minus traced ops/s);
spans are written to `.bench_out/trace-<workload>.jsonl`.

setup_s is the median import time of bondsim in a fresh interpreter plus
the median time to build a pass (inputs, accounts, issuance), each taken
over several repetitions.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("lifecycle-wide", "market-narrow", "scenario-replay")
SETUP_REPEATS = 11  # set-ups per run; setup_s takes their medians
KEPT_SAMPLES = 20_000  # samples kept per run; later passes only improve the best times
HARD_LIMIT_S = 120  # stop the timed phase here whatever the op count
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import bondsim, bondsim.cli; print(time.perf_counter() - t)"
)


def load_bondsim() -> None:
    """Put the repository's `src` first on the import path, as the tests do."""
    if not (SRC / "bondsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no bondsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bondsim

    if Path(bondsim.__file__).resolve().parent != SRC / "bondsim":
        raise SystemExit(f"error: imported bondsim from {bondsim.__file__}, not {SRC}")


def import_seconds() -> float:
    """Median import time of bondsim in fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(out.stdout))
    return statistics.median(samples)


class Runner:
    """Builds passes of one workload and times their operations."""

    def __init__(self, workload: str, seed: int, sizes, tracer=None):
        import workloads

        self.workloads = workloads
        self.build = workloads.WORKLOADS[workload]
        self.extra = (ROOT, OUT_DIR) if workload == "scenario-replay" else ()
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.build_s: list = []
        # per position in the pass: the fastest time after the first pass (the
        # warm-up, which counts only where no later pass reached), and the
        # collection pauses inside that fastest time
        self.best_ns = array("q")
        self.best_gc_ns = array("q")
        self._later = 0  # positions reached by a pass after the first
        self.least_gc_ns = 0  # collection pauses of the complete pass that collected least
        self.kept: list = []  # per kept pass, each operation's time
        self._collecting_ns = 0
        self._gc_start = 0
        self.ops = 0
        self.failed = 0
        self.failures: list = []
        self.problems: list = []
        self.timed_ns = 0
        self.passes = 0
        self._next = None  # a pass built ahead of the timed phase

    def new_pass(self):
        t = time.perf_counter()
        p = self.build(self.seed, self.sizes, *self.extra)
        self.build_s.append(time.perf_counter() - t)
        return p

    def set_up(self, repeats: int) -> None:
        """Build a pass `repeats` times, keeping the last for the timed phase."""
        for _ in range(repeats):
            self._next = None
            self._next = self.new_pass()

    def measure(self, seconds: float, min_ops: int, limit_s: float = HARD_LIMIT_S) -> None:
        """Run passes until `seconds` of operations and `min_ops` timed ops,
        or until `limit_s` seconds of operations, whichever comes first."""
        gc.callbacks.append(self._on_gc)
        try:
            self._measure(seconds, min_ops, limit_s)
        finally:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self._collecting_ns += time.perf_counter_ns() - self._gc_start

    def _measure(self, seconds: float, min_ops: int, limit_s: float) -> None:
        outcome = self.workloads.outcome
        perf = time.perf_counter_ns
        budget = int(seconds * 1e9)
        hard = int(limit_s * 1e9)
        tracer = self.tracer
        best, best_gc = self.best_ns, self.best_gc_ns
        kept = 0
        while True:
            gc.collect()  # the previous pass's ledger is garbage now
            p, self._next = self._next or self.new_pass(), None
            lat = array("q")
            if kept < KEPT_SAMPLES:
                self.kept.append(lat)
            pass_gc = 0
            gc.collect()
            start = perf()
            done = False
            for kind, fn, args, expected in p.ops:
                if kind == "clock":
                    fn(*args)
                    continue
                if tracer:
                    tracer.op = self.ops
                g0 = self._collecting_ns
                t0 = perf()
                try:
                    value = fn(*args)
                except Exception as exc:  # a raising operation counts as failed
                    value = exc
                t1 = perf()
                if tracer:
                    tracer.op = -1
                g = self._collecting_ns - g0
                t = t1 - t0
                pass_gc += g
                j = len(lat)
                lat.append(t)
                if not self.passes:
                    best.append(t)
                    best_gc.append(g)
                elif j >= self._later or t < best[j]:
                    best[j], best_gc[j] = t, g
                    self._later = max(self._later, j + 1)
                self.ops += 1
                got = outcome(value)
                if got != expected:
                    self.failed += 1
                    if len(self.failures) < 5:
                        self.failures.append(f"{kind}: expected {str(expected)[:200]!r}, got {str(got)[:200]!r}")
                used = self.timed_ns + t1 - start
                if (used >= budget and self.ops >= min_ops) or used >= hard:
                    done = True
                    break
            else:
                if self.passes == 1 or pass_gc < self.least_gc_ns:
                    self.least_gc_ns = pass_gc
            self.timed_ns += perf() - start
            self.passes += 1
            kept += len(lat)
            self.problems.extend(p.check())
            p = None
            if done:
                return

    def samples_ns(self) -> list:
        """The kept samples, each replaced by the fastest time its operation
        (the same position in the run's identical passes) reached in a pass
        after the first; the first counts only where no later pass reached."""
        best = self.best_ns
        return [best[j] for lat in self.kept for j in range(len(lat))]

    def raw_ns(self) -> list:
        return [t for lat in self.kept for t in lat]

    def gc_kept(self) -> float:
        """Collection pauses inside the best times over those of the complete
        pass after the first that collected least.  Near 1 when collections
        fall on the same operations in every pass after the first, as they do
        when each pass replays the same allocations after a full collection;
        well below 1 would mean the best times drop collection pauses.  None
        when no pass after the first completed."""
        return sum(self.best_gc_ns) / self.least_gc_ns if self.least_gc_ns else None

    def ops_per_s(self) -> float:
        samples = self.samples_ns()
        return len(samples) / (sum(samples) / 1e9)

    def wall_ops_per_s(self) -> float:
        return self.ops / (self.timed_ns / 1e9)


def p99_rank(n: int) -> int:
    """1-based nearest rank of the 99th percentile among n samples."""
    return max(1, math.ceil(n * 99 / 100))


def peak_rss_mib() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, sizes=None) -> dict:
    """Measure one workload in this process; returns the result object plus
    an `info` entry with the environment-independent details."""
    import workloads

    sizes = sizes or workloads.Sizes()
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(workload, seed, sizes)
    runner.set_up(SETUP_REPEATS)
    info: dict = {}
    if not trace:
        setup_s = import_seconds() + statistics.median(runner.build_s)
        runner.measure(seconds, sizes.min_ops)
        best = sorted(runner.samples_ns())
        raw = sorted(runner.raw_ns())
        n = len(best)
        metrics = {
            "ops_per_s": (runner.ops_per_s(), "ops/s"),
            "op_p50_us": (statistics.median(best) / 1e3, "us"),
            "op_p99_us": (best[p99_rank(n) - 1] / 1e3, "us"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }
        info["samples"] = {
            "ops": runner.ops,
            "samples": n,
            "beyond_p99": n - p99_rank(n),
            "passes": runner.passes,
            "ops_per_pass": len(runner.best_ns),
            "setup_builds": len(runner.build_s),
            "setup_imports": SETUP_REPEATS,
            "gc_kept": runner.gc_kept(),
        }
        info["wall_clock"] = {
            "ops_per_s": runner.wall_ops_per_s(),
            "op_p50_us": statistics.median(raw) / 1e3,
            "op_p99_us": raw[p99_rank(n) - 1] / 1e3,
        }
        runners = [runner]
    else:
        from spans import Tracer

        runner.measure(seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Runner(workload, seed, sizes, tracer)
            # the same operations as the untraced phase, so the two rates
            # compare, for at most as long, so a run lasts about S seconds
            traced.measure(0, runner.ops, seconds / 2)
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"trace-{workload}.jsonl")
        metrics = tracer.metrics()
        metrics["trace.ops"] = (traced.ops, "count")
        metrics["trace.ops_per_s"] = (traced.ops_per_s(), "ops/s")
        metrics["trace.overhead_ops_per_s"] = (runner.ops_per_s() - traced.ops_per_s(), "ops/s")
        info["samples"] = {
            "untraced_ops": runner.ops,
            "traced_ops": traced.ops,
            "passes": traced.passes,
            "spans": len(tracer),
        }
        runners = [runner, traced]
    attempted = sum(r.ops for r in runners)
    failed = sum(r.failed for r in runners)
    problems = [p for r in runners for p in r.problems]
    info["error_rate"] = failed / attempted
    info["failures"] = [f for r in runners for f in r.failures]
    info["invariant_violations"] = problems[:10]
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
    }


def run_all(args) -> int:
    """Each workload in its own process; prints their results side by side."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        for line in proc.stdout.splitlines()[:-1]:
            print(f"[{name}] {line}")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bondsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_bondsim()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    info = result.pop("info")
    print(json.dumps({"environment": environment(args), **info}))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {info['error_rate']:.6g} ratio ({result['failed']}/{result['attempted']})")
    for failure in info["failures"] + info["invariant_violations"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
