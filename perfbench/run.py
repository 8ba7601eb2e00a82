"""gammag benchmark: one workload per run, end to end or traced per layer.

Usage, from the root of a checkout (nothing needs installing):

    python3 perfbench/run.py --workload verify-composite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run repeats the workload's fixed op list, single-process, until at least
``--seconds`` have passed. Every pass starts from a fresh set-up (the
package imported again, pools and inputs rebuilt); ``setup_s`` is the median
of all set-ups in the run. Every pass goes through the correctness gate in
``workloads``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with the span wrappers of ``spans`` installed, and
reports the per-layer metrics per pass. Human-readable lines come first; the
last line of stdout is one JSON object. The exit code is 0 only when every
output matched.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

from spans import Tracer, per_layer_metrics, span_stats
from workloads import PLANS, WHY, Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SUBMODULES = ("core", "crisp", "fuzzy", "theorems", "finder", "cli")
SETUPS_PER_PASS = 3


def import_gammag():
    """Import the package from this checkout afresh, dropping any copy
    already loaded, so each set-up pays the import again."""
    for name in [n for n in sys.modules if n == "gammag" or n.startswith("gammag.")]:
        del sys.modules[name]
    pkg = importlib.import_module("gammag")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"gammag was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{n: importlib.import_module("gammag." + n) for n in SUBMODULES})


def run_pass(plan, tracer=None, pass_no=0):
    """Run the op list once; returns (seconds, op latencies, outputs, errors)."""
    latencies, outputs, errors = [], [], []
    base = pass_no * len(plan.ops)
    t0 = time.perf_counter()
    for i, (label, fn) in enumerate(plan.ops):
        if tracer is not None:
            tracer.op_id = base + i
        t = time.perf_counter()
        try:
            outputs.append(fn())
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outputs.append(None)
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t)
    return time.perf_counter() - t0, latencies, outputs, errors


def run_phase(workload: str, seed: int, seconds: float, tracer=None):
    """Set up and run passes until at least ``seconds`` have gone by.

    Every pass runs on a fresh set-up, so passes start from the same cold
    state and set-up times are sampled across the whole phase. Untraced, each
    pass is preceded by SETUPS_PER_PASS timed set-ups; traced, by one, with
    the wrappers installed so set-up work (model pools) is traced too.
    Returns (set-up times, pass durations, op latencies, tallies, last plan).
    """
    setups, durations, latencies, tallies = [], [], [], []
    t_begin = time.perf_counter()
    while True:
        plan = None  # the previous pass's set-up is released before the next one
        try:
            for _ in range(1 if tracer else SETUPS_PER_PASS):
                t0 = time.perf_counter()
                g = import_gammag()
                if tracer is not None:
                    tracer.op_id = -1
                    tracer.install(g)
                plan = PLANS[workload](g, seed)
                setups.append(time.perf_counter() - t0)
            dt, op_times, outputs, errors = run_pass(plan, tracer, len(durations))
        finally:
            if tracer is not None:
                tracer.restore()
        durations.append(dt)
        latencies += op_times
        if errors:
            tallies.append(Tally(attempted=len(plan.ops), mismatches=errors + plan.setup_mismatches))
        else:
            tally = plan.check(outputs)
            tally.mismatches += plan.setup_mismatches
            tallies.append(tally)
        del outputs  # so one pass's outputs never coexist with the next pass's
        if time.perf_counter() - t_begin >= seconds:
            return setups, durations, latencies, tallies, plan


def tail_percentile(values):
    """Highest percentile with at least ten values beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    j = n - 11
    return 100.0 * (j + 1) / n, sorted(values)[j]


def describe(values, what: str, scale: float = 1.0, unit: str = "s") -> str:
    """Median and the highest percentile with at least ten values beyond it."""
    text = f"median {statistics.median(values) * scale:.4f} {unit} of {len(values)} {what}"
    tail = tail_percentile(values)
    if tail is None:
        return text + "; no percentile has 10 beyond it"
    return text + f"; p{tail[0]:.1f} {tail[1] * scale:.4f} {unit}"


def run_workload(args) -> int:
    os.environ.pop("AGG_BUDGET", None)  # the CLI's node budget must be its default
    sys.path.insert(0, str(SRC))
    phase_s = args.seconds / (2 if args.trace else 1)
    setups, durations, latencies, tallies, plan = run_phase(args.workload, args.seed, phase_s)
    wall_s = statistics.median(durations)
    setup_s = statistics.median(setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meta = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "ops_per_pass": len(plan.ops),
    }

    traced = []
    if args.trace:
        # the untraced phase above ran in a process that had never installed
        # the wrappers; from here on they are installed around each pass
        tracer = Tracer()
        _, traced, _, traced_tallies, _ = run_phase(args.workload, args.seed, phase_s, tracer)
        tallies += traced_tallies
        overhead = (statistics.median(traced) - wall_s) / wall_s
        stats = span_stats(tracer.names, tracer.name, tracer.start, tracer.end, tracer.parent)
        layer = per_layer_metrics(stats, tracer.counts, len(traced), overhead)
        tracer.write(HERE / "out" / f"spans-{args.workload}.json.gz",
                     [label for label, _ in plan.ops], meta)

    attempted = sum(t.attempted for t in tallies)
    undecided = sum(t.undecided for t in tallies)
    mismatches = [m for t in tallies for m in t.mismatches]
    failed = len(mismatches)
    decided_frac = (attempted - undecided - failed) / attempted if attempted else 0.0
    failed_frac = 1.0 - decided_frac

    print(f"workload {args.workload}: {meta['why']}")
    print(f"seed {args.seed}  python {meta['python']}  nproc {meta['nproc']}  platform {meta['platform']}")
    print(f"ops per pass {len(plan.ops)}  decisions per pass {tallies[0].attempted}")
    print(f"wall_s       {wall_s:.4f} s   ({describe(durations, 'passes')}, untraced)")
    print(f"op latency   ({describe(latencies, 'ops', 1e3, 'ms')})")
    print(f"setup_s      {setup_s:.4f} s   (median of {len(setups)} set-ups)")
    print(f"failed_frac  {failed_frac:.4f} ratio ({undecided} capacity stops, {failed} mismatches, "
          f"{attempted} decisions)")
    print(f"decided_frac {decided_frac:.4f} ratio")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    if traced:
        print(f"traced wall_s {statistics.median(traced):.4f} s ({describe(traced, 'passes')}); "
              f"spans written to {HERE.name}/out/spans-{args.workload}.json.gz")
        for name, (value, unit) in layer.items():
            if value:
                print(f"  {name} {value:.6g} {unit}")
    for m in mismatches[:20]:
        print(f"MISMATCH {m}")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "decided_frac": {"value": decided_frac, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not mismatches, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not mismatches else 1


def run_all(args) -> int:
    """Run each workload in its own process and print the end-to-end table."""
    worst = 0
    rows = []
    for name in PLANS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        rows.append((name, proc.returncode, result))
    print()
    for name, code, result in rows:
        if result is None:
            print(f"{name:18s} exit {code}, no result")
            continue
        cells = "  ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:18s} exit {code}  correct {result['correct']}  {cells}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*PLANS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "gammag" / "__init__.py").is_file():
        print(f"error: no gammag package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
