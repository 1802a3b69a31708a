#!/usr/bin/env python3
"""Layered benchmark of the ccpt package.

Run from the repository root:

    python3 perfbench/run.py --workload paper-trials --seed 1 --seconds 20 --trace 0

Workloads: paper-trials, long-records, dictionary-large, cli-fixtures (see
`workloads.py`). The package is imported from `src/` next to this directory.

A run generates its inputs from the seed, then measures set-up time in fresh
processes (each one imports the package and runs the workload's cold pass
once), runs the cold pass itself, checks the harness against perturbed
outputs, and runs warm cycles for `--seconds`. Every operation's output is
checked against an independent reference; a wrong output or a raised error
counts as a failed operation. After the timed phase an exact operation-count
section compares the fast transform's counters with their closed forms.
Times are reported at reference machine speed (see `clock.py`); the raw
wall-clock figures are printed beside them.

With `--trace 0` the last line of standard output is the result with the
end-to-end metrics. With `--trace 1` the warm phase is split: the first half
runs untraced, the second half with spans around every call into the
package, and the result holds the per-layer metrics plus the tracing
overhead (traced minus untraced, signed so that positive means worse). A
full report with provenance goes to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_CHILDREN = 3
BLAS_THREADS = 1

# Spans whose self time is reported per call for the warm phase.
SPANS = (
    "transform.occpt_analysis", "transform.occpt_synthesis",
    "transform.analyze.rpt", "transform.analyze.ccpt1", "transform.analyze.ccpt2",
    "transform.analyze.dft-npm", "transform.synthesize", "transform.items",
    "transform.coefficients_to_dict", "transform.dft_from_occpt",
    "transform.shift_coefficients", "transform.parseval_energy",
    "matrices.cached_matrix",
    "period.period_strengths", "period.frequency_components", "period.build_dictionary",
    "period.gram", "period.dictionary_solve", "period.candidate_matrix_solve",
    "foccpt.foccpt",
    "cli.main.transform", "cli.main.periods", "cli.main.filter-band",
    "cli.read_signal_csv", "cli.band_filter",
)
# Spans whose cost lands in set-up; their set-up total is reported too.
SETUP_SPANS = ("matrices.cached_matrix", "period.build_dictionary", "period.gram")
# End-to-end metrics: unit and whether lower is better.
END_TO_END = {
    "setup_s": ("s", True), "ops_per_s": ("ops/s", False), "latency_p50_ms": ("ms", True),
    "latency_tail_ms": ("ms", True), "failed_share": ("ratio", True),
    "period_hit_rate": ("ratio", False), "peak_rss_mb": ("MB", True),
}

# End-to-end metrics carried in the result line. failed_share is zero on
# every workload and period_hit_rate is zero on dictionary-large, so neither
# can be bounded as a share of its median: the result line carries failures
# as attempted/failed, and the traced run reports period.hit_rate.
RESULT_KEYS = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for s in SPANS:
        units[f"{s}.ms"] = "ms"
        units[f"{s}.calls"] = "calls/op"
    for s in SETUP_SPANS:
        units[f"{s}.setup_ms"] = "ms"
    units.update({
        "matrices.cached_matrix.misses": "count", "matrices.dense_bytes": "bytes",
        "period.fallback_share": "ratio", "period.gram_condition": "1",
        "period.hit_rate": "ratio",
        "foccpt.real_mults": "count", "foccpt.real_adds": "count",
        "foccpt.count_mismatches": "count", "cap_probe.failed_calls": "count",
    })
    for name, (unit, _) in END_TO_END.items():
        units[f"tracing.{name}.overhead"] = unit
    return units


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one cold pass in this process and print it (used for set-up samples)")
    return ap.parse_args(argv)


@dataclass
class Record:
    """One executed operation. `seconds` is its reference-speed time (see
    `clock.py`), filled in once the phase's probes are all taken."""

    kind: str
    op_id: int
    start: float
    wall: float
    ok: bool
    hit: bool | None
    problems: list
    seconds: float = 0.0


class Runner:
    """Runs operations, times them, checks their outputs and keeps records."""

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.next_op = 0

    def execute(self, op):
        """Run one operation; return its record and its collected output."""
        self.clock.tick()
        op_id, self.next_op = self.next_op, self.next_op + 1
        if self.tracer is not None:
            self.tracer.op = op_id
        t0 = perf_counter()
        try:
            out = self.tracer.call(f"op.{op.kind}", op.run) if self.tracer else op.run()
        except Exception as exc:  # a raising call is a measured failure
            wall = perf_counter() - t0
            return Record(op.kind, op_id, t0, wall, False, None, [f"{type(exc).__name__}: {exc}"]), None
        wall = perf_counter() - t0
        try:
            out = op.collect(out) if op.collect else out
            problems, hit = op.check(out)
        except Exception as exc:  # an unreadable output is a failure
            problems, hit = [f"check raised {type(exc).__name__}: {exc}"], None
        return Record(op.kind, op_id, t0, wall, not problems, hit, problems[:3]), out

    def rescale(self, records) -> None:
        self.clock.tick(force=True)
        for r in records:
            r.seconds = r.wall * self.clock.factor(r.start, r.start + r.wall)

    def setup(self, wl):
        """Cold pass; returns (records, [(op, output)])."""
        records, done = [], []
        for op in wl.setup():
            rec, out = self.execute(op)
            records.append(rec)
            done.append((op, out))
        self.rescale(records)
        return records, done

    def warm(self, wl, seconds, first_cycle):
        """Whole cycles until `seconds` have passed; returns (records, next cycle)."""
        records, i = [], first_cycle
        end = perf_counter() + seconds
        while perf_counter() < end:
            records += [self.execute(op)[0] for op in wl.cycle(i)]
            i += 1
        self.rescale(records)
        return records, i


def perturbed(value):
    """Copy of an output with its largest entry moved by one part in 1e3."""
    T = importlib.import_module("ccpt.transform")
    import numpy as np
    flat = value.flat if isinstance(value, T.CoefficientSet) else value
    a = np.array(flat, copy=True)
    i = int(np.argmax(np.abs(a)))
    a[i] += 1e-3 * (abs(a[i]) or 1.0)
    if isinstance(value, T.CoefficientSet):
        return T.CoefficientSet(N=value.N, family=value.family, flat=a)
    return a


def self_check(records, done) -> tuple[int, list[str]]:
    """Feed perturbed coefficients and wrong periods from the cold pass
    through the same checks; each must register as a failure or a miss."""
    tested, failures = 0, []
    for rec, (op, out) in zip(records, done):
        if out is None or not rec.ok:
            continue
        for key in ("coeffs", "signal"):
            if key in out:
                tested += 1
                bad_problems, _ = op.check({**out, key: perturbed(out[key])})
                if not bad_problems:
                    failures.append(f"{op.kind}: perturbed {key} passed its check")
                break
        if rec.hit is not None and "period" in out:
            tested += 1
            _, bad_hit = op.check({**out, "period": out["period"] + 1})
            if bad_hit:
                failures.append(f"{op.kind}: a wrong period counted as a hit")
    if tested == 0:
        failures.append("no output of the cold pass could be perturbed")
    return tested, failures


def summarize(records, setup_samples, rss_samples, tail_pct, wall=False) -> tuple[dict, dict]:
    """End-to-end metrics of one warm phase, plus the details behind them.
    Times are reference-speed seconds, or raw wall seconds with `wall`.
    Peak RSS is the median over the set-up processes and this one: the
    allocator makes the same cold pass peak 15% apart from one process to
    the next."""
    def t(r):
        return r.wall if wall else r.seconds
    attempted = len(records)
    ok = sorted(t(r) for r in records if r.ok)
    lat = ok or sorted(t(r) for r in records)
    n = len(lat)
    idx = min(n - 1, math.ceil(tail_pct / 100 * (n - 1)))
    hits = [r.hit for r in records if r.hit is not None]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(ok) / sum(t(r) for r in records),
        "latency_p50_ms": statistics.median_high(lat) * 1e3,
        "latency_tail_ms": lat[idx] * 1e3,
        "failed_share": (attempted - len(ok)) / attempted,
        "period_hit_rate": sum(hits) / len(hits) if hits else 0.0,
        "peak_rss_mb": statistics.median(rss_samples),
    }
    kinds = dict.fromkeys(r.kind for r in records)
    details = {
        "attempted": attempted, "failed": attempted - len(ok), "with_period": len(hits),
        "hits": sum(hits), "setup_samples_s": setup_samples, "peak_rss_samples_mb": rss_samples,
        "tail_percentile": tail_pct, "tail_samples_beyond": n - 1 - idx, "latency_samples": n,
        "failures": [(r.kind, r.problems) for r in records if not r.ok][:10],
        "median_ms_by_kind": {k: statistics.median(t(r) for r in records if r.kind == k) * 1e3
                              for k in kinds},
        "latency_ms_by_kind": {k: [t(r) * 1e3 for r in records if r.kind == k] for k in kinds},
    }
    return metrics, details


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def op_counts(seed) -> dict:
    """Exact butterfly counts of the fast transform for N = 2 .. 2^14 against
    the library's closed form and the paper's N log2 N formulas."""
    import numpy as np
    F = importlib.import_module("ccpt.foccpt")
    rng = np.random.default_rng([seed, 0])
    rows, mismatches, mults, adds = [], 0, 0, 0
    for v in range(1, 15):
        N = 2 ** v
        _, ctr = F.foccpt(rng.standard_normal(N))
        lib = F.predicted_counts(N, "real")
        paper = (N * v - N + 1, 2 * N * v - 7 * N // 2 + 5)
        got = (ctr.real_mults, ctr.real_adds)
        ok = got == (lib.real_mults, lib.real_adds) == paper
        mismatches += not ok
        mults, adds = mults + got[0], adds + got[1]
        rows.append({"N": N, "mults": got[0], "adds": got[1], "predicted": list(paper), "exact": ok})
    return {"rows": rows, "mismatches": mismatches, "real_mults": mults, "real_adds": adds}


def provenance(args) -> dict:
    import numpy as np
    import scipy
    commit = None
    if (ROOT / ".git").exists():  # not an enclosing repository's HEAD
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit, "src_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def child_setup(args) -> dict:
    """Set-up times of one cold pass in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(tracer, scale, warm_start, warm_ops, hits, counts, cap_probe) -> dict:
    """Per-layer metrics; spans before `warm_start` belong to set-up. Span
    times are rescaled by their operation's reference-speed factor."""
    matrices = importlib.import_module("ccpt.matrices")
    warm = tracer.self_times(scale, warm_start)
    setup = tracer.self_times(scale, 0, warm_start)
    out = {}
    for s in SPANS:
        calls, total = warm.get(s, (0, 0.0))
        out[f"{s}.ms"] = total / calls * 1e3 if calls else 0.0
        out[f"{s}.calls"] = calls / warm_ops
    for s in SETUP_SPANS:
        out[f"{s}.setup_ms"] = setup.get(s, (0, 0.0))[1] * 1e3
    solves = tracer.solves
    out.update({
        "matrices.cached_matrix.misses": matrices.cached_matrix.cache_info().misses,
        "matrices.dense_bytes": sum(tracer.dense.values()),
        "period.fallback_share": sum(f for f, _ in solves) / len(solves) if solves else 0.0,
        "period.gram_condition": max((c for _, c in solves), default=0.0),
        "period.hit_rate": sum(hits) / len(hits) if hits else 0.0,
        "foccpt.real_mults": counts["real_mults"], "foccpt.real_adds": counts["real_adds"],
        "foccpt.count_mismatches": counts["mismatches"],
        "cap_probe.failed_calls": len(cap_probe["failed"]) if cap_probe else 0,
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread (the cap is nproc): the operations are single-threaded
    # Python otherwise, and a second BLAS thread would make the dictionary
    # solves depend on whether another process holds the second core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read once, when numpy first loads BLAS
    if not (SRC / "ccpt" / "__init__.py").is_file():
        print(f"error: no package source at {SRC.relative_to(ROOT)}/ccpt", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from clock import Clock

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            records, _ = Runner(Clock()).setup(wl)
            print(json.dumps({"setup_s": sum(r.seconds for r in records),
                              "setup_wall_s": sum(r.wall for r in records),
                              "peak_rss_mb": peak_rss_mb()}))
            return 0
        return measure(args, wl, Clock())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, clock) -> int:
    from clock import REFERENCE_PROBE_S
    from tracing import Tracer

    children = [child_setup(args) for _ in range(SETUP_CHILDREN)]
    setup_ref = [c["setup_s"] for c in children]
    setup_wall = [c["setup_wall_s"] for c in children]
    rss = [c["peak_rss_mb"] for c in children]
    tracer = Tracer() if args.trace else None
    runner = Runner(clock, tracer)
    if tracer:
        tracer.install()
    setup_records, done = runner.setup(wl)
    main_setup = (sum(r.seconds for r in setup_records), sum(r.wall for r in setup_records))
    setup_problems = [(r.kind, r.problems) for r in setup_records if not r.ok]
    tested, harness_failures = self_check(setup_records, done)
    if harness_failures:
        print("error: harness self-check failed: " + "; ".join(harness_failures), file=sys.stderr)
        return 3

    overhead = None
    if tracer:
        # untraced first half as the reference for the tracing overhead
        tracer.uninstall()
        plain, nxt = runner.warm(wl, args.seconds / 2, 1)
        plain_rss = peak_rss_mb()
        plain_metrics, _ = summarize(plain, setup_ref, rss + [plain_rss], wl.tail_pct)
        warm_start = len(tracer.spans)
        tracer.solves.clear()
        tracer.install()
        records, _ = runner.warm(wl, args.seconds / 2, nxt)
        tracer.uninstall()
        setup_ref, setup_wall = [main_setup[0]], [main_setup[1]]
    else:
        records, _ = runner.warm(wl, args.seconds, 1)
        setup_ref, setup_wall = setup_ref + [main_setup[0]], setup_wall + [main_setup[1]]
    rss.append(peak_rss_mb())
    metrics, details = summarize(records, setup_ref, rss, wl.tail_pct)
    wall_metrics, wall_details = summarize(records, setup_wall, rss, wl.tail_pct, wall=True)
    cap_probe = wl.probe()
    counts = op_counts(args.seed)
    layers = None
    if tracer:
        overhead = {name: (metrics[name] - plain_metrics[name]) * (1 if lower else -1)
                    for name, (_, lower) in END_TO_END.items()}
        overhead["peak_rss_mb"] = rss[-1] - plain_rss  # this process only
        scale = {r.op_id: r.seconds / r.wall for r in setup_records + records if r.wall > 0}
        hits = [r.hit for r in records if r.hit is not None]
        layers = layer_metrics(tracer, scale, warm_start, len(records), hits, counts, cap_probe)
        for name, value in overhead.items():
            layers[f"tracing.{name}.overhead"] = value

    correct = (details["failed"] == 0 and not setup_problems and counts["mismatches"] == 0
               and not (cap_probe or {}).get("problems"))
    report = {
        "provenance": provenance(args), "sizes": wl.sizes(), "metrics": metrics,
        "details": details, "wall_clock": {"metrics": wall_metrics, "details": wall_details},
        "machine_speed": {"reference_probe_s": REFERENCE_PROBE_S, "probes": len(clock.values),
                          "probe_median_s": statistics.median(clock.values)},
        "setup_problems": setup_problems,
        "harness_self_check": {"perturbations": tested, "failures": harness_failures},
        "op_counts": counts, "cap_probe": cap_probe, "per_layer": layers,
        "tracing_overhead": overhead, "correct": correct,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if tracer:
        tracer.write_csv(stem.with_suffix(".spans.csv"))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {report['provenance']['commit']}")
    print("  metric           reference-speed   wall-clock")
    for name, value in metrics.items():
        print(f"  {name:16s} {value:<17.6g} {wall_metrics[name]:<10.6g} {END_TO_END[name][0]}")
    print(f"  tail is p{wl.tail_pct:g} with {details['tail_samples_beyond']} of "
          f"{details['latency_samples']} samples beyond it; {details['failed']} of "
          f"{details['attempted']} operations failed")
    print(f"  op counts exact for N = 2..16384: {counts['mismatches'] == 0}; harness self-check: "
          f"{tested} perturbations caught; median probe {statistics.median(clock.values):.3g} s "
          f"(reference {REFERENCE_PROBE_S:.3g} s)")
    if cap_probe:
        print(f"  cap probe N={cap_probe['N']}: {len(cap_probe['failed'])} of {cap_probe['calls']} "
              f"calls raised {cap_probe['failed']}")
    print(f"  report: {stem.with_suffix('.json').relative_to(ROOT)}")
    if layers:
        result_metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer_units().items()}
    else:
        result_metrics = {k: {"value": metrics[k], "unit": END_TO_END[k][0]} for k in RESULT_KEYS}
    print(json.dumps({"correct": correct, "attempted": details["attempted"],
                      "failed": details["failed"], "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
