"""fluxsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Workloads: spectral-sweep, readout-mc,
gate-mc (see README.md). The program is imported from ./src, never from an
installed copy. After set-up the workload runs whole rounds until S seconds
have passed. With --trace 0 the end-to-end metrics are the medians over the
rounds, each time scaled to a reference host speed by the probe timed
around it; with --trace 1 untraced and traced rounds alternate and the
per-layer metrics come from the traced ones. The last line printed is one
JSON object: correct, attempted, failed, metrics. Results and traces are
written under perfbench/out/.
"""

from __future__ import annotations

import os
import time

START = time.perf_counter()
# One BLAS thread, set before numpy loads OpenBLAS. At these matrix sizes
# (18 to 64) a second thread leaves wall time unchanged, doubles CPU time and
# ties the timings to the load on the other core (README, "BLAS threads").
os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3
# Probe time on the reference host; timings are reported in its seconds.
PROBE_REF_S = 0.1

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "first_pass_s": "s", "second_pass_s": "s", "work_per_s": "1/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import fluxsim from ./src and the workloads; None if it is absent."""
    if not (SRC / "fluxsim" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import fluxsim
    if Path(fluxsim.__file__).resolve().parent != SRC / "fluxsim":
        return None
    import workloads
    return workloads


def probe():
    """Seconds of a fixed computation written in the benchmark, in the
    proportions of the program's own kinds of work: a scalar complex
    Python loop (Langevin RK4), eigensolves of a 64x64 Hermitian matrix
    (coupled spectrum) and a chain of 18x18 complex products (gate RK4)."""
    t0 = time.perf_counter()
    y, k = 0j, -0.01 + 0.2j
    for _ in range(150_000):
        y = y + 0.01 * (k * y + 1.0)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    h = a + a.conj().T
    for _ in range(25):
        np.linalg.eigh(h)
    m = 0.01j * h[:18, :18]
    u = np.eye(18, dtype=complex)
    for _ in range(6000):
        u = u + m @ u
    return time.perf_counter() - t0


def peak_rss_mb():
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_round(workloads, spans, wl, work, traced):
    """One round, its phases bracketed by probes of the host's speed. With
    `traced`, the program's layers are instrumented while it runs (not while
    its outputs are checked), and no probe runs inside a phase, where it
    would land in a span."""
    from fluxsim.diagnostics import eigensolve_count

    r = workloads.Round(wl.ops, probe, in_phase=not traced)
    if traced:
        r.tracer = spans.Tracer()
        ins = spans.instrument(r.tracer)
        solves = eigensolve_count()
    try:
        ctx = wl.round(r, work)
    except Exception as exc:  # a program fault fails the round's operations
        traceback.print_exc()
        r.abandon(exc)
        return r
    finally:
        r.finish()
        if traced:
            ins.restore()
            r.eigensolves = eigensolve_count() - solves
            r.cache = workloads.cache_size(wl.out) if wl.out else (0, 0)
    wl.check(r, ctx)
    return r


def round_metrics(wl, r, scaled=True):
    """Phase times of a round, in reference seconds if `scaled`."""
    first, second = (
        r.phases.get(p, 0.0) * (r.speed(p, PROBE_REF_S) if scaled else 1.0)
        for p in ("first", "second"))
    wall = first + second
    busy = {"first": first, "second": second, "wall": wall}[wl.RATE_OVER]
    return {"wall_s": wall, "first_pass_s": first, "second_pass_s": second,
            "work_per_s": r.work / busy if busy else 0.0}


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()
    if workloads is None:
        print(f"benchmark: no fluxsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    import spans

    wl = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        return measure(args, workloads, spans, wl, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workloads, spans, wl, work, import_s):
    # set-up is repeated for a median; a set-up that raises, or fails its
    # check, ends the run without a result
    probe()  # the first call pays one-off BLAS and allocator start-up
    probes = [probe()]
    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup(work)
        setups.append(time.perf_counter() - t0)
    probes.append(probe())
    setup_speed = PROBE_REF_S / statistics.fmean(probes)
    wl.check_setup()

    rounds, traced, failures = [], [], {}
    deadline = time.perf_counter() + args.seconds
    while True:
        rounds.append(run_round(workloads, spans, wl, work, False))
        if args.trace:
            traced.append(run_round(workloads, spans, wl, work, True))
            rounds.append(traced[-1])
        if time.perf_counter() >= deadline:
            break

    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    for r in rounds:
        for op, why in r.failures.items():
            failures.setdefault(op, why)
    untraced = [r for r in rounds if r not in traced]
    scaled = [round_metrics(wl, r) for r in untraced]
    med = {k: statistics.median(m[k] for m in scaled) for k in scaled[0]}
    details = {"rounds_raw": [round_metrics(wl, r, False) for r in untraced],
               "probes_s": [r.probes for r in untraced],
               "setups_s": setups, "import_s": import_s,
               "setup_speed_factor": setup_speed}

    if args.trace:
        # span times are raw seconds; the overhead compares scaled walls
        traced_wall = statistics.median(
            round_metrics(wl, r)["wall_s"] for r in traced)
        per_run = {"trace.untraced_wall_s": med["wall_s"],
                   "trace.traced_wall_s": traced_wall,
                   "trace.overhead_s": traced_wall - med["wall_s"],
                   "cli.pool1_chi_curve_s": 0.0, "cli.pool2_chi_curve_s": 0.0}
        if hasattr(wl, "pool_legs"):
            for workers, seconds in wl.pool_legs(work).items():
                attempted += 1
                if seconds is None:
                    failures[f"chi-curve --workers {workers}"] = "non-zero exit"
                    failed += 1
                else:
                    per_run[f"cli.pool{workers}_chi_curve_s"] = seconds
        values = spans.layer_metrics(traced, per_run)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        path = OUT / f"trace-{wl.name}-{args.seed}.json"
        spans.write_trace(path, [r.tracer for r in traced], {
            "workload": wl.name, "seed": args.seed, "inputs": wl.describe(),
            "environment": spans.environment(), "metrics": values})
        print(f"trace: {path}")
    else:
        values = {"setup_s": setup_speed * (import_s
                                             + statistics.median(setups)),
                  "peak_rss_mb": peak_rss_mb(), **med}
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    for name, why in failures.items():
        print(f"FAILED {name}: {why}")
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{wl.name}: {len(rounds)} rounds, {attempted} operations "
          f"attempted, {failed} failed")
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (OUT / f"result-{wl.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "failures": failures, "inputs": wl.describe(),
                    **details}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
