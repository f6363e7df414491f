"""Benchmark of anisosym's certificate: whole ``verify_mass_comparison`` calls.

    python3 bench/run.py --workload square2d --seed 0 --seconds 30 --trace 0

Run from any directory of a checkout; the library is imported from the
checkout's ``src/``.  One process, no worker threads: calls run back to back
(a closed loop with one caller) until ``--seconds`` have passed, and every
call's outputs are checked.  ``setup_s`` is measured in probe processes
(``setup_probe.py``), one at a time between calls, because an import can
only be timed once per interpreter.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced calls with calls that run under the pass-through wrappers of
``tracing.py`` and reports the per-layer metrics, plus the tracing overhead.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record (versions,
per-call answers, set-up samples, and the spans of the first traced call) is
written to ``bench/out/``.  Workloads and metrics are described in
``bench/README.md``.
"""

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(SRC))
try:
    import anisosym
except ImportError as exc:
    sys.exit(f"bench: cannot import anisosym from {SRC}: {exc}")
if Path(anisosym.__file__).resolve().parent != (SRC / "anisosym").resolve():
    sys.exit(f"bench: imported anisosym from {anisosym.__file__}, not from {SRC}")

import numpy  # noqa: E402
import scipy  # noqa: E402
import tracing  # noqa: E402  (tracing and workloads need anisosym on the path)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

TOL = 1e-9              # solver tolerance passed to every call, and the residual gate
NEG_TOL = 1e-12         # min(u_stack) may not fall below -NEG_TOL
SETUP_PROBES = 5        # set-ups per run; setup_s is their median

END_TO_END_UNITS = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "solver.lu_count": "count", "solver.lu_s": "s", "solver.lu_fill_nnz": "count",
    "solver.newton_iters": "count", "solver.solve_s": "s",
    "solver.solve_symmetrized_s": "s", "solver.self_s": "s",
    "grids.ball_cells": "count",
    "nonlinearity.law_build_s": "s", "nonlinearity.calls": "count",
    "nonlinearity.eval_s": "s",
    "rearrange.steiner_s": "s", "rearrange.mass_s": "s",
    "mass_ode.solve_s": "s", "mass_ode.resolvent_calls": "count",
    "mass_ode.resolvent_s": "s", "mass_ode.sweeps": "count",
    "compare.self_s": "s",
    "trace.verify_s": "s", "trace.overhead_s": "s",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_once(workload, seed):
    """(set-up seconds, seconds since process start) of one fresh interpreter.

    Set-up runs from ``import anisosym`` to the built workload; see
    ``setup_probe.py`` for why numpy and scipy are imported before it.
    """
    spawn = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    start, end = map(float, done.stdout.split()[-2:])
    return end - start, end - spawn


def openblas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment(seed):
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "anisosym": anisosym.__version__,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads": openblas_threads(),
    }


def check_report(rep, csv_bytes, reference):
    """Reasons this call's outputs are wrong (empty when they are right)."""
    problems = []
    if not rep.passed:
        problems.append("report.passed is false")
    for key in ("u_residual", "v_residual"):
        if not rep.meta[key] <= TOL:
            problems.append(f"{key} {rep.meta[key]:.3e} above tol {TOL:g}")
    u_min = float(rep.u_stack.values.min())
    if u_min < -NEG_TOL:
        problems.append(f"min(u_stack) {u_min:.3e} below {-NEG_TOL:g}")
    if csv_bytes != reference:
        problems.append("write_csv bytes differ from the run's first call")
    return problems


class Runner:
    """Back-to-back verify calls on one workload, with per-call checks."""

    def __init__(self, workload, seed):
        self.verify = anisosym.verify_mass_comparison
        self.grid, self.law, self.f_fn, self.kwargs = workload.build(seed)
        self.csv_path = OUT / f"call-{os.getpid()}.csv"
        self.reference_csv = None
        self.calls = []          # one record per attempted call
        self.setup_samples = []  # (set-up, since process start) seconds per probe
        self.traces = []         # (spans, report) per traced call

    def call(self, tracer=None):
        verify = self.verify if tracer is None else tracer.wrap(tracing.ROOT, self.verify)
        record = {"traced": tracer is not None}
        t0 = time.perf_counter()
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                rep = verify(self.grid, self.law, f_fn=self.f_fn, tol=TOL, **self.kwargs)
        except Exception as exc:  # a raising call is a failed call, not a crash
            record.update(seconds=None, problems=[f"raised {type(exc).__name__}: {exc}"],
                          traceback=traceback.format_exc())
            self.calls.append(record)
            return
        record["seconds"] = time.perf_counter() - t0
        try:
            rep.write_csv(self.csv_path)
            csv_bytes = self.csv_path.read_bytes()
        finally:
            self.csv_path.unlink(missing_ok=True)
        if self.reference_csv is None:
            self.reference_csv = csv_bytes
        record["problems"] = check_report(rep, csv_bytes, self.reference_csv)
        record.update(
            worst_gap=rep.worst_gap, mutual_gap=rep.mutual_gap, u_energy=rep.u_energy,
            u_iterations=rep.meta["u_iterations"], v_iterations=rep.meta["v_iterations"],
            csv_sha256=hashlib.sha256(csv_bytes).hexdigest(), timings=dict(rep.timings))
        if tracer is not None:
            self.traces.append((tracer.spans, rep))
        self.calls.append(record)

    def run(self, seconds, traced, probe=None):
        """Call until ``seconds`` have passed; traced runs alternate plain and traced calls.

        A call starts only while it should end less than half a call past the
        window.  ``probe`` (one set-up measurement), when given, runs
        SETUP_PROBES times spread evenly over the window, between calls, so
        that set-up and calls sample the same stretch of a machine whose
        speed drifts.
        """
        start = time.perf_counter()
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if probe and len(self.setup_samples) * seconds <= SETUP_PROBES * elapsed \
                    and len(self.setup_samples) < SETUP_PROBES:
                self.setup_samples.append(probe())
                continue
            if len(self.calls) >= 1 + traced and elapsed + last / 2 >= seconds:
                break
            use_tracer = traced and len(self.calls) % 2 == 1
            t0 = time.perf_counter()
            self.call(tracing.Tracer() if use_tracer else None)
            last = time.perf_counter() - t0
        while probe and len(self.setup_samples) < SETUP_PROBES:
            self.setup_samples.append(probe())

    def seconds_of(self, traced):
        return [c["seconds"] for c in self.calls
                if c["traced"] == traced and c["seconds"] is not None]

    @property
    def failed(self):
        return sum(1 for c in self.calls if c["problems"])


def tail_percentile(samples):
    """(q, value) for the highest percentile q > 50 with ten samples above it."""
    n = len(samples)
    q = int(100 * (1 - 10 / n))
    if q <= 50:
        return None
    return q, statistics.quantiles(samples, n=100)[q - 1]


def median_per_key(dicts):
    keys = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def end_to_end_metrics(runner):
    metrics = {"setup_s": statistics.median(s for s, _ in runner.setup_samples),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    plain = runner.seconds_of(traced=False)
    if plain:
        metrics["verify_s"] = statistics.median(plain)
    return metrics


def per_layer_metrics(runner):
    """Medians over the traced calls, plus the traced-minus-untraced overhead."""
    metrics = median_per_key([tracing.layer_metrics(spans, rep)
                              for spans, rep in runner.traces])
    traced, plain = runner.seconds_of(traced=True), runner.seconds_of(traced=False)
    if traced and plain:
        metrics["trace.verify_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def stage_problems(runner):
    """Disagreements between stage spans and ComparisonReport.timings."""
    problems, table = [], []
    for spans, rep in runner.traces:
        agreement = tracing.stage_agreement(spans, rep.timings)
        table.append({k: list(v) for k, v in agreement.items()})
        problems += [f"stage {stage}: timings {st:.4f} s, spans {sp:.4f} s"
                     for stage, (st, sp, ok) in agreement.items() if not ok]
    return problems, table


def summarize(args, runner, metrics, units, env, extra_problems):
    n_ok = len(runner.seconds_of(False)) + len(runner.seconds_of(True))
    attempted = len(runner.calls)
    print(f"bench: {args.workload} seed {args.seed}, trace {args.trace}: "
          f"{attempted} calls, {runner.failed} failed, "
          f"fail_ratio {runner.failed / attempted:g} (ratio)")
    print("bench: env " + json.dumps(env, sort_keys=True))
    plain = runner.seconds_of(False)
    tail = tail_percentile(plain) if plain else None
    if runner.setup_samples:
        print("bench: set-up from process start, median "
              f"{statistics.median(t for _, t in runner.setup_samples):.6g} s "
              "(a record, not a metric)")
    print(f"bench: verify_s from {len(plain)} untraced calls ({n_ok} returned); "
          + (f"p{tail[0]} {tail[1]:.6g} s" if tail else
             "too few samples for a tail percentile with ten samples beyond it"))
    for name in sorted(metrics):
        print(f"bench:   {name:30s} {metrics[name]:.6g} {units[name]}")
    first = next((c for c in runner.calls if c["seconds"] is not None), None)
    if first is not None:
        print("bench: answers " + json.dumps(
            {k: first[k] for k in ("worst_gap", "mutual_gap", "u_energy", "u_iterations",
                                   "v_iterations", "csv_sha256")}))
    for c in runner.calls:
        for p in c["problems"]:
            print(f"bench: FAILED call: {p}")
    for p in extra_problems:
        print(f"bench: FAILED check: {p}")


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)

    runner = Runner(WORKLOADS[args.workload], args.seed)
    probe = None if args.trace else lambda: setup_once(args.workload, args.seed)
    runner.run(args.seconds, bool(args.trace), probe)

    stage_table, extra = [], []
    if args.trace:
        metrics, units = per_layer_metrics(runner), PER_LAYER_UNITS
        extra, stage_table = stage_problems(runner)
    else:
        metrics, units = end_to_end_metrics(runner), END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"bench: absent metrics: {', '.join(missing)}")
    env = environment(args.seed)
    correct = runner.failed == 0 and not extra

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct,
              "setup_samples_s": runner.setup_samples, "metrics": metrics, "calls": runner.calls,
              "stage_agreement": stage_table,
              "spans_first_traced_call": runner.traces[0][0] if runner.traces else []}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, sort_keys=True))

    summarize(args, runner, metrics, units, env, extra)
    print(json.dumps({
        "correct": correct, "attempted": len(runner.calls), "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
