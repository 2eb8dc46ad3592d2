"""Two-clock benchmark of the secure-ML stack: wall clock and simulated clock.

Run from the repository root::

    python3 perfbench/run.py --workload mlp_mnist_train --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` first measures an untraced window, then patches every
layer's entry points (perfbench/tracing.py) and measures a traced window
of the same length on a fresh set-up; the per-layer metrics come from
the traced window and ``trace.overhead_share`` compares the two windows'
median step times.  The Chrome trace goes to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program loads from ``src/`` of the checkout the
benchmark sits in; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Pacing kernel: host speed drifts over seconds on a shared machine, so
#: wall times are scaled to a reference speed, at which the kernel takes
#: PACE_REF_S.  It is pure Python: BLAS threads would make it sensitive
#: to a neighbour holding the other core, which the workloads mostly are not.
PACE_LOOP = 20_000
PACE_REF_S = 0.0015
#: Kernel runs before and after each set-up; their median scales it.
SETUP_PACES = 3
#: Peak RSS is read after this many timed steps (step() calls), so it
#: does not grow with how many steps a faster program fits in the window.
RSS_STEPS = 40
#: The calibration kernel: float64 dgemm of this order.
CALIB_N = 512
CALIB_WARMUP, CALIB_REPS = 50, 20


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _limit_blas_threads() -> None:
    """OpenBLAS may use at most the cores this process may run on."""
    cores = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not asked.isdigit() or not 0 < int(asked) <= cores:
        os.environ["OPENBLAS_NUM_THREADS"] = str(cores)


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, not from {src}")
    return repro


def calibrate() -> float:
    """Warm BLAS up, then time a fixed float64 dgemm; returns GFLOP/s."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((CALIB_N, CALIB_N))
    for _ in range(CALIB_WARMUP):
        a @ a
    start = time.perf_counter()
    for _ in range(CALIB_REPS):
        a @ a
    return 2 * CALIB_N**3 * CALIB_REPS / (time.perf_counter() - start) / 1e9


def pace() -> float:
    """Time one run of the pacing kernel, a pure-Python loop."""
    start = time.perf_counter()
    x = 0
    for i in range(PACE_LOOP):
        x += i * i
    return time.perf_counter() - start


def measure(session, seconds: float, tracer=None) -> dict:
    """Run steps until ``seconds`` of wall time have passed.

    The pacing kernel runs between steps.  Each step's latencies are also
    recorded scaled by ``PACE_REF_S`` over the mean of the kernel times
    just before and just after it, i.e. at the reference speed.
    """
    session.begin_window()
    latencies: list[float] = []
    scaled: list[float] = []
    busy_s = busy_ref_s = 0.0
    steps = 0
    rss_mb = None
    start = time.perf_counter()
    deadline = start + seconds
    before = pace()
    while True:
        if tracer is not None:
            tracer.step = str(steps)
        t0 = time.perf_counter()
        done = session.step()
        busy = time.perf_counter() - t0
        after = pace()
        scale = 2 * PACE_REF_S / (before + after)
        before = after
        busy_s += busy
        busy_ref_s += busy * scale
        latencies.extend(done)
        scaled.extend(lat * scale for lat in done)
        steps += 1
        if steps == RSS_STEPS:
            rss_mb = _peak_rss_mb()
        now = time.perf_counter()
        if now >= deadline:
            break
    return {"latencies": latencies, "scaled": scaled, "busy_s": busy_s,
            "busy_ref_s": busy_ref_s, "wall_s": now - start,
            "peak_rss_mb": rss_mb if rss_mb is not None else _peak_rss_mb()}


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _quantile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def end_to_end(session, window: dict, setups: list[tuple[float, float]],
               check) -> tuple[dict[str, float], dict[str, float]]:
    """The gated metrics (wall times at reference speed) and the raw wall extras."""
    import statistics

    scaled = window["scaled"]
    sim_lat = session.sim_latencies()
    sim_online_s, sim_bytes = session.sim_per_step()
    metrics = {
        "setup_s": statistics.median(ref for _raw, ref in setups),
        "samples_per_s": session.rows / window["busy_ref_s"],
        "step_p50_ms": _quantile(scaled, 0.50) * 1e3,
        "step_p90_ms": _quantile(scaled, 0.90) * 1e3,
        "peak_rss_mb": window["peak_rss_mb"],
        "sim_online_ms_per_step": sim_online_s * 1e3,
        "sim_offline_s": session.setup_sim.offline_s,
        "sim_server_bytes_per_step": sim_bytes,
        "sim_step_p50_ms": _quantile(sim_lat, 0.50) * 1e3,
        "sim_step_p99_ms": _quantile(sim_lat, 0.99) * 1e3,
    }
    lat = window["latencies"]
    extras = {
        "pred_max_abs_err": check.max_abs_err,
        "wall.setup_s": statistics.median(raw for raw, _ref in setups),
        "wall.samples_per_s": session.rows / window["busy_s"],
        "wall.step_p50_ms": _quantile(lat, 0.50) * 1e3,
        "wall.step_p90_ms": _quantile(lat, 0.90) * 1e3,
    }
    if hasattr(session, "fleet"):
        extras["serve_requests_per_s"] = len(scaled) / window["busy_ref_s"]
        extras["request_p99_ms"] = _quantile(scaled, 0.99) * 1e3
        extras["wall.request_p99_ms"] = _quantile(lat, 0.99) * 1e3
    return metrics, extras


E2E_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_online_ms_per_step": "sim_ms",
    "sim_offline_s": "sim_s",
    "sim_server_bytes_per_step": "B",
    "sim_step_p50_ms": "sim_ms",
    "sim_step_p99_ms": "sim_ms",
    "pred_max_abs_err": "abs",
    "wall.setup_s": "s",
    "wall.samples_per_s": "1/s",
    "wall.step_p50_ms": "ms",
    "wall.step_p90_ms": "ms",
    "serve_requests_per_s": "1/s",
    "request_p99_ms": "ms",
    "wall.request_p99_ms": "ms",
    "failed_share": "share",
}


def timed_setup(spec, inputs) -> tuple[object, float, float]:
    """Build one session; returns it with its raw and reference-speed set-up time."""
    import statistics

    paces = [pace() for _ in range(SETUP_PACES)]
    start = time.perf_counter()
    session = spec.session(inputs)
    raw = time.perf_counter() - start
    paces += [pace() for _ in range(SETUP_PACES)]
    return session, raw, raw * PACE_REF_S / statistics.median(paces)


def run(args) -> dict:
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    gflops = calibrate()
    inputs = spec.inputs(args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        session = None  # let the previous set-up be collected first
        session, raw, ref = timed_setup(spec, inputs)
        setups.append((raw, ref))

    seconds = args.seconds / 2 if args.trace else args.seconds
    window = measure(session, seconds)
    attempted, failed = session.attempted, session.failed

    if args.trace:
        untraced_p50 = _quantile(window["scaled"], 0.5)
        session = None
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            session = spec.session(inputs, tracer)
            setup = tracer.snapshot()
            window = measure(session, seconds, tracer)
        finally:
            tracer.restore()
        tracer.check_coverage(spec.layers)
        trace_path = tracer.write_chrome_trace(
            HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
        )
        print(f"# chrome trace: {trace_path.relative_to(ROOT)}"
              f" ({len(tracer.spans)} spans, {tracer.dropped_spans} dropped)")
        attempted += session.attempted
        failed += session.failed
        metrics = tracing.per_layer_metrics(
            tracer, setup, len(window["latencies"]),
            session.serve_stats() if hasattr(session, "serve_stats") else None,
        )
        metrics["calib.dgemm_gflops"] = gflops
        metrics["trace.overhead_share"] = (
            _quantile(window["scaled"], 0.5) / untraced_p50 - 1 if untraced_p50 else 0.0
        )
        check = session.check()
        metrics["pred_max_abs_err"] = check.max_abs_err
        extras = {}
        units = {**tracing.PER_LAYER_UNITS, **E2E_UNITS}
    else:
        check = session.check()
        metrics, extras = end_to_end(session, window, setups, check)
        units = E2E_UNITS
    extras["failed_share"] = failed / attempted if attempted else 1.0

    print(f"# {args.workload}: {len(window['latencies'])} timed steps in"
          f" {window['wall_s']:.2f} s; wall times at reference speed unless named wall.*")
    for name, value in {**metrics, **extras}.items():
        print(f"{name:42s} {value:.6g} {units[name]}")
    print(f"# output check: max |secure - plain| = {check.max_abs_err:.3e} over"
          f" {check.rows} rows (tol {check.tol:g}) -> {'ok' if check.passed else 'FAILED'}")
    return {
        "correct": check.passed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _limit_blas_threads()
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    result = run(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
