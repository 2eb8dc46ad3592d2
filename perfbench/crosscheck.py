"""Cross-check the benchmark's simulated-clock reader.

Re-runs the ``ParSecureML``/``beaver2pc`` cells of the committed
``BENCH_workloads.json`` (attention and recsys, batch 32, 2 batches,
seed 0, as its ``argv`` records) at ``FrameworkConfig()`` defaults, so
under the default ``dealer`` comparison, and reads each run's simulated
clock with :class:`workloads.SimReading`, the reader behind the
benchmark's ``sim_*`` metrics.  Two comparisons, both exact:

* against ``repro.bench.harness.run_workload_figures`` on the same
  config, the repository's own reader of the same runs;
* against the committed rows of ``BENCH_workloads.json``.

Run from the repository root; exits 1 on any mismatch::

    python3 perfbench/crosscheck.py
"""

from __future__ import annotations

import json
import sys

import run

FIELDS = ("online_s", "offline_s", "comm_bytes", "comm_messages")
BATCHES, BATCH_SIZE, SEED = 2, 32, 0


def reader_rows() -> dict[tuple, dict]:
    """Each committed cell, re-run and read through ``SimReading``."""
    from repro.bench.harness import WORKLOAD_FIGURE_MODELS
    from repro.bench.workloads import build_secure_model, load_workload
    from workloads import LR, SimReading

    import repro

    rows = {}
    for model_name in WORKLOAD_FIGURE_MODELS:
        x, y, spec = load_workload(
            model_name, "SYNTHETIC", n_batches=BATCHES, batch_size=BATCH_SIZE, seed=SEED
        )
        cells = [("train", True), ("infer", True)]
        if model_name == "recsys":
            cells.append(("infer", False))
        for mode, compression in cells:
            ctx = repro.api.session(compression=compression)
            model = build_secure_model(ctx, spec)
            if mode == "train":
                repro.SecureTrainer(ctx, model, lr=LR, monitor_loss=False).train(
                    x, y, epochs=1, batch_size=BATCH_SIZE
                )
            else:
                repro.secure_predict(ctx, model, x, batch_size=BATCH_SIZE)
            r = SimReading.of([ctx])
            rows[(model_name, mode, compression)] = {
                "online_s": r.online_s, "offline_s": r.offline_s,
                "comm_bytes": r.server_bytes, "comm_messages": r.server_messages,
            }
    return rows


def harness_rows() -> dict[tuple, dict]:
    from repro.bench.harness import run_workload_figures

    import repro

    return {
        (r.model, r.mode, r.compression): {f: getattr(r, f) for f in FIELDS}
        for r in run_workload_figures(
            repro.FrameworkConfig(), n_batches=BATCHES, batch_size=BATCH_SIZE, seed=SEED
        )
    }


def committed_rows() -> dict[tuple, dict]:
    data = json.loads((run.ROOT / "BENCH_workloads.json").read_text())
    return {
        (r["model"], r["mode"], r["compression"]): {f: r[f] for f in FIELDS}
        for r in data["rows"]
        if r["system"] == "ParSecureML" and r["backend"] == "beaver2pc"
        and r["batches"] == BATCHES and r["batch_size"] == BATCH_SIZE and r["seed"] == SEED
    }


def compare(ours: dict, theirs: dict, against: str) -> int:
    mismatches = 0
    for key in sorted(theirs):
        cell = "/".join(str(k) for k in key)
        for field in FIELDS:
            mine, ref = ours[key][field], theirs[key][field]
            ok = mine == ref
            mismatches += not ok
            print(f"{against:10s} {cell:28s} {field:14s} {mine!r:>24} "
                  f"{'==' if ok else '!='} {ref!r}")
    return mismatches


def main() -> int:
    run._limit_blas_threads()
    try:
        run._import_program()
    except ImportError as exc:
        print(f"crosscheck: cannot load the program: {exc}", file=sys.stderr)
        return 2
    ours = reader_rows()
    mismatches = compare(ours, harness_rows(), "harness")
    mismatches += compare(ours, committed_rows(), "committed")
    print(f"{mismatches} mismatching fields")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
