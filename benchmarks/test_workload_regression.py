"""Workload-suite regression guards (plain pytest, CI smoke).

Replays the attention + recsys suite behind ``--workloads`` with the
exact parameters recorded in the committed ``BENCH_workloads.json`` and
checks, per (model, mode, compression) row:

* message counts are *exactly* the committed ones — the simulation is
  deterministic, so any drift is a protocol regression, not noise;
* the simulated online makespan has not regressed beyond 10% headroom;
* the recsys CSR story still holds: inference with delta compression on
  ships strictly fewer bytes than the dense run of the same workload,
  and its wire bytes undercut its raw bytes (the static embedding-table
  stream collapsing to all-zero CSR deltas — DESIGN §7).

Runs standalone:
``PYTHONPATH=src python -m pytest benchmarks/test_workload_regression.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.harness import run_workload_figures
from repro.core.config import FrameworkConfig

BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "BENCH_workloads.json"


@pytest.fixture(scope="module")
def reference() -> list[dict]:
    if not BENCH_REFERENCE.exists():
        pytest.skip("no committed BENCH_workloads.json reference")
    return json.loads(BENCH_REFERENCE.read_text())["rows"]


@pytest.fixture(scope="module")
def fresh(reference):
    """Re-run the suite with the committed run's parameters."""
    first = reference[0]
    cfg = FrameworkConfig.parsecureml(
        runtime=first.get("runtime", "lockstep"),
        backend=first.get("backend", "beaver2pc"),
    )
    rows = run_workload_figures(
        cfg,
        n_batches=first["batches"],
        batch_size=first["batch_size"],
        seed=first["seed"],
    )
    return {(r.model, r.mode, r.compression): r for r in rows}


def _ref_rows(reference) -> dict[tuple, dict]:
    return {(r["model"], r["mode"], r["compression"]): r for r in reference}


def test_reference_covers_both_workloads(reference):
    keys = set(_ref_rows(reference))
    assert ("attention", "train", True) in keys
    assert ("attention", "infer", True) in keys
    assert ("recsys", "train", True) in keys
    assert ("recsys", "infer", True) in keys
    assert ("recsys", "infer", False) in keys


def test_message_counts_match_reference(fresh, reference):
    for key, ref in _ref_rows(reference).items():
        row = fresh.get(key)
        assert row is not None, f"suite no longer produces row {key}"
        assert row.comm_messages == ref["comm_messages"], (
            f"{key}: {row.comm_messages} msgs vs committed "
            f"{ref['comm_messages']} — protocol round structure changed"
        )


def test_online_makespan_no_regression(fresh, reference):
    for key, ref in _ref_rows(reference).items():
        row = fresh[key]
        assert row.online_s <= ref["online_s"] * 1.10, (
            f"{key}: online makespan {row.online_s:.6f}s vs committed "
            f"{ref['online_s']:.6f}s (>10% regression)"
        )


def test_csr_reduces_recsys_wire_bytes(fresh, reference):
    refs = _ref_rows(reference)
    for rows, get in ((refs, lambda r, f: r[f]), (fresh, lambda r, f: getattr(r, f))):
        csr = rows[("recsys", "infer", True)]
        dense = rows[("recsys", "infer", False)]
        assert get(csr, "comm_bytes") < get(dense, "comm_bytes")
        assert get(csr, "wire_comm_bytes") < get(csr, "raw_comm_bytes")
        # dense accounting charges raw bytes straight through
        assert get(dense, "wire_comm_bytes") == get(dense, "raw_comm_bytes")
