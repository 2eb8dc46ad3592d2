"""Pooled offline phase regression guards (plain pytest, CI smoke).

Three invariants of the batched provisioning work, checked on the
Fig. 12 / Fig. 11 MLP+MNIST cell so CI catches a regression in either
the simulated cost model or the real (wall-clock) fused generators:

* pooled + mask-reuse training never costs more simulated offline time
  than the per-op dealer, and its online makespan is no worse (Fig. 12);
* pooled + mask-reuse inference is strictly faster online (Fig. 11 —
  static weights make every post-first-batch F exchange a cache hit);
* the fused batch generator beats per-triplet generation in wall-clock
  (vectorised mask draws + one stacked ring GEMM vs B separate passes).

Runs standalone: ``PYTHONPATH=src python -m pytest benchmarks/test_pool_regression.py``.
"""

from __future__ import annotations

import dataclasses
import time

from repro.bench.harness import run_secure, run_secure_inference
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext

N_BATCHES = 3


def _configs():
    par = FrameworkConfig.parsecureml(activation_protocol="emulated")
    pooled = dataclasses.replace(par, pool_size=8, static_mask_reuse=True)
    return par, pooled


def test_fig12_pooled_offline_no_worse_and_strictly_faster_total():
    par, pooled = _configs()
    base = run_secure("MLP", "MNIST", par, n_batches=N_BATCHES, batch_size=128, seed=0)
    pool = run_secure("MLP", "MNIST", pooled, n_batches=N_BATCHES, batch_size=128, seed=0)
    base_off, pool_off = base.offline_s(N_BATCHES), pool.offline_s(N_BATCHES)
    base_on, pool_on = base.online_s(N_BATCHES), pool.online_s(N_BATCHES)
    assert pool_off < base_off, (
        f"pooled offline {pool_off:.6f}s should beat per-op dealer {base_off:.6f}s"
    )
    assert pool_on <= base_on * (1 + 1e-9), (
        f"pooled online {pool_on:.6f}s regressed vs {base_on:.6f}s"
    )


def test_fig11_reuse_online_strictly_faster():
    par, pooled = _configs()
    base = run_secure_inference("MLP", "MNIST", par, n_batches=N_BATCHES, batch_size=128, seed=0)
    pool = run_secure_inference("MLP", "MNIST", pooled, n_batches=N_BATCHES, batch_size=128, seed=0)
    base_on, pool_on = base.online_s(N_BATCHES), pool.online_s(N_BATCHES)
    assert pool_on < base_on, (
        f"pooled+reuse online {pool_on:.6f}s should beat per-op dealer {base_on:.6f}s"
    )


def test_fused_batch_generation_wall_clock():
    """One stacked refill beats B per-triplet dealer passes in real time."""
    shape_a, shape_b, count = (64, 128), (128, 64), 8

    def fused():
        ctx = SecureContext(FrameworkConfig.parsecureml(pool_size=count))
        start = time.perf_counter()
        ctx.gen_matrix_triplet(shape_a, shape_b, count)
        return time.perf_counter() - start

    def singles():
        ctx = SecureContext(FrameworkConfig.parsecureml())
        start = time.perf_counter()
        for _ in range(count):
            ctx.gen_matrix_triplet(shape_a, shape_b)
        return time.perf_counter() - start

    best_fused = min(fused() for _ in range(3))
    best_singles = min(singles() for _ in range(3))
    assert best_fused < best_singles, (
        f"fused {best_fused * 1e3:.2f}ms should beat {count} singles "
        f"{best_singles * 1e3:.2f}ms"
    )
