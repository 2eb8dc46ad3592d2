"""Wire codec regression guards (plain pytest, CI smoke).

Invariants of the framed, round-coalesced accounting on the Fig. 10
MLP/MNIST cell (default config, 2 training batches of 128 plus a
serving run), checked against committed reference numbers:

* server links carry no more messages than the committed coalesced
  reference (the simulation is deterministic, so a count above it is a
  real regression), and the E/F pairs are actually packed;
* the online makespans of training and serving are no worse than the
  committed uncoalesced baseline (fewer latency charges on almost the
  same byte volume);
* the frame-CRC payload checksum beats pickle-then-CRC per frame in
  wall-clock.

Runs standalone:
``PYTHONPATH=src python -m pytest benchmarks/test_wire_regression.py``.
"""

from __future__ import annotations

import pickle
import time
import zlib

import numpy as np
import pytest

from repro.bench.harness import build_secure_model, load_workload, run_serving
from repro.comm.wire import payload_checksum
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.training import SecureTrainer

N_BATCHES = 2
BATCH_SIZE = 128

#: Server-link messages of the training run with coalesced E/F rounds.
REFERENCE_MESSAGES = 60
#: Online makespans of the raw-estimate, one-message-per-matrix
#: accounting this one replaced (train, then serve with 4 clients).
UNCOALESCED_TRAIN_ONLINE_S = 0.005308902191644443
UNCOALESCED_SERVE_ONLINE_S = 0.003534095480019748


@pytest.fixture(scope="module")
def cell():
    cfg = FrameworkConfig.parsecureml(activation_protocol="emulated")
    x, y, spec = load_workload(
        "MLP", "MNIST", n_batches=N_BATCHES, batch_size=BATCH_SIZE, seed=0
    )
    ctx = SecureContext.create(cfg)
    model = build_secure_model(ctx, spec)
    SecureTrainer(ctx, model, lr=0.03125, monitor_loss=False).train(
        x, y, epochs=1, batch_size=BATCH_SIZE
    )
    snap = ctx.telemetry.snapshot()
    serve = run_serving(
        "MLP", "MNIST", cfg, clients=4, n_batches=N_BATCHES, batch_size=BATCH_SIZE, seed=0
    )
    return {
        "messages": sum(link.total_messages for link in ctx.server_links.values()),
        "coalesced": int(snap.counter("comm.coalesced_messages")),
        "train_online_s": snap.gauge("phase.sim_seconds", clock="online"),
        "serve_online_s": serve.online_s,
    }


def test_messages_no_worse_than_committed_reference(cell):
    assert cell["messages"] <= REFERENCE_MESSAGES, (
        f"server-link messages regressed: {cell['messages']} > "
        f"committed reference {REFERENCE_MESSAGES}"
    )


def test_rounds_are_coalesced(cell):
    assert cell["coalesced"] > 0


def test_online_makespan_no_worse_than_uncoalesced(cell):
    assert cell["train_online_s"] <= UNCOALESCED_TRAIN_ONLINE_S * (1 + 1e-9)
    assert cell["serve_online_s"] <= UNCOALESCED_SERVE_ONLINE_S * (1 + 1e-9)


def test_frame_checksum_beats_pickle_checksum():
    payload = np.random.default_rng(0).integers(0, 2**64, size=(512, 512), dtype=np.uint64)
    reps = 5

    def per_call_us(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        return (time.perf_counter() - t0) / reps * 1e6

    frame_us = per_call_us(lambda: payload_checksum(payload))
    pickle_us = per_call_us(lambda: zlib.crc32(pickle.dumps(payload, protocol=4)))
    assert frame_us < pickle_us, (
        f"frame CRC {frame_us:.0f}us should beat pickle CRC {pickle_us:.0f}us"
    )
