"""The benchmark's three workloads, driven through the public ``repro`` API.

Every workload runs ``FrameworkConfig()`` defaults except ``backend``:
the real ``dealer`` comparison, the lockstep runtime, no triplet pool,
delta compression on.  The ``--seed`` drives input and request-stream
generation only; ``FrameworkConfig.seed`` keeps its default.

A workload builds a *session*: constructing one is the set-up the
benchmark times (context or fleet creation, model build, dataset
sharing, and the first, warm-up step that pays for the lazy triplet and
comparison material).  ``session.step()`` then runs one unit of load and
returns the wall latencies it completed: one training batch, or one
closed-loop round of serve requests.  ``session.check()`` compares the
secure outputs with the float64 plain twin, outside any timed region.

A *step* is one training batch on the training workloads and one
request (submit to reply) on the serve workload.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro
from repro.audit.conformance import FORWARD_TOL, sync_plain_weights
from repro.baselines.plain import PlainAttention, PlainMLP, PlainRecsys, PlainTimer
from repro.datasets import make_dataset, sequence_dataset
from repro.util.errors import QueueFullError, ReproError

#: SGD step of the repository's bench harness (repro.bench.harness).
LR = 0.03125
#: Distinct training batches each training loop cycles through.
TRAIN_BATCHES = 16
#: Held-out rows the training output check predicts.
HOLDOUT_ROWS = 1024
#: Pre-generated serve requests the closed loop cycles through.
SERVE_POOL = 4096

ATTN_SEQ, ATTN_DMODEL = 4, 16
RECSYS_VOCAB, RECSYS_EMB = 64, 16
SERVE_CLIENTS = 8


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


@dataclass(frozen=True)
class SimReading:
    """The simulated clock's counters summed over a set of contexts.

    ``online_s`` is the online makespan (the max over replicas when
    several deployments run side by side); bytes and messages are the
    inter-server totals.
    """

    offline_s: float
    online_s: float
    server_bytes: int
    server_messages: int

    @staticmethod
    def of(contexts) -> "SimReading":
        marks = [ctx.mark() for ctx in contexts]
        return SimReading(
            offline_s=max(m.offline_s for m in marks),
            online_s=max(m.online_s for m in marks),
            server_bytes=sum(m.server_bytes for m in marks),
            server_messages=sum(
                link.total_messages for ctx in contexts for link in ctx.server_links.values()
            ),
        )

    def __sub__(self, other: "SimReading") -> "SimReading":
        return SimReading(
            self.offline_s - other.offline_s,
            self.online_s - other.online_s,
            self.server_bytes - other.server_bytes,
            self.server_messages - other.server_messages,
        )


@dataclass
class Check:
    """Outcome of comparing secure outputs with the plain twin."""

    max_abs_err: float
    tol: float
    rows: int

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.max_abs_err)) and self.max_abs_err <= self.tol


# -- training -------------------------------------------------------------------


@dataclass(frozen=True)
class TrainInputs:
    x: np.ndarray
    y: np.ndarray
    holdout: np.ndarray


class TrainSession:
    """One training deployment: context, model, shared dataset, warm-up step.

    The step mirrors ``SecureTrainer.train``'s inner loop (new batch
    epoch, row slices of the once-shared dataset, ``train_batch``), so
    the loop can stop at a wall-clock deadline instead of a batch count.
    """

    def __init__(self, spec: "Workload", inputs: TrainInputs, tracer=None):
        self.spec = spec
        self.inputs = inputs
        self.tracer = tracer
        self.ctx = repro.api.session(backend=spec.backend)
        self.model = spec.build_secure(self.ctx)
        with _span(tracer, "core.share_dataset"):
            self.xs = repro.SharedTensor.from_plain(self.ctx, inputs.x, label="dataset/x")
            self.ys = repro.SharedTensor.from_plain(self.ctx, inputs.y, label="dataset/y")
        self.cursor = 0
        self.begin_window()
        self.step()
        self.setup_sim = SimReading.of([self.ctx])

    @property
    def contexts(self):
        return [self.ctx]

    def begin_window(self) -> None:
        self.attempted = self.failed = self.rows = 0
        self.sim_steps: list[SimReading] = []

    def step(self) -> list[float]:
        bs = self.spec.batch
        lo = (self.cursor % TRAIN_BATCHES) * bs
        self.cursor += 1
        before = SimReading.of([self.ctx])
        start = time.perf_counter()
        try:
            self.ctx.begin_batch()
            self.model.train_batch(
                self.xs.row_slice(lo, lo + bs), self.ys.row_slice(lo, lo + bs), LR
            )
        except ReproError:
            self.attempted += 1
            self.failed += 1
            return []
        wall = time.perf_counter() - start
        self.sim_steps.append(SimReading.of([self.ctx]) - before)
        self.attempted += 1
        self.rows += bs
        return [wall]

    def sim_latencies(self) -> list[float]:
        return [s.online_s for s in self.sim_steps]

    def sim_per_step(self) -> tuple[float, float]:
        """Median online seconds and server bytes of one step."""
        return (
            float(np.median([s.online_s for s in self.sim_steps])),
            float(np.median([s.server_bytes for s in self.sim_steps])),
        )

    def check(self) -> Check:
        """Sync a plain twin to the final weights; compare held-out predictions."""
        plain = self.spec.build_plain()
        sync_plain_weights(self.spec.twin, self.model, plain)
        x = self.inputs.holdout
        secure = repro.secure_predict(self.ctx, self.model, x, batch_size=self.spec.batch)
        reference = plain.forward(x, PlainTimer("cpu"), training=False)
        err = float(np.max(np.abs(secure.predictions - reference)))
        return Check(max_abs_err=err, tol=FORWARD_TOL, rows=x.shape[0])


# -- serving --------------------------------------------------------------------


def _recsys(ctx):
    return repro.SecureRecsys(ctx, RECSYS_VOCAB, RECSYS_EMB, n_out=10)


class ServeSession:
    """A two-replica fleet at its defaults under a closed loop of clients.

    Each round, every logical client submits one request and the load
    generator then calls ``fleet.drain()`` as its wait for the replies,
    so a request's latency runs from its submit to the end of the drain
    that answered it.  Set-up is the fleet build plus the first round.
    """

    def __init__(self, spec: "Workload", inputs: list[np.ndarray], tracer=None):
        self.spec = spec
        self.inputs = inputs
        self.tracer = tracer
        self.fleet = repro.api.serve(_recsys, replicas=2, backend=spec.backend)
        self.next_request = 0
        self.request_of: dict[int, int] = {}  # fleet request id -> input index
        self.begin_window()
        self.step()
        self.setup_sim = SimReading.of(self.contexts)

    @property
    def contexts(self):
        return [r.ctx for r in self.fleet.replicas()]

    def begin_window(self) -> None:
        self.attempted = self.failed = self.rows = 0
        self.window_start = len(self.fleet.responses)
        self.window_sim = SimReading.of(self.contexts)
        report = self.fleet.report()
        self.window_batches = report.batches
        self.window_padded = report.padded_rows

    def step(self) -> list[float]:
        submitted: dict[int, float] = {}
        for c in range(SERVE_CLIENTS):
            index = self.next_request % len(self.inputs)
            self.next_request += 1
            self.attempted += 1
            start = time.perf_counter()
            try:
                with _span(self.tracer, "serve.fleet"):
                    rid = self.fleet.submit(f"client{c}", self.inputs[index])
            except QueueFullError:
                self.failed += 1
                continue
            submitted[rid] = start
            self.request_of[rid] = index
        done_before = len(self.fleet.responses)
        try:
            with _span(self.tracer, "serve.fleet"):
                self.fleet.drain()
        except ReproError:
            self.failed += len(submitted)
            return []
        end = time.perf_counter()
        answered = self.fleet.responses[done_before:]
        self.failed += len(submitted) - len(answered)
        self.rows += sum(r.rows for r in answered)
        return [end - submitted[r.fleet_rid] for r in answered]

    def window_responses(self):
        return self.fleet.responses[self.window_start:]

    def sim_latencies(self) -> list[float]:
        """Exact per-request online-clock latencies from the responses."""
        return [r.latency_s for r in self.window_responses()]

    def sim_per_step(self) -> tuple[float, float]:
        """Online makespan and server bytes per answered request."""
        n = max(len(self.window_responses()), 1)
        delta = SimReading.of(self.contexts) - self.window_sim
        return delta.online_s / n, delta.server_bytes / n

    def serve_stats(self) -> dict:
        report = self.fleet.report()
        responses = self.window_responses()
        rows = sum(r.rows for r in responses)
        padded = report.padded_rows - self.window_padded
        return {
            "batches": report.batches - self.window_batches,
            "batch_fill": rows / (rows + padded) if rows + padded else 0.0,
            "sim_queue_wait_s": float(np.mean([r.response.queue_wait_s for r in responses]))
            if responses else 0.0,
            "rerouted": report.rerouted_requests,
            "dropped": report.dropped_requests,
        }

    def check(self) -> Check:
        """Every response against its replica's plain twin on the same rows."""
        twins = {}
        for replica in self.fleet.replicas():
            plain = self.spec.build_plain()
            sync_plain_weights(self.spec.twin, replica.model, plain)
            twins[replica.name] = plain
        timer = PlainTimer("cpu")
        err = 0.0
        rows = 0
        for resp in self.fleet.responses:
            x = self.inputs[self.request_of[resp.fleet_rid]]
            reference = twins[resp.replica].forward(x, timer, training=False)
            err = max(err, float(np.max(np.abs(resp.predictions - reference))))
            rows += x.shape[0]
        return Check(max_abs_err=err, tol=FORWARD_TOL, rows=rows)


# -- workload table ---------------------------------------------------------------


def _mnist_inputs(seed: int, batch: int) -> TrainInputs:
    n = TRAIN_BATCHES * batch
    x, y, _ = make_dataset("MNIST", n + HOLDOUT_ROWS, seed=seed)
    return TrainInputs(x=x[:n], y=y[:n], holdout=x[n:])


def _sequence_inputs(seed: int, batch: int) -> TrainInputs:
    n = TRAIN_BATCHES * batch
    x, y = sequence_dataset(n + HOLDOUT_ROWS, ATTN_SEQ, ATTN_DMODEL, seed=seed)
    return TrainInputs(x=x[:n], y=y[:n], holdout=x[n:])


def _request_stream(seed: int, batch: int) -> list[np.ndarray]:
    """1-4-row one-hot requests over the recsys vocabulary."""
    rng = np.random.default_rng(seed)
    requests = []
    for _ in range(SERVE_POOL):
        rows = int(rng.integers(1, 5))
        x = np.zeros((rows, RECSYS_VOCAB))
        x[np.arange(rows), rng.integers(0, RECSYS_VOCAB, size=rows)] = 1.0
        requests.append(x)
    return requests


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    batch: int
    twin: str  # model name understood by sync_plain_weights
    build_secure: Callable
    build_plain: Callable
    make_inputs: Callable[[int, int], object]
    session_type: type
    #: layers (tracing.LAYERS keys) this workload must exercise
    layers: tuple[str, ...]

    def inputs(self, seed: int):
        return self.make_inputs(seed, self.batch)

    def session(self, inputs, tracer=None):
        return self.session_type(self, inputs, tracer)


_COMMON = ("fixedpoint", "mpc.compare", "comm", "simgpu", "telemetry")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mlp_mnist_train",
            backend="beaver2pc",
            batch=128,
            twin="MLP",
            build_secure=lambda ctx: repro.SecureMLP(ctx, 784),
            build_plain=lambda: PlainMLP(784),
            make_inputs=_mnist_inputs,
            session_type=TrainSession,
            layers=(*_COMMON, "mpc.triplets", "protocols.beaver2pc", "core.dense",
                    "core.activation"),
        ),
        Workload(
            name="attention_rep3_train",
            backend="rep3",
            batch=32,
            twin="attention",
            build_secure=lambda ctx: repro.SecureAttention(ctx, ATTN_SEQ, ATTN_DMODEL, n_out=10),
            build_plain=lambda: PlainAttention(ATTN_SEQ, ATTN_DMODEL, n_out=10),
            make_inputs=_sequence_inputs,
            session_type=TrainSession,
            layers=(*_COMMON, "mpc.softmax", "protocols.rep3", "core.attention", "core.dense"),
        ),
        Workload(
            name="recsys_fleet_serve",
            backend="beaver2pc",
            batch=64,  # the fleet's default max_batch
            twin="recsys",
            build_secure=_recsys,
            build_plain=lambda: PlainRecsys(RECSYS_VOCAB, RECSYS_EMB, n_out=10),
            make_inputs=_request_stream,
            session_type=ServeSession,
            layers=(*_COMMON, "mpc.triplets", "protocols.beaver2pc", "core.embedding",
                    "core.activation", "core.dense", "serve", "comm.csr"),
        ),
    )
}
