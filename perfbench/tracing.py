"""Per-layer wall attribution for the traced benchmark run.

The traced run patches the public entry points of each ``repro`` layer
with wrappers defined here; the program itself records nothing extra.
Every wrapper call is a span (name, start, end, parent span, step id)
kept in memory and written as a Chrome trace when the run ends.  A
span's self time is its duration minus the time its child spans cover;
a name's inclusive time counts only its outermost calls, so re-entrant
calls are not counted twice.

A function entry point is patched at every site that binds it: each
``repro`` module global holding it, and each default argument of a
``repro`` function or method.  Methods are patched on their class.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

_now = time.perf_counter

#: Span names each layer's calls are counted under (coverage check).
LAYERS: dict[str, tuple[str, ...]] = {
    "fixedpoint": ("fixedpoint.ring_matmul", "fixedpoint.ring_elementwise"),
    "mpc.compare": ("mpc.compare.online", "mpc.compare.dealer"),
    "mpc.triplets": ("mpc.triplets.gen",),
    "mpc.softmax": ("mpc.softmax",),
    "protocols.beaver2pc": tuple(
        f"protocols.beaver2pc.{op}" for op in ("matmul", "mul", "compare_const", "truncate")
    ),
    "protocols.rep3": tuple(
        f"protocols.rep3.{op}" for op in ("matmul", "mul", "compare_const", "truncate")
    ),
    "comm": ("comm.send", "comm.encode"),
    "comm.csr": ("comm.csr_hit",),
    "simgpu": ("simgpu.clock.run", "simgpu.clock.join", "simgpu.clock.advance", "simgpu.device"),
    "telemetry": ("telemetry.inc", "telemetry.set", "telemetry.observe", "telemetry.span"),
    "core.dense": ("core.dense.fwd", "core.dense.bwd"),
    "core.activation": ("core.activation.fwd", "core.activation.bwd"),
    "core.attention": ("core.attention.fwd", "core.attention.bwd"),
    "core.embedding": ("core.embedding.fwd", "core.embedding.bwd"),
    "serve": ("serve.fleet", "serve.secure_batch", "serve.dealer_provision"),
}

#: Modules that import ``ring_matmul`` by name; each must be patched.
RING_MATMUL_SITES = (
    "repro.core.context",
    "repro.simgpu.device",
    "repro.mpc.triplets",
    "repro.mpc.protocol",
)


class CoverageError(RuntimeError):
    """A layer the workload must exercise recorded no calls."""


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        #: span name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: extra per-call counts (MACs, compared elements, bytes, ...)
        self.counts: dict[str, float] = {}
        #: (name, start, end, parent index, step) for the Chrome trace
        self.spans: list = []
        self.dropped_spans = 0
        self.step = "setup"
        #: (span log, first index, end index, layer key) per model-layer call
        self.layer_calls: list = []
        self.sites: dict[str, list[str]] = {}
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._undo: list[tuple] = []
        self._origin = _now()

    # -- recording ----------------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _enter(self, name: str) -> list:
        self._open[name] = self._open.get(name, 0) + 1
        index = -1
        if len(self.spans) < self.max_spans:
            index = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped_spans += 1
        frame = [0.0, index, 0.0]
        self._stack.append(frame)
        frame[2] = _now()
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = _now()
        child_s, index, start = frame
        self._stack.pop()
        duration = end - start
        depth = self._open[name] - 1
        self._open[name] = depth
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        if depth == 0:
            stat[1] += duration
        stat[2] += duration - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[0] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, parent[1] if parent else -1, self.step)

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, frame)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(tracer, args, out)`` counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, out)
                return out
            finally:
                tracer._exit(name, frame)

        return traced

    # -- patching -----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Patch ``module.attr`` at every ``repro`` site that binds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, after)
        sites = self.sites.setdefault(f"{module.__name__}.{attr}", [])
        for mod in [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "repro"]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)
                    sites.append(mod.__name__)
            for fn in _functions_defined_in(mod):
                for slot in ("__defaults__", "__kwdefaults__"):
                    defaults = getattr(fn, slot)
                    if isinstance(defaults, tuple) and any(d is original for d in defaults):
                        self._set(fn, slot, tuple(traced if d is original else d for d in defaults))
                    elif isinstance(defaults, dict) and any(d is original for d in defaults.values()):
                        self._set(fn, slot, {k: traced if d is original else d
                                             for k, d in defaults.items()})
                    else:
                        continue
                    sites.append(f"{mod.__name__}:{fn.__qualname__}")

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], after))

    def patch_span_method(self, cls, attr: str, name: str) -> None:
        """A context-manager factory: time its creation, entry and exit."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return _TracedContext(tracer, original(*args, **kwargs))

        self._set(cls, attr, traced)

    def patch_layer(self, cls, key: str) -> None:
        """Model layer ``forward``/``backward``; notes the op spans each call made."""
        for attr, direction in (("forward", "fwd"), ("backward", "bwd")):
            original = cls.__dict__[attr]
            name = f"core.{key}.{direction}"
            tracer = self

            def traced(layer, *args, _original=original, _name=name, **kwargs):
                log = layer.ctx.telemetry.span_log
                first = len(log)
                with tracer.span(_name):
                    out = _original(layer, *args, **kwargs)
                tracer.layer_calls.append((log, first, len(log), key, tracer.step))
                return out

            self._set(cls, attr, functools.wraps(original)(traced))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- read-out -----------------------------------------------------------------

    def snapshot(self) -> tuple[dict, dict]:
        return ({k: list(v) for k, v in self.stats.items()}, dict(self.counts))

    def layer_sim_seconds(self, *, skip_step: str = "setup") -> dict[str, float]:
        """Online sim seconds per model layer, from the program's ``op.*`` spans.

        Sums the outermost ``op.<label>`` spans each traced layer call
        opened (those whose parent span started before the call).
        """
        out: dict[str, float] = {}
        for log, first, end, key, step in self.layer_calls:
            if step == skip_step:
                continue
            spans = log._spans
            total = 0.0
            for record in spans[first:end]:
                if record.name.startswith("op.") and (
                    record.parent is None or record.parent < first
                ):
                    total += record.sim_duration
            out[key] = out.get(key, 0.0) + total
        return out

    def check_coverage(self, layers) -> None:
        missing = [
            layer for layer in layers
            if sum(self.stats.get(n, (0,))[0] + self.counts.get(n, 0) for n in LAYERS[layer]) == 0
        ]
        if missing:
            raise CoverageError(f"layers recorded no calls: {', '.join(missing)}")
        bound = set(self.sites.get("repro.fixedpoint.ring.ring_matmul", ()))
        unpatched = [m for m in RING_MATMUL_SITES if m not in bound]
        if unpatched:
            raise CoverageError(f"ring_matmul not patched in: {', '.join(unpatched)}")

    def write_chrome_trace(self, path: Path) -> Path:
        events = []
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, step = span
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - self._origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": index, "parent": parent, "step": step},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events,
            "otherData": {"dropped_spans": self.dropped_spans},
        }))
        return path


class _TracedContext:
    """Times a wrapped context manager's entry and exit as telemetry work."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __enter__(self):
        with self._tracer.span("telemetry.span_edge"):
            return self._inner.__enter__()

    def __exit__(self, *exc):
        with self._tracer.span("telemetry.span_edge"):
            return self._inner.__exit__(*exc)


def _functions_defined_in(module):
    """Module-level functions and class methods defined in ``module``."""
    for value in list(vars(module).values()):
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            yield value
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for member in vars(value).values():
                fn = getattr(member, "__func__", member)
                if inspect.isfunction(fn):
                    yield fn


# -- the patch table ----------------------------------------------------------------


def _count_macs(tracer, args, out) -> None:
    a, b = args[0], args[1]
    batch = a.shape[0] if a.ndim == 3 else 1
    tracer.count("fixedpoint.macs", batch * a.shape[-2] * a.shape[-1] * b.shape[-1])


def _count_compare(tracer, args, out) -> None:
    tracer.count("mpc.compare.elements", args[0].size)
    tracer.count("mpc.compare.rounds", out.rounds)


def _count_triplet(tracer, args, out) -> None:
    tracer.count("mpc.triplets.generated")


def _count_encode(tracer, args, out) -> None:
    tracer.count("comm.raw_bytes", out.raw_bytes)
    tracer.count("comm.wire_bytes", out.wire_bytes)
    if out.kind == "csr_delta":
        tracer.count("comm.csr_hit")


def install(tracer: Tracer) -> None:
    """Patch every layer entry point the per-layer metrics read."""
    from repro.comm.channel import Channel
    from repro.comm.compression import DeltaCompressor
    from repro.core import inference
    from repro.core.attention import SecureAttentionBlock
    from repro.core.context import SecureContext
    from repro.core.layers import SecureActivation, SecureDense
    from repro.core.recsys import SecureEmbedding
    from repro.fixedpoint import ring, truncation
    from repro.mpc import comparison, softmax
    from repro.protocols.beaver2pc import Beaver2PCBackend
    from repro.protocols.rep3 import Rep3Backend
    from repro.serve.dealer import DealerService
    from repro.simgpu.clock import SimClock
    from repro.simgpu.device import SimCPU, SimGPU
    from repro.telemetry.core import Telemetry
    from repro.telemetry.registry import Counter, Gauge, Histogram

    tracer.patch_function(ring, "ring_matmul", "fixedpoint.ring_matmul", _count_macs)
    tracer.patch_function(ring, "ring_matmul_batched", "fixedpoint.ring_matmul", _count_macs)
    for fn in ("ring_add", "ring_sub", "ring_neg", "ring_mul", "ring_sum"):
        tracer.patch_function(ring, fn, "fixedpoint.ring_elementwise")
    tracer.patch_function(truncation, "truncate_share", "fixedpoint.ring_elementwise")

    tracer.patch_function(comparison, "secure_ge_const", "mpc.compare.online", _count_compare)
    tracer.patch_method(SecureContext, "gen_comparison_bundle", "mpc.compare.dealer")
    for attr in ("gen_matrix_triplet", "gen_elementwise_triplet"):
        tracer.patch_method(SecureContext, attr, "mpc.triplets.gen", _count_triplet)
    tracer.patch_function(softmax, "softmax_protocol", "mpc.softmax")

    for backend, cls in (("beaver2pc", Beaver2PCBackend), ("rep3", Rep3Backend)):
        for attr, op in (("matmul", "matmul"), ("elementwise_mul", "mul"),
                         ("compare_const", "compare_const"), ("truncate", "truncate")):
            tracer.patch_method(cls, attr, f"protocols.{backend}.{op}")

    tracer.patch_method(Channel, "send", "comm.send")
    tracer.patch_method(DeltaCompressor, "encode", "comm.encode", _count_encode)

    tracer.patch_method(SimClock, "run", "simgpu.clock.run")
    tracer.patch_method(SimClock, "join", "simgpu.clock.join")
    tracer.patch_method(SimClock, "advance_all", "simgpu.clock.advance")
    for attr in ("h2d", "d2h", "gemm_ring", "gemm_ring_batched", "gemm_float",
                 "elementwise", "curand_uniform_ring"):
        tracer.patch_method(SimGPU, attr, "simgpu.device")
    for attr in ("run", "gemm_ring", "gemm_float", "elementwise", "rng_uniform_ring"):
        tracer.patch_method(SimCPU, attr, "simgpu.device")

    tracer.patch_method(Counter, "inc", "telemetry.inc")
    tracer.patch_method(Gauge, "set", "telemetry.set")
    tracer.patch_method(Histogram, "observe", "telemetry.observe")
    tracer.patch_span_method(Telemetry, "span", "telemetry.span")

    tracer.patch_layer(SecureDense, "dense")
    tracer.patch_layer(SecureActivation, "activation")
    tracer.patch_layer(SecureAttentionBlock, "attention")
    tracer.patch_layer(SecureEmbedding, "embedding")

    tracer.patch_function(inference, "run_secure_batch", "serve.secure_batch")
    tracer.patch_method(DealerService, "provision", "serve.dealer_provision")


# -- per-layer metrics ------------------------------------------------------------------

#: name -> unit of every per-layer metric (BENCHMARK.json lists the same set).
PER_LAYER_UNITS: dict[str, str] = {
    "fixedpoint.ring_matmul.calls": "1/step",
    "fixedpoint.ring_matmul.ms": "ms/step",
    "fixedpoint.ring_matmul.macs": "MAC/step",
    "fixedpoint.ring_elementwise.ms": "ms/step",
    "mpc.compare.online_ms": "ms/step",
    "mpc.compare.dealer_ms": "ms/step",
    "mpc.compare.elements": "1/step",
    "mpc.compare.rounds": "1/step",
    "mpc.triplets.gen_ms": "ms",
    "mpc.triplets.generated": "count",
    "mpc.softmax.ms": "ms/step",
    **{
        f"protocols.{backend}.{op}.{kind}": unit
        for backend in ("beaver2pc", "rep3")
        for op in ("matmul", "mul", "compare_const", "truncate")
        for kind, unit in (("self_ms", "ms/step"), ("calls", "1/step"))
    },
    "comm.messages_per_step": "1/step",
    "comm.raw_bytes": "B/step",
    "comm.wire_bytes": "B/step",
    "comm.encode_ms": "ms/step",
    "comm.csr_hit_ratio": "ratio",
    "simgpu.tasks_per_step": "1/step",
    "simgpu.clock_ms": "ms/step",
    "simgpu.device_ms": "ms/step",
    "telemetry.calls_per_step": "1/step",
    "telemetry.ms": "ms/step",
    **{
        f"core.{layer}.{d}_ms": "ms/step"
        for layer in ("dense", "activation", "attention", "embedding")
        for d in ("fwd", "bwd")
    },
    "core.share_dataset_ms": "ms",
    **{
        f"sim.{layer}.online_ms": "sim_ms/step"
        for layer in ("dense", "activation", "attention", "embedding")
    },
    "serve.self_ms_per_request": "ms/step",
    "serve.batch_fill": "ratio",
    "serve.batches": "1/step",
    "serve.sim_queue_wait_ms": "sim_ms",
    "serve.dealer_provision_ms": "ms",
    "serve.rerouted": "count",
    "serve.dropped": "count",
    "calib.dgemm_gflops": "GFLOP/s",
    "trace.overhead_share": "share",
    "pred_max_abs_err": "abs",
}


def per_layer_metrics(tracer: Tracer, setup: tuple[dict, dict], steps: int,
                      serve_stats: dict | None) -> dict[str, float]:
    """Per-step layer figures over the traced window; set-up figures as totals.

    ``setup`` is :meth:`Tracer.snapshot` taken when the traced set-up
    ended; ``steps`` is the number of steps the traced window completed.
    """
    setup_stats, setup_counts = setup
    n = max(steps, 1)

    def window(name: str, field: int) -> float:
        return tracer.stats.get(name, (0, 0.0, 0.0))[field] - setup_stats.get(
            name, (0, 0.0, 0.0))[field]

    def calls(*names):
        return sum(window(x, 0) for x in names) / n

    def incl_ms(*names):
        return sum(window(x, 1) for x in names) * 1e3 / n

    def self_ms(*names):
        return sum(window(x, 2) for x in names) * 1e3 / n

    def counted(key):
        return (tracer.counts.get(key, 0) - setup_counts.get(key, 0)) / n

    def setup_ms(name):
        return setup_stats.get(name, (0, 0.0, 0.0))[1] * 1e3

    m = {
        "fixedpoint.ring_matmul.calls": calls("fixedpoint.ring_matmul"),
        "fixedpoint.ring_matmul.ms": self_ms("fixedpoint.ring_matmul"),
        "fixedpoint.ring_matmul.macs": counted("fixedpoint.macs"),
        "fixedpoint.ring_elementwise.ms": self_ms("fixedpoint.ring_elementwise"),
        "mpc.compare.online_ms": incl_ms("mpc.compare.online"),
        "mpc.compare.dealer_ms": incl_ms("mpc.compare.dealer"),
        "mpc.compare.elements": counted("mpc.compare.elements"),
        "mpc.compare.rounds": counted("mpc.compare.rounds"),
        "mpc.triplets.gen_ms": setup_ms("mpc.triplets.gen"),
        "mpc.triplets.generated": setup_counts.get("mpc.triplets.generated", 0),
        "mpc.softmax.ms": incl_ms("mpc.softmax"),
    }
    for backend in ("beaver2pc", "rep3"):
        for op in ("matmul", "mul", "compare_const", "truncate"):
            name = f"protocols.{backend}.{op}"
            m[f"{name}.self_ms"] = self_ms(name)
            m[f"{name}.calls"] = calls(name)
    encodes = window("comm.encode", 0)
    m.update({
        "comm.messages_per_step": calls("comm.send"),
        "comm.raw_bytes": counted("comm.raw_bytes"),
        "comm.wire_bytes": counted("comm.wire_bytes"),
        "comm.encode_ms": self_ms("comm.encode"),
        "comm.csr_hit_ratio": counted("comm.csr_hit") * n / encodes if encodes else 0.0,
        "simgpu.tasks_per_step": calls("simgpu.clock.run"),
        "simgpu.clock_ms": self_ms("simgpu.clock.run", "simgpu.clock.join", "simgpu.clock.advance"),
        "simgpu.device_ms": self_ms("simgpu.device"),
        "telemetry.calls_per_step": calls(*LAYERS["telemetry"]),
        "telemetry.ms": self_ms(*LAYERS["telemetry"], "telemetry.span_edge"),
    })
    for layer in ("dense", "activation", "attention", "embedding"):
        for d in ("fwd", "bwd"):
            m[f"core.{layer}.{d}_ms"] = incl_ms(f"core.{layer}.{d}")
    m["core.share_dataset_ms"] = setup_ms("core.share_dataset")
    sim = tracer.layer_sim_seconds()
    for layer in ("dense", "activation", "attention", "embedding"):
        m[f"sim.{layer}.online_ms"] = sim.get(layer, 0.0) * 1e3 / n
    stats = serve_stats or {}
    m.update({
        "serve.self_ms_per_request": (incl_ms("serve.fleet") - incl_ms("serve.secure_batch"))
        if serve_stats else 0.0,
        "serve.batch_fill": stats.get("batch_fill", 0.0),
        "serve.batches": stats.get("batches", 0) / n,
        "serve.sim_queue_wait_ms": stats.get("sim_queue_wait_s", 0.0) * 1e3,
        "serve.dealer_provision_ms": setup_ms("serve.dealer_provision"),
        "serve.rerouted": stats.get("rerouted", 0),
        "serve.dropped": stats.get("dropped", 0),
    })
    return m
