"""Background Beaver-triplet pool — batched offline provisioning.

The paper's offline phase generates one triplet per secure product, each
paying its own mask draw, its own ``Z = U x V`` product, and its own
client->server upload.  Those per-triplet fixed costs (curand setup,
kernel launches, PCIe and channel latency) dominate for the small
matrices real layers produce.  :class:`TripletPool` amortises them:
demand for many same-shaped triplets is collected into *requests*,
generated in fused batches — one stacked ``(B,m,k) x (B,k,n)`` ring GEMM
and one vectorised mask draw per refill chunk — and handed out one at a
time as the online phase consumes them.

The pool is deliberately passive: it owns no RNG, no devices and no
clocks.  The :class:`~repro.core.context.SecureContext` injects its one
dealer — ``gen_matrix_triplet`` / ``gen_elementwise_triplet``, which
charge the offline clock, route the fused GEMM through the simulated
GPU, and upload the whole chunk in one message — and calls
:meth:`provision` from a model's ``offline_plan``, so refills run on the
offline clock, overlapping the online phase by construction of the
two-clock simulation.

Telemetry (registered on the injected registry):

* ``mpc.pool.hits`` / ``mpc.pool.misses`` — counters, labelled by kind;
  a miss means the consumer asked the dealer for a batch of one.
* ``mpc.pool.refills`` — counter of fused generation calls.
* ``mpc.pool.stocked`` — gauge of triplets currently banked.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.mpc.triplets import ElementwiseTriplet, MatrixTriplet
from repro.telemetry.registry import MetricRegistry
from repro.util.errors import ConfigError, ShapeError

MatrixKey = tuple[tuple[int, int], tuple[int, int]]
ElementwiseKey = tuple[int, ...]


@dataclass(frozen=True)
class TripletRequest:
    """One op stream's demand for a single Beaver triplet.

    ``kind`` is ``"matrix"`` (shapes = (shape_a, shape_b)) or
    ``"elementwise"`` (shapes = (shape,)).  Models emit a list of these
    from ``offline_plan`` — the exact per-step triplet demand.
    """

    kind: str
    shapes: tuple

    def __post_init__(self):
        if self.kind not in ("matrix", "elementwise"):
            raise ConfigError(f"unknown triplet request kind: {self.kind!r}")


def matmul_stream(shape_a: tuple[int, int], shape_b: tuple[int, int]) -> TripletRequest:
    """Demand one matrix triplet for an (m,k) x (k,n) product."""
    if len(shape_a) != 2 or len(shape_b) != 2 or shape_a[1] != shape_b[0]:
        raise ShapeError(f"matmul_stream shapes incompatible: {shape_a} x {shape_b}")
    return TripletRequest(kind="matrix", shapes=(tuple(shape_a), tuple(shape_b)))


def hadamard_stream(shape: tuple[int, ...]) -> TripletRequest:
    """Demand one elementwise triplet of the given shape."""
    return TripletRequest(kind="elementwise", shapes=(tuple(shape),))


class TripletPool:
    """Shape-keyed bank of pre-generated triplets with fused refills.

    Parameters
    ----------
    generate_matrix_batch:
        ``(shape_a, shape_b, count) -> list[MatrixTriplet]`` — must
        produce ``count`` independent triplets in one fused pass.
    generate_elementwise_batch:
        ``(shape, count) -> list[ElementwiseTriplet]`` — likewise.
    max_batch:
        Upper bound on the fused batch size (the ``--pool-size`` knob);
        demand beyond it is generated in multiple chunks.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` for the pool
        counters; a private registry is used when omitted.
    """

    def __init__(
        self,
        generate_matrix_batch: Callable[[tuple, tuple, int], list[MatrixTriplet]],
        generate_elementwise_batch: Callable[[tuple, int], list[ElementwiseTriplet]],
        *,
        max_batch: int,
        telemetry=None,
    ):
        if max_batch < 1:
            raise ConfigError(f"pool max_batch must be >= 1, got {max_batch}")
        self._gen_matrix = generate_matrix_batch
        self._gen_elementwise = generate_elementwise_batch
        self.max_batch = int(max_batch)
        registry = telemetry.registry if telemetry is not None else MetricRegistry()
        self._hits = registry.counter("mpc.pool.hits", "triplet requests served from the pool")
        self._misses = registry.counter(
            "mpc.pool.misses", "triplet requests the dealer served as a batch of one"
        )
        self._refills = registry.counter("mpc.pool.refills", "fused batch generation calls")
        self._stocked = registry.gauge("mpc.pool.stocked", "triplets currently banked in the pool")
        self._matrix: dict[MatrixKey, deque[MatrixTriplet]] = {}
        self._elementwise: dict[ElementwiseKey, deque[ElementwiseTriplet]] = {}

    # -- provisioning -----------------------------------------------------------

    def provision(self, requests: Sequence[TripletRequest]) -> int:
        """Generate triplets for ``requests`` in fused, shape-grouped batches.

        Demand is grouped by (kind, shape signature) and each group is
        generated in chunks of at most :attr:`max_batch` — every chunk is
        one fused mask draw + one batched ring GEMM + one upload on the
        generator side.  Returns the number of triplets banked.
        """
        demand: dict[tuple, int] = {}
        for req in requests:
            key = (req.kind, req.shapes)
            demand[key] = demand.get(key, 0) + 1
        return self.provision_demand(demand)

    def provision_demand(self, demand: Mapping[tuple, int]) -> int:
        """Generate triplets for pre-aggregated demand counts.

        The multi-consumer entry point: a coordinator (e.g. the fleet's
        :class:`~repro.serve.dealer.DealerService`) that has already
        merged many consumers' ``offline_plan`` requests into
        ``{(kind, shapes): count}`` maps provisions here directly,
        without materialising one :class:`TripletRequest` per triplet.
        Fusing is identical to :meth:`provision`.
        """
        banked = 0
        for (kind, shapes), count in demand.items():
            remaining = count
            while remaining > 0:
                chunk = min(remaining, self.max_batch)
                if kind == "matrix":
                    shape_a, shape_b = shapes
                    triplets = self._gen_matrix(shape_a, shape_b, chunk)
                    bucket = self._matrix.setdefault((shape_a, shape_b), deque())
                else:
                    (shape,) = shapes
                    triplets = self._gen_elementwise(shape, chunk)
                    bucket = self._elementwise.setdefault(shape, deque())
                if len(triplets) != chunk:
                    raise ConfigError(
                        f"pool generator returned {len(triplets)} triplets, expected {chunk}"
                    )
                bucket.extend(triplets)
                self._refills.inc(1, kind=kind)
                banked += chunk
                remaining -= chunk
        self._update_stock()
        return banked

    # -- consumption ------------------------------------------------------------

    def take_matrix(
        self, shape_a: tuple[int, int], shape_b: tuple[int, int]
    ) -> MatrixTriplet | None:
        """Pop a banked matrix triplet, or ``None`` on pool exhaustion."""
        bucket = self._matrix.get((tuple(shape_a), tuple(shape_b)))
        if not bucket:
            self._misses.inc(1, kind="matrix")
            return None
        triplet = bucket.popleft()
        self._hits.inc(1, kind="matrix")
        self._update_stock()
        return triplet

    def take_elementwise(self, shape: tuple[int, ...]) -> ElementwiseTriplet | None:
        """Pop a banked elementwise triplet, or ``None`` on pool exhaustion."""
        bucket = self._elementwise.get(tuple(shape))
        if not bucket:
            self._misses.inc(1, kind="elementwise")
            return None
        triplet = bucket.popleft()
        self._hits.inc(1, kind="elementwise")
        self._update_stock()
        return triplet

    # -- introspection ----------------------------------------------------------

    def stock_for(self, kind: str, shapes: tuple) -> int:
        """Triplets currently banked for one (kind, shapes) signature.

        Coordinators use this to top up only the shortfall between a
        consumer's declared demand and what is already banked.
        """
        if kind == "matrix":
            shape_a, shape_b = shapes
            bucket = self._matrix.get((tuple(shape_a), tuple(shape_b)))
        else:
            (shape,) = shapes
            bucket = self._elementwise.get(tuple(shape))
        return len(bucket) if bucket else 0

    def stock(self) -> int:
        """Total triplets currently banked, across every shape."""
        return sum(len(d) for d in self._matrix.values()) + sum(
            len(d) for d in self._elementwise.values()
        )

    def _update_stock(self) -> None:
        self._stocked.set(self.stock())
