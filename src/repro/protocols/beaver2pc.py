"""The paper's 2PC substrate: Beaver-triplet masked multiplication.

This is the framework's default backend, extracted verbatim from the
pre-refactor ``repro.core.ops`` bodies — its transcripts are
bit-identical to the hard-wired implementation it replaced (guarded by
a committed pre-refactor reference transcript in
``tests/data/beaver2pc_mlp_train_transcript.json``).

Two servers hold additive shares; a trusted dealer (the data-owning
client, per the paper) provisions Beaver triplets and GC comparison
bundles in the offline phase.  Multiplication opens the masked
differences ``E = X - U`` / ``F = Y - V`` (Eq. 4-5) through the
delta-compression layer and applies the fused Eq. 8 product on the
placement the profiler picks; truncation is the SecureML share-local
rescale.
"""

from __future__ import annotations

import numpy as np

from repro.comm.wire import RoundCoalescer, blob_frame_sizes
from repro.core import ops as core_ops
from repro.core.ops import _chain, _deps, _set_chain
from repro.core.tensor import SharedTensor
from repro.fixedpoint.ring import ring_add, ring_sub
from repro.fixedpoint.truncation import truncate_share
from repro.mpc.comparison import emulated_ge_const, secure_ge_const
from repro.mpc.protocol import beaver_elementwise_share
from repro.mpc.shares import reconstruct, share_secret
from repro.pipeline.scheduler import StagedGemmOperands, schedule_secure_gemm
from repro.protocols.base import ProtocolBackend
from repro.util.errors import ProtocolError


def _exchange_masked(ctx, label, sides):
    """Eq. 5: exchange the per-server masked differences and combine.

    ``sides`` maps each live side (``"E"``, ``"F"``) to ``(locals_,
    tasks)``: server i's masked difference and the task that produced
    it.  Static mask reuse may cache one side, so one or two are live.
    Every live side of the round rides one framed message per direction
    (a :class:`~repro.comm.wire.RoundCoalescer` packs them), each part
    coded through that direction's
    :class:`~repro.comm.compression.DeltaCompressor` under its own
    stream key (``{label}/E/{src}``).  Returns ``{side: (combined,
    recv_tasks)}``: the public matrix plus, per server, the task after
    which that server holds it.
    """
    names = "".join(sides)
    coalescer = RoundCoalescer(f"{label}/{names}")
    payloads = {}
    for src in (0, 1):
        dst = 1 - src
        payloads[src] = []
        for side, (locals_, _) in sides.items():
            key = f"{label}/{side}/{src}"
            payload = ctx.compressors[(src, dst)].encode(key, locals_[src])
            coalescer.add(f"server{src}", f"server{dst}", key, payload.wire_view())
            payloads[src].append(payload)
    send_tasks = {}
    for frame in coalescer.flush():
        src = int(frame.src.removeprefix("server"))
        dst = 1 - src
        # Sender-side compression scan (cheap, bandwidth bound), one
        # pass over every matrix of the round.
        scan = ctx.server_reconstruct_cpu[src].run(
            ctx.config.cpu_spec.elementwise_seconds(
                sum(locals_[src].nbytes for locals_, _ in sides.values()),
                parallel=ctx.config.cpu_parallel,
            )
            * (0.5 if ctx.config.compression else 0.0),
            deps=_deps(*(tasks[src] for _, tasks in sides.values())),
            label=f"{label}:compress",
        )
        sizes = frame.sizes
        send_tasks[src] = ctx.server_channel.send_framed(
            frame.src, frame.dst, sizes,
            deps=(scan,), label=f"{label}:send{names}", parts=frame.n_parts,
        )
        # Transcript tap: log the masked matrices the receiver can
        # reconstruct (the information content of the wire), not the
        # CSR delta encoding — deltas of truncated shares are
        # legitimately non-uniform, the masked matrices must not be.
        ctx.record_wire(
            frame.src, frame.dst, f"{label}/{names}/{src}",
            tuple(locals_[src] for locals_, _ in sides.values()), nbytes=sizes.nbytes,
        )
        # Receiver replays the compressor state machine for exactness.
        for payload, (locals_, _) in zip(payloads[src], sides.values()):
            decoded = ctx.compressors[(src, dst)].decode(payload)
            if not np.array_equal(decoded, locals_[src]):  # pragma: no cover - invariant
                raise ProtocolError(
                    f"compression round-trip mismatch on stream {payload.key}"
                )
    recv = {side: [] for side in sides}
    for dst in (0, 1):
        src = 1 - dst
        for side, (locals_, tasks) in sides.items():
            recv[side].append(ctx.server_reconstruct_cpu[dst].elementwise(
                ring_add,
                [locals_[dst], locals_[src]],
                deps=_deps(tasks[dst], send_tasks[src]),
                label=f"{label}:combine{side}",
            )[1])
    return {
        side: (ring_add(locals_[0], locals_[1]), recv[side])
        for side, (locals_, _) in sides.items()
    }


class Beaver2PCBackend(ProtocolBackend):
    name = "beaver2pc"
    n_parties = 2
    needs_dealer = True
    compare_parties = (0, 1)

    # --- share algebra ------------------------------------------------------

    def share_secret(self, secret, rng):
        # Returns the classic SharePair (indexable; .share0/.share1 kept
        # for the existing 2-party call sites).
        return share_secret(secret, rng)

    def reconstruct(self, shares):
        return reconstruct(shares[0], shares[1])

    def truncate_values(self, shares, bits):
        return tuple(truncate_share(shares[i], bits, i) for i in (0, 1))

    # --- client upload accounting -------------------------------------------

    def upload_nbytes(self, nbytes):
        return nbytes

    def upload_payloads(self, shares):
        return (shares[0], shares[1])

    # --- interactive protocols ----------------------------------------------

    def truncate(self, ctx, x, *, label):
        """Local-truncation rescale of a double-scale product (both servers)."""
        frac = ctx.encoder.frac_bits
        shares = []
        tasks = []
        for i in (0, 1):
            result, task = ctx.server_cpu[i].elementwise(
                lambda s, i=i: truncate_share(s, frac, i),
                [x.shares[i]],
                deps=_deps(x.tasks[i]),
                label=label,
            )
            shares.append(result)
            tasks.append(task)
        return SharedTensor(ctx=ctx, shares=tuple(shares), kind="fixed", tasks=tuple(tasks))

    def matmul(self, ctx, x, y, m, k, n, both_fixed, *, label, truncate_result):
        # --- offline ---------------------------------------------------------
        triplet = ctx.get_matrix_triplet(label, x.shape, y.shape)

        # --- static-operand mask reuse (config.static_mask_reuse) ------------
        # For a static operand whose mask is unchanged since the last run of
        # this op stream, the combined masked difference is bit-identical —
        # the servers skip the subtract, the transmission and the combine.
        reuse = getattr(ctx, "mask_reuse_enabled", False)
        cached_e = ctx.reuse_masked(label, "E", x, triplet) if reuse else None
        cached_f = ctx.reuse_masked(label, "F", y, triplet) if reuse else None

        # --- reconstruct (online, CPU + network) -----------------------------
        e_locals, e_tasks_local = [], []
        f_locals, f_tasks_local = [], []
        starts = []
        for i in (0, 1):
            start = _chain(ctx, _deps(x.tasks[i], y.tasks[i]))
            starts.append(start)
            if cached_e is None:
                e_i, te = ctx.server_reconstruct_cpu[i].elementwise(
                    ring_sub, [x.shares[i], triplet.u[i]], deps=_deps(x.tasks[i], *start), label=f"{label}:E{i}"
                )
                e_locals.append(e_i)
                e_tasks_local.append(te)
            if cached_f is None:
                f_i, tf = ctx.server_reconstruct_cpu[i].elementwise(
                    ring_sub, [y.shares[i], triplet.v[i]], deps=_deps(y.tasks[i], *start), label=f"{label}:F{i}"
                )
                f_locals.append(f_i)
                f_tasks_local.append(tf)
        sides = {}
        if cached_e is None:
            sides["E"] = (e_locals, e_tasks_local)
        if cached_f is None:
            sides["F"] = (f_locals, f_tasks_local)
        exchanged = _exchange_masked(ctx, label, sides)
        e, e_tasks = exchanged.get("E", (cached_e, [None, None]))
        f, f_tasks = exchanged.get("F", (cached_f, [None, None]))
        if reuse:
            if cached_e is None:
                ctx.store_masked(label, "E", x, triplet, e)
            if cached_f is None:
                ctx.store_masked(label, "F", y, triplet, f)

        # --- GPU operation (online) ------------------------------------------
        decision = ctx.profiler.place_gemm(m, 2 * k, n, operands_on_gpu=False)
        shares = []
        tasks = []
        for i in (0, 1):
            if cached_e is None and cached_f is None:
                ready = _deps(e_tasks[i], f_tasks[i])
            else:
                # A cached side has no exchange tasks; depend directly on the
                # operands (and the serialisation chain) instead.
                ready = _deps(*starts[i], e_tasks[i], f_tasks[i])
            tshare = triplet.share_for(i)
            if decision.placement == "gpu" and ctx.server_gpu[i] is not None:
                staged = None
                if reuse:
                    # Keep this stream's Z share (and, for a static right
                    # operand, the combined F) resident on the server GPU:
                    # re-uploaded only when the triplet or value changes.
                    staged_f = None
                    if y.static:
                        staged_f = ctx.stash_device_buffer(
                            i, f"f/{label}", ("f", y.uid, triplet.uid), f,
                            deps=ready, label=f"{label}:stage:F",
                        )
                    staged_z = ctx.stash_device_buffer(
                        i, f"z/{label}", ("z", triplet.uid), tshare.z,
                        deps=ready, label=f"{label}:stage:Z",
                    )
                    staged = StagedGemmOperands(f=staged_f, z=staged_z)
                result = schedule_secure_gemm(
                    ctx.server_gpu[i],
                    i,
                    e,
                    f,
                    x.shares[i],
                    y.shares[i],
                    tshare,
                    deps=ready,
                    pipeline=ctx.config.pipeline1,
                    staged=staged,
                )
                shares.append(result.c_share)
                tasks.append(result.done)
            else:
                tshare.mark_consumed()
                lead = x.shares[i] if i == 0 else ring_sub(x.shares[i], e)
                left = np.concatenate([lead, e], axis=1)
                right = np.concatenate([f, y.shares[i]], axis=0)
                prod, tg = ctx.server_cpu[i].gemm_ring(left, right, deps=ready, label=f"{label}:cpu_gemm")
                c_i, tc = ctx.server_cpu[i].elementwise(
                    ring_add, [prod, tshare.z], deps=(tg,), label=f"{label}:+Z"
                )
                shares.append(c_i)
                tasks.append(tc)
        _set_chain(ctx, tasks)
        out = SharedTensor(ctx=ctx, shares=tuple(shares), kind="fixed", tasks=tuple(tasks))
        if both_fixed and truncate_result:
            out = core_ops.truncate(out, label=f"{label}:trunc")
        elif not both_fixed:
            # fixed x indicator (or indicator x fixed) stays at single scale.
            out.kind = "fixed" if (x.kind == "fixed" or y.kind == "fixed") else "indicator"
        return out

    def elementwise_mul(self, ctx, x, y, *, label):
        triplet = ctx.get_elementwise_triplet(label, x.shape)

        e_locals, e_tasks_local = [], []
        f_locals, f_tasks_local = [], []
        for i in (0, 1):
            start = _chain(ctx, _deps(x.tasks[i], y.tasks[i]))
            e_i, te = ctx.server_reconstruct_cpu[i].elementwise(
                ring_sub, [x.shares[i], triplet.u[i]], deps=start, label=f"{label}:E{i}"
            )
            f_i, tf = ctx.server_reconstruct_cpu[i].elementwise(
                ring_sub, [y.shares[i], triplet.v[i]], deps=start, label=f"{label}:F{i}"
            )
            e_locals.append(e_i)
            f_locals.append(f_i)
            e_tasks_local.append(te)
            f_tasks_local.append(tf)
        flat = lambda a: a.reshape(a.shape[0], -1) if a.ndim != 2 else a  # noqa: E731
        exchanged = _exchange_masked(ctx, label, {
            "E": ([flat(v) for v in e_locals], e_tasks_local),
            "F": ([flat(v) for v in f_locals], f_tasks_local),
        })
        e, e_tasks = exchanged["E"]
        f, f_tasks = exchanged["F"]
        e = e.reshape(x.shape)
        f = f.reshape(x.shape)

        nbytes = x.nbytes
        decision = ctx.profiler.place_elementwise(4 * nbytes, operands_on_gpu=False)
        shares, tasks = [], []
        for i in (0, 1):
            ready = _deps(e_tasks[i], f_tasks[i])
            tshare = triplet.share_for(i)
            compute = lambda i=i, tshare=tshare: beaver_elementwise_share(
                i, e, f, x.shares[i], y.shares[i], tshare
            )
            if decision.placement == "gpu" and ctx.server_gpu[i] is not None:
                gpu = ctx.server_gpu[i]
                bufs = []
                tdeps = list(ready)
                for arr, nm in ((e, "E"), (f, "F"), (x.shares[i], "A"), (y.shares[i], "B")):
                    buf, tt = gpu.h2d(arr, deps=ready, label=f"{label}:h2d:{nm}")
                    bufs.append(buf)
                    tdeps.append(tt)
                c_i = compute()
                out_buf = gpu.pool.allocate(c_i)
                tk = gpu.clock.run(
                    gpu.stream(0),
                    gpu.spec.elementwise_seconds(5 * nbytes),
                    deps=tuple(tdeps),
                    label=f"{label}:kernel",
                )
                _, tout = gpu.d2h(out_buf, deps=(tk,), label=f"{label}:d2h")
                for b in bufs + [out_buf]:
                    gpu.free(b)
                shares.append(c_i)
                tasks.append(tout)
            else:
                c_i = compute()
                tk = ctx.server_cpu[i].run(
                    ctx.config.cpu_spec.elementwise_seconds(
                        5 * nbytes, parallel=ctx.config.cpu_parallel
                    ),
                    deps=ready,
                    label=f"{label}:cpu",
                )
                shares.append(c_i)
                tasks.append(tk)
        _set_chain(ctx, tasks)
        out = SharedTensor(ctx=ctx, shares=tuple(shares), kind="fixed", tasks=tuple(tasks))
        if x.kind == "fixed" and y.kind == "fixed":
            out = core_ops.truncate(out, label=f"{label}:trunc")
        elif x.kind == "indicator" and y.kind == "indicator":
            out.kind = "indicator"
        return out

    def compare_const(self, ctx, x, threshold, *, label):
        c_enc = int(ctx.encoder.encode(np.float64(threshold)))
        bundle = ctx.gen_comparison_bundle(x.shape, label=label)
        if bundle is not None:
            res = secure_ge_const(x.shares[0], x.shares[1], c_enc, bundle)
        else:
            # Resharing randomness is keyed by the op-stream label (not an
            # advancing counter) so checkpoint replay redraws identical
            # shares — truncation rounding is share-dependent, so replay
            # bit-identity needs stable shares, not just stable plaintexts.
            if ctx.config.fresh_triplets:
                seed_label = f"cmp-{ctx.comparisons_issued}"
            else:
                seed_label = f"cmp/{label}"
            res = emulated_ge_const(
                x.shares[0], x.shares[1], c_enc, ctx.seeds.generator(seed_label)
            )

        # Online cost: ~70 vectorised bit-ops per element on each server CPU,
        # plus the round traffic (one 8-byte opening + 62 bit rounds + B2A).
        n = int(np.prod(x.shape))
        start = _chain(ctx, _deps(*x.tasks))
        cpu_tasks = [
            ctx.server_cpu[i].run(
                ctx.config.cpu_spec.elementwise_seconds(70 * n, parallel=ctx.config.cpu_parallel),
                deps=_deps(x.tasks[i], *start),
                label=f"{label}:gmw",
            )
            for i in (0, 1)
        ]
        half = res.online_bytes // 2
        extra_latency = (res.rounds - 1) * ctx.config.server_link.latency_s
        net_tasks = []
        for src in (0, 1):
            # The bit rounds are costed in aggregate, so frame them as
            # one opaque blob: header once, body = the aggregate bytes.
            sizes = blob_frame_sizes(f"{label}:rounds", half)
            t = ctx.server_channel.send_framed(
                f"server{src}", f"server{1 - src}", sizes,
                deps=(cpu_tasks[src],), label=f"{label}:rounds",
            )
            # Size-only transcript record: the GMW bit rounds are costed in
            # aggregate, their per-round content is not materialized here.
            ctx.record_wire(
                f"server{src}", f"server{1 - src}", f"{label}:rounds", nbytes=sizes.nbytes
            )
            t2 = ctx.online_clock.run(
                f"link.server{src}->server{1 - src}", extra_latency, deps=(t,), label=f"{label}:latency"
            )
            net_tasks.append(t2)
        tasks = tuple(
            ctx.online_clock.join([cpu_tasks[i], net_tasks[1 - i]]) for i in (0, 1)
        )
        _set_chain(ctx, tasks)
        return SharedTensor(
            ctx=ctx, shares=(res.share0, res.share1), kind="indicator", tasks=tasks
        )
