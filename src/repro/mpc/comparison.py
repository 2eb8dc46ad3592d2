"""Dealer-assisted secure comparison over additively shared values.

The paper's activation (Eq. 9) is piecewise linear with breakpoints at
±1/2; evaluating it on a secret-shared ``x`` needs secure comparisons.
SecureML switches to Yao garbled circuits for this; ParSecureML inherits
the approach without detailing it.  This module implements a
*dealer-assisted* comparison instead, in the same client-as-dealer
model the paper's offline phase already uses.

Protocol (semi-honest, trusted-dealer / commodity model)
---------------------------------------------------------
Goal: arithmetic shares of the indicator ``[x >= c]`` for public ``c``,
where ``y = x - c`` is additively shared and ``|y| < 2^62``.

Offline, the dealer distributes for each comparison:

* additive shares of a uniform mask ``r``;
* XOR shares of the 64 bits of ``r``;
* Beaver *bit* triplets (XOR-shared ``u, v, w = u AND v``) for the AND
  gates below;
* a random bit ``b`` shared both XOR- and arithmetically (for B2A).

Online:

1. the servers open ``m = y + r`` (one round; ``m`` is uniform, so it
   leaks nothing);
2. the sign bit of ``y = m - r (mod 2^64)`` is computed with a binary
   ripple-borrow subtraction circuit evaluated GMW-style on the XOR
   shares of ``r``'s bits.  Because ``m`` is *public*, the generate and
   propagate bits ``g_k = NOT m_k AND r_k`` and ``p_k = NOT (m_k XOR
   r_k)`` are linear in the shares (local); only the recurrence
   ``borrow_{k+1} = g_k XOR (p_k AND borrow_k)`` needs one secure AND
   per bit position (63 vectorised AND rounds for 64-bit values);
3. ``[y >= 0] = NOT sign = 1 XOR m_63 XOR r_63 XOR borrow_63`` on XOR
   shares;
4. B2A: open ``t = s XOR b`` (public bit), then the arithmetic share is
   ``t + (1 - 2t) * [b]_arith`` — local given the precomputed ``b``.

Everything is vectorised over the element array, so the 63 AND rounds
cost 63 small messages regardless of matrix size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fixedpoint.ring import RING_DTYPE, ring_add, ring_mul, ring_sub
from repro.mpc.shares import SharePair, reconstruct, share_secret
from repro.util.errors import ProtocolError, ShapeError

_BITS = 64


def _xor_share_bits(bits: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """XOR-share a uint8 bit array: b = b0 XOR b1, b0 uniform."""
    b0 = rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
    return b0, bits ^ b0


@dataclass
class ComparisonBundle:
    """Per-comparison precomputed material for one element array shape.

    Single-use, like a Beaver triplet.  ``offline_bytes`` reports the
    dealer-to-server traffic this bundle represents, which the framework
    charges to the offline phase.
    """

    shape: tuple[int, ...]
    r_arith: SharePair
    r_bits0: np.ndarray  # XOR shares of r's bits, server 0; shape (*shape, 64)
    r_bits1: np.ndarray
    and_u0: np.ndarray  # bit-triplet components, shape (n_ands, *shape)
    and_u1: np.ndarray
    and_v0: np.ndarray
    and_v1: np.ndarray
    and_w0: np.ndarray
    and_w1: np.ndarray
    b2a_bit0: np.ndarray  # XOR shares of the B2A bit
    b2a_bit1: np.ndarray
    b2a_arith: SharePair  # arithmetic shares of the same bit
    consumed: bool = False

    @property
    def n_ands(self) -> int:
        return self.and_u0.shape[0]

    @property
    def offline_bytes(self) -> int:
        """Dealer-to-servers bytes this bundle accounts for (both servers)."""
        n = int(np.prod(self.shape))
        per_server = (
            n * 8  # r share
            + n * _BITS // 8  # packed bits of r
            + 3 * self.n_ands * n // 8  # packed bit triplets
            + n // 8 + n * 8  # b2a bit (xor) + arith share
        )
        return 2 * per_server

    def mark_consumed(self) -> None:
        if self.consumed:
            raise ProtocolError("comparison bundle reused; bundles are single-use")
        self.consumed = True


class ComparisonDealer:
    """Offline factory for :class:`ComparisonBundle` objects.

    With a ``seeds`` factory, :meth:`bundle` accepts an op-stream
    ``label`` and derives that bundle's randomness from it instead of
    the shared advancing ``rng`` — the comparison analogue of per-label
    triplet caching: the same stream draws bit-identical material on
    every invocation, which is what makes checkpoint replay (see
    ``repro.faults``) reproduce a run exactly.  Bundles stay single-use
    objects either way.
    """

    def __init__(self, rng: np.random.Generator, *, seeds=None):
        self._rng = rng
        self._seeds = seeds
        self.bundles_issued = 0

    def bundle(
        self, shape: tuple[int, ...], label: str | None = None
    ) -> ComparisonBundle:
        if label is not None and self._seeds is not None:
            rng = self._seeds.generator(f"bundle/{label}")
        else:
            rng = self._rng
        shape = tuple(shape)
        r = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
        r_arith = share_secret(r, rng)
        # Bits of r, least-significant first: shape (*shape, 64).
        k = np.arange(_BITS, dtype=np.uint64)
        r_bits = ((r[..., None] >> k) & np.uint64(1)).astype(np.uint8)
        r_bits0, r_bits1 = _xor_share_bits(r_bits, rng)

        n_ands = _BITS - 1
        u = rng.integers(0, 2, size=(n_ands, *shape), dtype=np.uint8)
        v = rng.integers(0, 2, size=(n_ands, *shape), dtype=np.uint8)
        w = u & v
        u0, u1 = _xor_share_bits(u, rng)
        v0, v1 = _xor_share_bits(v, rng)
        w0, w1 = _xor_share_bits(w, rng)

        b = rng.integers(0, 2, size=shape, dtype=np.uint8)
        b0, b1 = _xor_share_bits(b, rng)
        b_arith = share_secret(b.astype(np.uint64), rng)

        self.bundles_issued += 1
        return ComparisonBundle(
            shape=shape,
            r_arith=r_arith,
            r_bits0=r_bits0,
            r_bits1=r_bits1,
            and_u0=u0,
            and_u1=u1,
            and_v0=v0,
            and_v1=v1,
            and_w0=w0,
            and_w1=w1,
            b2a_bit0=b0,
            b2a_bit1=b1,
            b2a_arith=b_arith,
        )


@dataclass
class ComparisonResult:
    """Output of one secure comparison: arithmetic shares of the 0/1
    indicator, plus traffic/round accounting for the cost model."""

    share0: np.ndarray
    share1: np.ndarray
    online_bytes: int
    rounds: int


def _gmw_and(
    x0: np.ndarray,
    x1: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
    u0: np.ndarray,
    u1: np.ndarray,
    v0: np.ndarray,
    v1: np.ndarray,
    w0: np.ndarray,
    w1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One GMW AND on XOR-shared bit arrays using a Beaver bit triplet.

    Returns the two output shares and the bytes that crossed the wire
    (both directions, bits packed).
    """
    d = (x0 ^ u0) ^ (x1 ^ u1)  # opened d = x XOR u
    e = (y0 ^ v0) ^ (y1 ^ v1)  # opened e = y XOR v
    z0 = w0 ^ (d & v0) ^ (e & u0)
    z1 = w1 ^ (d & v1) ^ (e & u1) ^ (d & e)
    bytes_exchanged = 2 * 2 * ((d.size + 7) // 8)  # d,e from each server, bit-packed
    return z0, z1, bytes_exchanged


def comparison_online_bytes(n_elements: int) -> int:
    """Wire bytes the dealer-assisted comparison moves for ``n`` elements.

    Mirrors the accounting of :func:`secure_ge_const` exactly: one ring
    opening, 62 GMW AND rounds of packed bits, one B2A opening.
    """
    n = int(n_elements)
    opening = 2 * n * 8
    and_rounds = (_BITS - 2) * 2 * 2 * ((n + 7) // 8)
    b2a = 2 * ((n + 7) // 8)
    return opening + and_rounds + b2a


def emulated_ge_const(
    x0: np.ndarray,
    x1: np.ndarray,
    c_encoded: int,
    rng: np.random.Generator,
) -> ComparisonResult:
    """Cost-identical emulation of :func:`secure_ge_const`.

    Produces *bit-for-bit the same indicator value* the real protocol
    would (the protocol is exact: ``[x >= c]`` under two's-complement
    ring semantics), freshly re-shared with ``rng``, and reports the
    identical byte/round accounting — without materialising the
    per-element bit-triplet arrays, which for very large activations
    dominate memory and wall-clock in a pure-Python run.  Tests assert
    value and accounting parity against the real protocol on small
    shapes; large-tensor benchmark configs select this path via
    ``FrameworkConfig.activation_protocol = "emulated"``.
    """
    x0 = np.asarray(x0, dtype=RING_DTYPE)
    x1 = np.asarray(x1, dtype=RING_DTYPE)
    c = np.uint64(int(c_encoded) % 2**64)
    with np.errstate(over="ignore"):
        y = (x0 + x1) - c
    indicator = (y.view(np.int64) >= 0).astype(np.uint64)
    pair = share_secret(indicator, rng)
    return ComparisonResult(
        share0=pair.share0,
        share1=pair.share1,
        online_bytes=comparison_online_bytes(indicator.size),
        rounds=_BITS,
    )


def secure_ge_const(
    x0: np.ndarray,
    x1: np.ndarray,
    c_encoded: int,
    bundle: ComparisonBundle,
) -> ComparisonResult:
    """Arithmetic shares of ``[x >= c]`` for additively shared ``x``.

    ``c_encoded`` is the public threshold already fixed-point encoded into
    the ring.  Runs both servers' roles in lockstep (the framework's
    simulation style); traffic is reported, not physically sent.
    """
    x0 = np.asarray(x0, dtype=RING_DTYPE)
    x1 = np.asarray(x1, dtype=RING_DTYPE)
    if x0.shape != bundle.shape or x1.shape != bundle.shape:
        raise ShapeError(
            f"comparison bundle shape {bundle.shape} does not match input {x0.shape}"
        )
    bundle.mark_consumed()
    rounds = 0
    online_bytes = 0

    # y = x - c, shared; server 0 applies the public constant.
    c = np.uint64(int(c_encoded) % 2**64)
    y0 = ring_sub(x0, np.broadcast_to(c, x0.shape))
    y1 = x1

    # Round 1: open m = y + r.
    m0 = ring_add(y0, bundle.r_arith[0])
    m1 = ring_add(y1, bundle.r_arith[1])
    m = ring_add(m0, m1)
    rounds += 1
    online_bytes += 2 * m.size * 8

    # Public bits of m.
    k = np.arange(_BITS, dtype=np.uint64)
    m_bits = ((m[..., None] >> k) & np.uint64(1)).astype(np.uint8)

    # Linear (local) generate/propagate shares for m - r:
    #   g_k = NOT m_k AND r_k     -> multiply r_k's shares by public bit
    #   p_k = NOT (m_k XOR r_k)   -> XOR public constant into one share
    not_m = (1 - m_bits).astype(np.uint8)
    g0 = not_m * bundle.r_bits0
    g1 = not_m * bundle.r_bits1
    p0 = bundle.r_bits0 ^ m_bits ^ np.uint8(1)
    p1 = bundle.r_bits1

    # Ripple: borrow_{k+1} = g_k XOR (p_k AND borrow_k); borrow_1 = g_0.
    # We need borrow into bit 63, i.e. iterations k = 1 .. 62.  The 62
    # AND rounds run on six preallocated uint8 buffers with in-place
    # bitwise ops (the naive _gmw_and form allocates ~10 temporaries per
    # round); the arithmetic is the same XOR/AND dataflow, bit for bit.
    b0 = np.ascontiguousarray(g0[..., 0])
    b1 = np.ascontiguousarray(g1[..., 0])
    d = np.empty_like(b0)
    e = np.empty_like(b0)
    t0 = np.empty_like(b0)
    t1 = np.empty_like(b0)
    tmp = np.empty_like(b0)
    nbytes_per_round = 2 * 2 * ((b0.size + 7) // 8)  # d,e each way, bit-packed
    for k_idx in range(1, _BITS - 1):
        p0k = p0[..., k_idx]
        p1k = p1[..., k_idx]
        u0k = bundle.and_u0[k_idx - 1]
        u1k = bundle.and_u1[k_idx - 1]
        v0k = bundle.and_v0[k_idx - 1]
        v1k = bundle.and_v1[k_idx - 1]
        # opened d = p XOR u, e = borrow XOR v
        np.bitwise_xor(p0k, u0k, out=d)
        np.bitwise_xor(d, p1k, out=d)
        np.bitwise_xor(d, u1k, out=d)
        np.bitwise_xor(b0, v0k, out=e)
        np.bitwise_xor(e, b1, out=e)
        np.bitwise_xor(e, v1k, out=e)
        # z0 = w0 ^ (d & v0) ^ (e & u0)
        np.bitwise_and(d, v0k, out=t0)
        np.bitwise_xor(t0, bundle.and_w0[k_idx - 1], out=t0)
        np.bitwise_and(e, u0k, out=tmp)
        np.bitwise_xor(t0, tmp, out=t0)
        # z1 = w1 ^ (d & v1) ^ (e & u1) ^ (d & e)
        np.bitwise_and(d, v1k, out=t1)
        np.bitwise_xor(t1, bundle.and_w1[k_idx - 1], out=t1)
        np.bitwise_and(e, u1k, out=tmp)
        np.bitwise_xor(t1, tmp, out=t1)
        np.bitwise_and(d, e, out=tmp)
        np.bitwise_xor(t1, tmp, out=t1)
        # borrow update: b = g_k XOR z
        np.bitwise_xor(g0[..., k_idx], t0, out=b0)
        np.bitwise_xor(g1[..., k_idx], t1, out=b1)
        rounds += 1
        online_bytes += nbytes_per_round

    # Sign bit of y: d_63 = m_63 XOR r_63 XOR borrow_63.
    sign0 = m_bits[..., _BITS - 1] ^ bundle.r_bits0[..., _BITS - 1] ^ b0
    sign1 = bundle.r_bits1[..., _BITS - 1] ^ b1
    # Indicator [y >= 0] = NOT sign (XOR 1 into server 0's share).
    s0 = sign0 ^ np.uint8(1)
    s1 = sign1

    # B2A: open t = s XOR b, then share = t + (1 - 2t) * [b]_arith.
    t = (s0 ^ bundle.b2a_bit0) ^ (s1 ^ bundle.b2a_bit1)
    rounds += 1
    online_bytes += 2 * ((t.size + 7) // 8)
    t64 = t.astype(np.uint64)
    sign_factor = ring_sub(np.ones_like(t64), ring_mul(np.uint64(2) * np.ones_like(t64), t64))
    out0 = ring_add(t64, ring_mul(sign_factor, bundle.b2a_arith[0]))
    out1 = ring_mul(sign_factor, bundle.b2a_arith[1])
    return ComparisonResult(share0=out0, share1=out1, online_bytes=online_bytes, rounds=rounds)
