"""Elementwise and matrix operations in Z_{2^64}.

``numpy.uint64`` addition/subtraction/multiplication already wrap modulo
2^64, which is exactly the ring arithmetic we need.  The helpers here
exist to (a) centralise the intentional-overflow sites so the rest of the
codebase stays warning-clean, and (b) supply a *fast* ring matmul: NumPy
routes integer matmul through a scalar inner loop (no BLAS), which is two
orders of magnitude slower than dgemm at the sizes secure training uses.

Fast ring matmul: exact 3-limb decomposition over float64 BLAS
--------------------------------------------------------------
Split each operand into limbs of 22, 21 and 21 bits at shifts
``s = (0, 22, 43)``, ``x = sum_i x_i * 2^(s_i)``.  Then

    (a @ b) mod 2^64 = sum_{s_i + s_j < 64} (a_i @ b_j) << (s_i + s_j)   (mod 2^64)

because the pairs (1,2), (2,1) and (2,2) shift by 65 or more and only
contribute multiples of 2^64.  The six remaining products fall into four
shift groups: 0: (0,0); 22: (0,1), (1,0); 43: (0,2), (2,0); 44: (1,1).

Exactness: per inner index, the terms of one shift group sum to below
2^44 (at most ``2 * 2^22 * 2^21``), so over an inner-dimension chunk of
at most 512 = 2^9 the group sum stays below 2^53, where float64 integers
are exact.  Each chunk sums every group in float64, converts it to uint64
once, shifts it and adds it into the result, where the shifts and the
cross-chunk sums wrap mod 2^64 as required.

The 2-D and stacked products share one kernel (a 2-D product is a stack
of one).  Limbs live in a per-thread workspace that grows to the largest
product seen: fresh temporaries this size cost more in page faults than
the dgemms.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.util.validation import check_matmul_compatible

RING_DTYPE = np.uint64
_LIMB_SHIFTS = (0, 22, 43)
_LIMB_MASKS = (np.uint64((1 << 22) - 1), np.uint64((1 << 21) - 1), None)
# (shift, limb pairs (i, j) whose shifts add up to it), for shifts below 64.
_SHIFT_GROUPS = ((0, ((0, 0),)), (22, ((0, 1), (1, 0))), (43, ((0, 2), (2, 0))), (44, ((1, 1),)))
# Largest chunk of the inner dimension whose group sums stay exact: 2^9 * 2^44 = 2^53.
_CHUNK_K = 512

_workspace = threading.local()


def _as_ring(x: np.ndarray) -> np.ndarray:
    """View/convert an integer array as ring elements (uint64)."""
    arr = np.asarray(x)
    if arr.dtype == RING_DTYPE:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"ring operations require integer arrays, got dtype {arr.dtype}")
    return arr.astype(RING_DTYPE, copy=False)


def ring_add(a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """a + b in Z_{2^64} (elementwise, broadcasting allowed).

    ``out=`` writes the result into an existing uint64 array (which may
    alias an operand), skipping the intermediate allocation — the fast
    path the triplet pool and the GEMM scheduler use on their hot loops.
    """
    a, b = _as_ring(a), _as_ring(b)
    with np.errstate(over="ignore"):
        if out is None:
            return a + b
        return np.add(a, b, out=out)


def ring_sub(a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """a - b in Z_{2^64} (``out=`` as in :func:`ring_add`)."""
    a, b = _as_ring(a), _as_ring(b)
    with np.errstate(over="ignore"):
        if out is None:
            return a - b
        return np.subtract(a, b, out=out)


def ring_neg(a: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """-a in Z_{2^64} (``out=`` as in :func:`ring_add`; may alias ``a``)."""
    a = _as_ring(a)
    with np.errstate(over="ignore"):
        if out is None:
            return np.uint64(0) - a
        return np.subtract(np.uint64(0), a, out=out)


def ring_mul(a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise a * b in Z_{2^64} (``out=`` as in :func:`ring_add`)."""
    a, b = _as_ring(a), _as_ring(b)
    with np.errstate(over="ignore"):
        if out is None:
            return a * b
        return np.multiply(a, b, out=out)


def ring_sum(a: np.ndarray, axis=None) -> np.ndarray:
    """Sum of ring elements along ``axis`` (wraps modulo 2^64)."""
    a = _as_ring(a)
    with np.errstate(over="ignore"):
        return a.sum(axis=axis, dtype=RING_DTYPE)


def _split(x: np.ndarray, limbs: np.ndarray, tmp: np.ndarray) -> list[np.ndarray]:
    """Split a (B, r, c) uint64 stack into three float64 limbs held in ``limbs``.

    ``tmp`` is scratch.  A transposed operand is split in its own memory
    order and returned as transposed limb views, which BLAS reads as is.
    """
    if not x.flags.c_contiguous and x.swapaxes(1, 2).flags.c_contiguous:
        return [limb.swapaxes(1, 2) for limb in _split(x.swapaxes(1, 2), limbs, tmp)]
    limbs = limbs.reshape((3, *x.shape))
    tmp = tmp.view(RING_DTYPE).reshape(x.shape)
    for limb, shift, mask in zip(limbs, _LIMB_SHIFTS, _LIMB_MASKS):
        src = x
        if shift:
            src = np.right_shift(src, np.uint64(shift), out=tmp)
        if mask is not None:
            src = np.bitwise_and(src, mask, out=tmp)
        # Limbs are below 2^22: the signed view converts exactly, and faster.
        np.copyto(limb, src.view(np.int64), casting="unsafe")
    return list(limbs)


def _ring_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ring product of uint64 stacks (B, m, k) x (B, k, n)."""
    out = np.zeros((a.shape[0], a.shape[1], b.shape[2]), dtype=RING_DTYPE)
    # Workspace: a's limbs, b's limbs, then the split temporary, which the float64
    # group sum and partial product (later the uint64 conversion) reuse.
    size = 3 * (a.size + b.size) + max(a.size, b.size, 2 * out.size)
    if getattr(_workspace, "buf", None) is None or _workspace.buf.size < size:
        _workspace.buf = np.empty(size)
    a_flat, b_flat, tail = np.split(_workspace.buf[:size], [3 * a.size, 3 * (a.size + b.size)])
    a_limbs = _split(a, a_flat, tail[: a.size])
    b_limbs = _split(b, b_flat, tail[: b.size])
    acc, part = tail[: 2 * out.size].reshape((2, *out.shape))
    conv = part.view(RING_DTYPE)
    with np.errstate(over="ignore"):
        for start in range(0, a.shape[2], _CHUNK_K):
            chunk = slice(start, start + _CHUNK_K)
            for shift, pairs in _SHIFT_GROUPS:
                (i, j), *rest = pairs
                np.matmul(a_limbs[i][:, :, chunk], b_limbs[j][:, chunk], out=acc)
                for i, j in rest:
                    np.matmul(a_limbs[i][:, :, chunk], b_limbs[j][:, chunk], out=part)
                    np.add(acc, part, out=acc)
                # The group sum is an exact integer below 2^53: lossless conversion.
                np.copyto(conv.view(np.int64), acc, casting="unsafe")
                if shift:
                    np.left_shift(conv, np.uint64(shift), out=conv)
                np.add(out, conv, out=out)
    return out


def ring_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b in Z_{2^64} (exact, BLAS-backed).

    Uses the 3-limb decomposition described in the module docstring.
    """
    a, b = _as_ring(a), _as_ring(b)
    check_matmul_compatible(a, b)
    return _ring_gemm(a[None], b[None])[0]


def ring_matmul_batched(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked matrix product ``a[i] @ b[i]`` in Z_{2^64} for all i.

    ``a`` is (B, m, k) and ``b`` is (B, k, n); returns (B, m, n).  Same
    kernel as :func:`ring_matmul`: each stack is split once, and each
    limb product is one stacked ``np.matmul`` over the whole batch.
    """
    a, b = _as_ring(a), _as_ring(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError(f"ring_matmul_batched needs 3-D stacks, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ValueError(f"stacked shapes incompatible for matmul: {a.shape} x {b.shape}")
    return _ring_gemm(a, b)
