"""Ring arithmetic in Z_{2^64}: exactness against Python big integers."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint.ring import (
    ring_add,
    ring_matmul,
    ring_matmul_batched,
    ring_mul,
    ring_neg,
    ring_sub,
    ring_sum,
)
from repro.util.errors import ShapeError

MOD = 2**64

u64 = st.integers(min_value=0, max_value=MOD - 1)


def as_arr(values):
    return np.array(values, dtype=np.uint64)


class TestElementwise:
    @given(u64, u64)
    def test_add_matches_python(self, a, b):
        assert int(ring_add(as_arr([a]), as_arr([b]))[0]) == (a + b) % MOD

    @given(u64, u64)
    def test_sub_matches_python(self, a, b):
        assert int(ring_sub(as_arr([a]), as_arr([b]))[0]) == (a - b) % MOD

    @given(u64, u64)
    def test_mul_matches_python(self, a, b):
        assert int(ring_mul(as_arr([a]), as_arr([b]))[0]) == (a * b) % MOD

    @given(u64)
    def test_neg_is_additive_inverse(self, a):
        arr = as_arr([a])
        assert int(ring_add(arr, ring_neg(arr))[0]) == 0

    @given(st.lists(u64, min_size=1, max_size=20))
    def test_sum_matches_python(self, values):
        assert int(ring_sum(as_arr(values))) == sum(values) % MOD

    def test_add_broadcasts(self):
        a = np.zeros((3, 4), dtype=np.uint64)
        b = np.uint64(7)
        assert (ring_add(a, b) == 7).all()

    def test_rejects_float_input(self):
        with pytest.raises(TypeError):
            ring_add(np.ones(3), as_arr([1, 2, 3]))

    def test_accepts_other_integer_dtypes(self):
        a = np.array([1, 2], dtype=np.int32)
        out = ring_add(a, a)
        assert out.dtype == np.uint64
        assert list(out) == [2, 4]


def python_matmul(a, b):
    """Python-int matmul mod 2^64 (exact big-int sums over object arrays)."""
    return ((a.astype(object) @ b.astype(object)) % MOD).astype(np.uint64)


def numpy_matmul(a, b):
    """NumPy's uint64 matmul wraps mod 2^64 (C unsigned semantics): slow, exact."""
    with np.errstate(over="ignore"):
        return np.matmul(a, b)


def random_ring(rng, shape):
    return rng.integers(0, MOD, size=shape, dtype=np.uint64)


class TestMatmul:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**32),
    )
    def test_matches_python_reference(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, MOD, size=(m, k), dtype=np.uint64)
        b = rng.integers(0, MOD, size=(k, n), dtype=np.uint64)
        assert np.array_equal(ring_matmul(a, b), python_matmul(a, b))

    def test_matches_numpy_uint64_matmul(self, rng):
        a = random_ring(rng, (17, 33))
        b = random_ring(rng, (33, 9))
        assert np.array_equal(ring_matmul(a, b), numpy_matmul(a, b))

    def test_extreme_values(self):
        a = np.full((2, 3), MOD - 1, dtype=np.uint64)
        b = np.full((3, 2), MOD - 1, dtype=np.uint64)
        expected = np.full((2, 2), (3 * (MOD - 1) ** 2) % MOD, dtype=np.uint64)
        assert np.array_equal(ring_matmul(a, b), expected)

    def test_identity(self, rng):
        a = rng.integers(0, MOD, size=(6, 6), dtype=np.uint64)
        eye = np.eye(6, dtype=np.uint64)
        assert np.array_equal(ring_matmul(a, eye), a)

    def test_distributes_over_addition(self, rng):
        a = rng.integers(0, MOD, size=(4, 7), dtype=np.uint64)
        b = rng.integers(0, MOD, size=(7, 3), dtype=np.uint64)
        c = rng.integers(0, MOD, size=(7, 3), dtype=np.uint64)
        left = ring_matmul(a, ring_add(b, c))
        right = ring_add(ring_matmul(a, b), ring_matmul(a, c))
        assert np.array_equal(left, right)

    def test_shape_mismatch_raises(self, rng):
        a = rng.integers(0, MOD, size=(4, 7), dtype=np.uint64)
        b = rng.integers(0, MOD, size=(6, 3), dtype=np.uint64)
        with pytest.raises(ShapeError):
            ring_matmul(a, b)

    def test_non_2d_raises(self, rng):
        a = rng.integers(0, MOD, size=(4,), dtype=np.uint64)
        with pytest.raises(ShapeError):
            ring_matmul(a, a)


# Inner dimensions around the kernel's 512-wide float64 exactness chunk.
CHUNK_BOUNDARY_K = (511, 512, 513, 1025)
seeds = st.integers(0, 2**32)


@pytest.mark.property
class TestMatmulExactness:
    """The limb kernel is exact at and beyond its chunk boundaries."""

    @settings(deadline=None)
    @given(st.sampled_from(CHUNK_BOUNDARY_K), st.integers(1, 3), st.integers(1, 3), seeds)
    def test_chunk_boundaries_match_python(self, k, m, n, seed):
        rng = np.random.default_rng(seed)
        a, b = random_ring(rng, (m, k)), random_ring(rng, (k, n))
        assert np.array_equal(ring_matmul(a, b), python_matmul(a, b))

    @pytest.mark.parametrize("k", CHUNK_BOUNDARY_K)
    def test_all_ones_operands_match_python(self, k):
        # 2^64 - 1 puts every limb at its maximum: the largest float64 sums.
        a = np.full((2, k), MOD - 1, dtype=np.uint64)
        b = np.full((k, 3), MOD - 1, dtype=np.uint64)
        expected = python_matmul(a, b)
        assert (expected == k).all()
        assert np.array_equal(ring_matmul(a, b), expected)

    @settings(deadline=None)
    @given(st.integers(1, 48), st.integers(1, 1600), st.integers(1, 48), seeds)
    def test_larger_shapes_match_numpy(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b = random_ring(rng, (m, k)), random_ring(rng, (k, n))
        assert np.array_equal(ring_matmul(a, b), numpy_matmul(a, b))

    @settings(deadline=None)
    @given(st.integers(1, 24), st.sampled_from((7, *CHUNK_BOUNDARY_K)), st.integers(1, 24), seeds)
    def test_transposed_and_strided_operands(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a_t, b_t = random_ring(rng, (k, m)), random_ring(rng, (n, k))
        wide = random_ring(rng, (m, 2 * k))
        assert np.array_equal(ring_matmul(a_t.T, b_t.T), numpy_matmul(a_t.T, b_t.T))
        assert np.array_equal(ring_matmul(wide[:, ::2], b_t.T), numpy_matmul(wide[:, ::2], b_t.T))

    @settings(deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 12),
        st.sampled_from((3, *CHUNK_BOUNDARY_K)),
        st.integers(1, 12),
        seeds,
    )
    def test_batched_matches_per_slice(self, batch, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b = random_ring(rng, (batch, m, k)), random_ring(rng, (batch, k, n))
        expected = np.stack([ring_matmul(a[i], b[i]) for i in range(batch)])
        assert np.array_equal(expected, numpy_matmul(a, b))
        assert np.array_equal(ring_matmul_batched(a, b), expected)
        transposed = np.ascontiguousarray(b.swapaxes(1, 2)).swapaxes(1, 2)
        assert np.array_equal(ring_matmul_batched(a, transposed), expected)

    def test_zero_inner_dimension_gives_zeros(self):
        out = ring_matmul(np.empty((3, 0), np.uint64), np.empty((0, 4), np.uint64))
        assert out.shape == (3, 4) and out.dtype == np.uint64
        assert not out.any()
        out = ring_matmul_batched(np.empty((2, 3, 0), np.uint64), np.empty((2, 0, 4), np.uint64))
        assert out.shape == (2, 3, 4) and out.dtype == np.uint64
        assert not out.any()

    def test_empty_stack_and_empty_rows(self):
        a, b = np.empty((0, 3, 600), np.uint64), np.empty((0, 600, 4), np.uint64)
        out = ring_matmul_batched(a, b)
        assert out.shape == (0, 3, 4) and out.dtype == np.uint64
        assert ring_matmul(np.empty((0, 5), np.uint64), np.ones((5, 2), np.uint64)).shape == (0, 2)

    def test_concurrent_threads_stay_exact(self):
        # Each thread splits into its own workspace; BLAS releases the GIL,
        # so a shared one would let threads overwrite each other's limbs.
        rng = np.random.default_rng(7)
        pairs = [(random_ring(rng, (8 + i, 600)), random_ring(rng, (600, 5))) for i in range(6)]
        expected = [numpy_matmul(a, b) for a, b in pairs]
        wrong = []

        def worker(i):
            for _ in range(25):
                if not np.array_equal(ring_matmul(*pairs[i]), expected[i]):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(pairs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestRingNegOut:
    """In-place negation: ``out=`` parity with the allocating form."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(u64, min_size=1, max_size=8))
    def test_out_matches_allocating(self, values):
        a = as_arr(values)
        expected = ring_neg(a)
        out = np.empty_like(a)
        result = ring_neg(a, out=out)
        assert result is out
        assert np.array_equal(result, expected)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(u64, min_size=1, max_size=8))
    def test_out_may_alias_input(self, values):
        a = as_arr(values)
        expected = ring_neg(a)
        result = ring_neg(a, out=a)
        assert result is a
        assert np.array_equal(result, expected)
