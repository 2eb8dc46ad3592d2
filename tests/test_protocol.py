"""The online masked-multiplication protocol (Eqs. 4-8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint.encoding import FixedPointEncoder
from repro.fixedpoint.ring import ring_mul
from repro.fixedpoint.truncation import truncate_share
from repro.mpc.protocol import (
    beaver_elementwise_share,
    combine_masked,
    masked_difference,
    secure_matmul_plain,
)
from repro.mpc.shares import reconstruct, share_secret
from conftest import make_ctx
from repro.util.errors import ProtocolError, ShapeError


def run_matmul(a, b, seed=0, **kw):
    """Full protocol run on float inputs; returns decoded result."""
    rng = np.random.default_rng(seed)
    enc = FixedPointEncoder(13)
    ap = share_secret(enc.encode(a), rng)
    bp = share_secret(enc.encode(b), rng)
    (trip,) = make_ctx(seed=seed + 1).gen_matrix_triplet(a.shape, b.shape)
    c0, c1 = secure_matmul_plain(ap, bp, trip, **kw)
    return enc.decode(
        reconstruct(truncate_share(c0, 13, 0), truncate_share(c1, 13, 1))
    )


class TestSecureMatmul:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 1000))
    def test_matches_plain_matmul(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        out = run_matmul(a, b, seed=seed)
        np.testing.assert_allclose(out, a @ b, atol=k * 2**-12 + 2**-11)

    def test_eq6_and_eq8_agree_exactly(self, rng):
        """The paper's fused form (Eq. 8) must be bit-identical to Eq. 6."""
        enc = FixedPointEncoder(13)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3))
        ap = share_secret(enc.encode(a), rng)
        bp = share_secret(enc.encode(b), rng)
        dealer = make_ctx(seed=9)
        (t1,) = dealer.gen_matrix_triplet(a.shape, b.shape)
        # reuse identical triplet material for both forms
        (t2,) = dealer.gen_matrix_triplet(a.shape, b.shape)
        for pair_attr in ("u", "v", "z"):
            setattr(t2, pair_attr, getattr(t1, pair_attr))
        c_fused = secure_matmul_plain(ap, bp, t1, use_fused_form=True)
        c_plain = secure_matmul_plain(ap, bp, t2, use_fused_form=False)
        assert np.array_equal(c_fused[0], c_plain[0])
        assert np.array_equal(c_fused[1], c_plain[1])

    def test_masked_values_leak_nothing_obvious(self, rng):
        """E = A - U is a one-time-pad: uniform regardless of A."""
        enc = FixedPointEncoder(13)
        a = np.zeros((64, 64))
        ap = share_secret(enc.encode(a), rng)
        (trip,) = make_ctx(seed=3).gen_matrix_triplet((64, 64), (64, 64))
        e = combine_masked(
            masked_difference(ap[0], trip.u[0]), masked_difference(ap[1], trip.u[1])
        )
        as_bytes = e.reshape(-1).view(np.uint8)
        counts = np.bincount(as_bytes, minlength=256)
        expected = as_bytes.size / 256
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 400

    def test_shape_mismatch_in_masked_difference(self, rng):
        with pytest.raises(ShapeError):
            masked_difference(
                np.zeros((2, 2), dtype=np.uint64), np.zeros((3, 2), dtype=np.uint64)
            )

    def test_combine_shape_mismatch(self):
        with pytest.raises(ShapeError):
            combine_masked(np.zeros(3, dtype=np.uint64), np.zeros(4, dtype=np.uint64))


class TestTripletDiscipline:
    def test_triplet_share_is_single_use(self, rng):
        """A TripletShare (one execution's material) is single-use; the
        MatrixTriplet *stream* may be reused across iterations, which is
        the paper's mask-stability requirement (Eqs. 10-12)."""
        (trip,) = make_ctx(seed=1).gen_matrix_triplet((3, 3), (3, 3))
        share = trip.share_for(0)
        share.mark_consumed()
        with pytest.raises(ProtocolError):
            share.mark_consumed()
        # a fresh share object for the next iteration is fine
        trip.share_for(0).mark_consumed()

    def test_wrong_party_triplet_rejected(self, rng):
        from repro.mpc.protocol import beaver_matmul_share

        (trip,) = make_ctx(seed=1).gen_matrix_triplet((2, 2), (2, 2))
        e = np.zeros((2, 2), dtype=np.uint64)
        with pytest.raises(ProtocolError):
            beaver_matmul_share(0, e, e, e, e, trip.share_for(1))


class TestElementwise:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 1000))
    def test_hadamard_matches_plain(self, m, n, seed):
        rng = np.random.default_rng(seed)
        enc = FixedPointEncoder(13)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=(m, n))
        ap = share_secret(enc.encode(a), rng)
        bp = share_secret(enc.encode(b), rng)
        (trip,) = make_ctx(seed=seed + 5).gen_elementwise_triplet((m, n))
        e = combine_masked(
            masked_difference(ap[0], trip.u[0]), masked_difference(ap[1], trip.u[1])
        )
        f = combine_masked(
            masked_difference(bp[0], trip.v[0]), masked_difference(bp[1], trip.v[1])
        )
        c0 = beaver_elementwise_share(0, e, f, ap[0], bp[0], trip.share_for(0))
        c1 = beaver_elementwise_share(1, e, f, ap[1], bp[1], trip.share_for(1))
        out = enc.decode(
            reconstruct(truncate_share(c0, 13, 0), truncate_share(c1, 13, 1))
        )
        np.testing.assert_allclose(out, a * b, atol=2**-10)


class TestShippingPathCertification:
    """``ops.secure_matmul`` on a beaver2pc ``SecureContext`` — the path
    training, serving and the benchmark run — produces output shares
    bit-identical to the reference protocol driver on the same input
    shares and the triplet the context drew.  This is what certifies
    the simulation's transcripts as the protocol of Eqs. 4-8."""

    @pytest.mark.parametrize("compression", [True, False])
    def test_output_shares_match_reference_bitwise(self, rng, compression):
        from conftest import make_ctx
        from repro.core import ops
        from repro.core.tensor import SharedTensor
        from repro.mpc.triplets import MatrixTriplet

        ctx = make_ctx(backend="beaver2pc", compression=compression)
        drawn = {}
        get_triplet = ctx.get_matrix_triplet

        def spy(label, shape_a, shape_b):
            drawn[label] = get_triplet(label, shape_a, shape_b)
            return drawn[label]

        ctx.get_matrix_triplet = spy
        frac = ctx.encoder.frac_bits
        a = rng.normal(size=(6, 8))
        w = SharedTensor.from_plain(ctx, rng.normal(size=(8, 5)))
        # The second call reuses the stream's triplet with a sparse change
        # in the left operand, so compression sends a CSR delta of E.
        a_next = a.copy()
        a_next[2, 3] += 1.0
        for plain in (a, a_next):
            x = SharedTensor.from_plain(ctx, plain)
            x_shares = tuple(s.copy() for s in x.shares)
            w_shares = tuple(s.copy() for s in w.shares)
            out = ops.secure_matmul(x, w, label="cert")
            t = drawn["cert"]
            fresh = MatrixTriplet(u=t.u, v=t.v, z=t.z, shape_a=t.shape_a, shape_b=t.shape_b)
            c0, c1 = secure_matmul_plain(x_shares, w_shares, fresh)
            assert np.array_equal(out.shares[0], truncate_share(c0, frac, 0))
            assert np.array_equal(out.shares[1], truncate_share(c1, frac, 1))
        if compression:
            snap = ctx.telemetry.snapshot()
            assert snap.counter("comm.compression.wire_bytes") < snap.counter(
                "comm.compression.raw_bytes"
            )
