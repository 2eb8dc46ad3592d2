"""Beaver triplet generation (offline phase): the context's one dealer."""

import numpy as np
import pytest

from conftest import make_ctx
from repro.comm.wire import payload_digest
from repro.fixedpoint.ring import ring_matmul, ring_mul
from repro.mpc.shares import reconstruct
from repro.util.errors import ProtocolError, ShapeError

COUNTS = (1, 3)


@pytest.fixture
def dealer():
    return make_ctx(seed=7)


def _open(pair):
    return reconstruct(pair.share0, pair.share1)


def _upload_messages(ctx):
    return [link.total_messages for link in ctx.uplinks]


class TestMatrixTriplet:
    def test_z_equals_u_matmul_v(self, dealer):
        for count in COUNTS:
            triplets = dealer.gen_matrix_triplet((4, 6), (6, 3), count)
            assert len(triplets) == count
            for t in triplets:
                assert np.array_equal(_open(t.z), ring_matmul(_open(t.u), _open(t.v)))

    def test_shapes(self, dealer):
        for count in COUNTS:
            for t in dealer.gen_matrix_triplet((4, 6), (6, 3), count):
                assert t.u.shape == (4, 6)
                assert t.v.shape == (6, 3)
                assert t.z.shape == (4, 3)
                assert (t.shape_a, t.shape_b) == ((4, 6), (6, 3))

    def test_incompatible_shapes_raise(self, dealer):
        with pytest.raises(ShapeError):
            dealer.gen_matrix_triplet((4, 6), (5, 3))

    def test_non_2d_raises(self, dealer):
        with pytest.raises(ShapeError):
            dealer.gen_matrix_triplet((4,), (4, 3))

    def test_fresh_randomness_per_triplet(self, dealer):
        (t1,) = dealer.gen_matrix_triplet((3, 3), (3, 3))
        (t2,) = dealer.gen_matrix_triplet((3, 3), (3, 3))
        assert not np.array_equal(_open(t1.u), _open(t2.u))
        stacked = dealer.gen_matrix_triplet((3, 3), (3, 3), 3)
        masks = [_open(t.u).tobytes() for t in (t1, t2, *stacked)]
        assert len(set(masks)) == len(masks)

    def test_counter_increments(self, dealer):
        dealer.gen_matrix_triplet((2, 2), (2, 2))
        dealer.gen_elementwise_triplet((4, 4))
        assert dealer.triplets_issued == 2
        dealer.gen_matrix_triplet((2, 2), (2, 2), 3)
        assert dealer.triplets_issued == 5

    @pytest.mark.parametrize("count", COUNTS)
    def test_one_upload_per_server_per_call(self, dealer, count):
        before = _upload_messages(dealer)
        dealer.gen_matrix_triplet((4, 6), (6, 3), count)
        after = _upload_messages(dealer)
        assert [a - b for a, b in zip(after, before)] == [1, 1]
        before = after
        dealer.gen_elementwise_triplet((5, 2), count)
        assert [a - b for a, b in zip(_upload_messages(dealer), before)] == [1, 1]

    @pytest.mark.parametrize("count", COUNTS)
    def test_upload_records_each_triplets_own_shares(self, dealer, count):
        rec = dealer.attach_recorder()
        triplets = dealer.gen_matrix_triplet((4, 6), (6, 3), count)
        upload = rec.transcript().records_for(tag_prefix="triplet:upload")
        assert [r.dst for r in upload] == ["server0", "server1"]
        for party, record in enumerate(upload):
            # (U_i, V_i, Z_i) of each triplet in turn, never the (count, m, k)
            # stack: a one-triplet call records exactly that triplet's shares
            content = tuple(
                pair[party] for t in triplets for pair in (t.u, t.v, t.z)
            )
            assert record.digest == payload_digest(content)
            assert record.nbytes == count * 8 * (24 + 18 + 12)


class TestElementwiseTriplet:
    def test_z_equals_u_hadamard_v(self, dealer):
        for count in COUNTS:
            triplets = dealer.gen_elementwise_triplet((5, 7), count)
            assert len(triplets) == count
            for t in triplets:
                assert np.array_equal(_open(t.z), ring_mul(_open(t.u), _open(t.v)))

    def test_nd_shapes_supported(self, dealer):
        for count in COUNTS:
            for t in dealer.gen_elementwise_triplet((2, 3, 4), count):
                assert t.u.shape == t.v.shape == t.z.shape == (2, 3, 4)
                assert t.shape == (2, 3, 4)


class TestDealerFreeBackend:
    @pytest.mark.parametrize("gen, args", [
        ("gen_matrix_triplet", ((2, 2), (2, 2))),
        ("gen_elementwise_triplet", ((2, 2),)),
    ], ids=["matrix", "elementwise"])
    def test_rep3_has_no_dealer(self, gen, args):
        ctx = make_ctx(backend="rep3")
        with pytest.raises(ProtocolError, match="rep3"):
            getattr(ctx, gen)(*args)


class TestSingleUse:
    def test_share_consumption_enforced(self, dealer):
        (t,) = dealer.gen_matrix_triplet((2, 2), (2, 2))
        share = t.share_for(0)
        share.mark_consumed()
        with pytest.raises(ProtocolError):
            share.mark_consumed()

    def test_each_party_gets_own_share_object(self, dealer):
        (t,) = dealer.gen_matrix_triplet((2, 2), (2, 2))
        s0, s1 = t.share_for(0), t.share_for(1)
        assert s0.party_id == 0
        assert s1.party_id == 1
        s0.mark_consumed()  # does not affect s1
        s1.mark_consumed()


class TestDealerWithCustomMatmul:
    def test_injected_matmul_used(self, dealer, monkeypatch):
        """Z = U x V is one fused product per call, on the stacked masks."""
        calls = []
        inner = dealer._client_matmul_batched

        def spy(u, v):
            calls.append((u.shape, v.shape))
            return inner(u, v)

        monkeypatch.setattr(dealer, "_client_matmul_batched", spy)
        dealer.gen_matrix_triplet((3, 4), (4, 2))
        dealer.gen_matrix_triplet((3, 4), (4, 2), 3)
        assert calls == [((1, 3, 4), (1, 4, 2)), ((3, 3, 4), (3, 4, 2))]
