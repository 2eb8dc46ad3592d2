"""The framed wire codec: round-trips, exact sizing, coalescing, checksums.

Property-based coverage (hypothesis) of the encode/decode pair over
arbitrary dtypes, shapes (including empty, 0-d and strided views) and
nested payloads; exactness of :func:`frame_sizes` against the
materialized frame; the decoder's contract that malformed bytes raise
only :class:`TransportError`; the coalescer's order-preservation
contract; and the frame-CRC checksum.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.compression import DeltaCompressor
from repro.comm.wire import (
    MAGIC,
    MAX_DEPTH,
    RoundCoalescer,
    blob_frame_sizes,
    content_bytes,
    decode_frame,
    encode_frame,
    frame_sizes,
    payload_checksum,
    unpack_frame,
)
from repro.util.errors import TransportError

DTYPES = (
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.int8, np.int32, np.int64,
    np.float32, np.float64, np.complex128, np.bool_,
)


@dataclass
class Wrapped:
    """Marker wrapper, as the fault injector's tamper marker uses."""

    inner: object


#: Views an operand reaches the codec as: C-contiguous, transposed (the
#: dense backward pass sends ``x.T``) or strided along the last axis.
VIEWS = {
    "contiguous": lambda a: a,
    "transposed": lambda a: a.T,
    "strided": lambda a: a[..., ::2] if a.ndim else a,
}


@st.composite
def _array(draw):
    """Arbitrary-dtype arrays: 0-d, empty, up-to-3-d and strided views."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=0, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == np.bool_:
        arr = rng.integers(0, 2, size=shape).astype(np.bool_)
    else:
        n = int(np.prod(shape, dtype=np.int64))
        raw = rng.integers(0, 256, size=(n * dtype.itemsize,), dtype=np.uint8)
        arr = raw.view(dtype)[:n].reshape(shape).copy()
    return VIEWS[draw(st.sampled_from(sorted(VIEWS)))](arr)


def payloads():
    """Nested payloads: arrays, bytes, strings, None, ints, containers."""
    leaves = st.one_of(
        _array(),
        st.binary(max_size=64),
        st.text(max_size=16),
        st.none(),
        st.integers(-(2**63), 2**63 - 1),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.lists(inner, max_size=3).map(tuple),
        ),
        max_leaves=8,
    )


def assert_payload_equal(a, b):
    assert type(a) is type(b) or (
        isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
    ), f"{type(a)} != {type(b)}"
    if isinstance(a, np.ndarray):
        # bit-exact, not value-equal: random bytes viewed as floats hold
        # NaN patterns, and NaN != NaN under np.array_equal
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_payload_equal(x, y)
    else:
        assert a == b


class TestCodecRoundTrip:
    def test_nan_bit_patterns_roundtrip(self):
        raw = np.array([0x7FF8000000000001, 0xFFF0000000000123, 0], dtype=np.uint64)
        payload = [raw.view(np.float64), raw.view(np.float32)]
        _tag, decoded = decode_frame(encode_frame("t", payload))
        assert_payload_equal(payload, decoded)

    @settings(max_examples=100, deadline=None)
    @given(payloads())
    def test_roundtrip_bit_identical(self, payload):
        tag, decoded = decode_frame(encode_frame("t", payload))
        assert tag == "t"
        assert_payload_equal(payload, decoded)

    @settings(max_examples=100, deadline=None)
    @given(payloads(), st.text(max_size=32))
    def test_sizes_match_materialized_frame(self, payload, tag):
        frame = encode_frame(tag, payload)
        sizes = frame_sizes(tag, payload)
        assert sizes.nbytes == len(frame)
        assert 0 <= sizes.body_nbytes <= sizes.nbytes
        assert sizes.overhead_nbytes == sizes.nbytes - sizes.body_nbytes

    @settings(max_examples=50, deadline=None)
    @given(_array())
    def test_array_body_travels_raw(self, arr):
        # the frame must contain the array's exact buffer bytes — the
        # zero-copy claim is only meaningful if nothing re-encodes them
        frame = encode_frame("t", arr)
        assert np.ascontiguousarray(arr).tobytes() in frame

    def test_decode_default_is_zero_copy_view(self):
        arr = np.arange(12, dtype=np.uint64).reshape(3, 4)
        frame = encode_frame("t", arr)
        _, decoded = decode_frame(frame)
        assert not decoded.flags.owndata  # view into the frame buffer
        _, copied = decode_frame(frame, copy=True)
        assert copied.flags.owndata

    def test_arrays_never_pass_through_pickle(self, monkeypatch):
        def boom(*a, **k):  # pragma: no cover - should never run
            raise AssertionError("frame codec reached pickle")

        # a CSR delta's wire view: kind/key strs, shape ints, three arrays
        compressor = DeltaCompressor(0.5)
        matrix = np.arange(30, dtype=np.uint64).reshape(6, 5)
        compressor.encode("k", matrix)
        matrix[1, 2] += np.uint64(1)
        csr = compressor.encode("k", matrix)
        assert csr.kind == "csr_delta"
        monkeypatch.setattr(pickle, "dumps", boom)
        monkeypatch.setattr(pickle, "loads", boom)
        for payload in (
            [np.arange(6, dtype=np.uint64), (np.zeros(3), b"x"), "tag", None],
            (("op/E/0", csr.wire_view()), ("op/F/0", matrix)),
        ):
            frame = encode_frame("t", payload)
            assert frame_sizes("t", payload).nbytes == len(frame)
            _tag, decoded = decode_frame(frame)
            assert_payload_equal(payload, decoded)

    @pytest.mark.parametrize("leaf", [
        Wrapped(np.arange(4, dtype=np.uint64)),
        1.5,
        True,
        np.int64(3),
        2**63,
        np.array(["a", "b"]),
        np.array([object()], dtype=object),
    ], ids=["wrapper", "float", "bool", "numpy_int", "int_overflow", "str_array", "object_array"])
    def test_unsupported_leaf_rejected(self, leaf):
        # no escape hatch: what the codec cannot type, it refuses — the
        # fault injector's tamper wrapper included
        for fn in (encode_frame, frame_sizes):
            with pytest.raises(TransportError):
                fn("t", [np.zeros(2, dtype=np.uint64), leaf])
        with pytest.raises(TransportError):
            payload_checksum(leaf)

    def test_sizing_never_copies_bodies(self, monkeypatch):
        # a transposed operand is sized from its header and nbytes; only
        # encoding (which must emit C order) may make it contiguous
        def boom(*a, **k):  # pragma: no cover - should never run
            raise AssertionError("frame_sizes copied an array body")

        operand = np.ones((784, 128), dtype=np.uint64).T
        monkeypatch.setattr(np, "ascontiguousarray", boom)
        sizes = frame_sizes("t", (operand, operand[:, ::2]))
        assert sizes.body_nbytes == operand.nbytes + operand[:, ::2].nbytes

    def test_bad_magic_rejected(self):
        with pytest.raises(TransportError, match="magic"):
            decode_frame(b"XXXX" + b"\x00" * 16)

    def test_truncated_frame_rejected(self):
        frame = encode_frame("t", np.arange(8, dtype=np.uint64))
        with pytest.raises(TransportError, match="truncated"):
            decode_frame(frame[:-3])

    def test_trailing_bytes_rejected(self):
        frame = encode_frame("t", None)
        with pytest.raises(TransportError, match="trailing"):
            decode_frame(frame + b"\x00")

    def test_deep_nesting_rejected(self):
        # a 25 KB frame of nested one-element lists must not reach the
        # interpreter's recursion limit
        depth = 5000
        frame = (
            MAGIC + b"\x00\x00\x00"
            + (bytes([2]) + (1).to_bytes(4, "little")) * depth
            + bytes([4])
        )
        with pytest.raises(TransportError, match="nesting"):
            decode_frame(frame)
        nested = None
        for _ in range(MAX_DEPTH):
            nested = [nested]
        assert_payload_equal(nested, decode_frame(encode_frame("t", nested))[1])
        for fn in (encode_frame, frame_sizes):
            with pytest.raises(TransportError, match="nesting"):
                fn("t", [nested])

    def test_blob_sizes_match_equivalent_bytes_frame(self):
        blob = blob_frame_sizes("cmp:rounds", 1000)
        real = frame_sizes("cmp:rounds", b"\x00" * 1000)
        assert blob.nbytes == real.nbytes
        assert blob.body_nbytes == real.body_nbytes


@pytest.mark.property
class TestDecoderContract:
    """Malformed frames raise TransportError and nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(
        payloads(),
        st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=3),
    )
    def test_mutated_frames_raise_only_transport_error(self, payload, flips):
        frame = bytearray(encode_frame("op/EF", payload))
        for pos, value in flips:
            frame[pos % len(frame)] = value
        try:
            decode_frame(bytes(frame))
        except TransportError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(payloads(), st.integers(0, 2**16))
    def test_truncated_frames_raise_transport_error(self, payload, cut):
        frame = encode_frame("t", payload)
        with pytest.raises(TransportError):
            decode_frame(frame[: cut % len(frame)])


class TestCoalescer:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["a->b", "b->a", "a->c"]), _array()),
        min_size=1, max_size=8,
    ))
    def test_pack_unpack_preserves_per_link_order(self, sends):
        coalescer = RoundCoalescer("round0")
        expected: dict[tuple[str, str], list] = {}
        for i, (link, arr) in enumerate(sends):
            src, dst = link.split("->")
            coalescer.add(src, dst, f"msg{i}", arr)
            expected.setdefault((src, dst), []).append((f"msg{i}", arr))
        assert len(coalescer) == len(sends)
        frames = coalescer.flush()
        assert len(coalescer) == 0
        # one frame per link, links in first-send order
        assert [(fr.src, fr.dst) for fr in frames] == list(expected)
        for fr in frames:
            round_id, parts = unpack_frame(fr.encode())
            assert round_id == "round0"
            assert [t for t, _ in parts] == [t for t, _ in expected[(fr.src, fr.dst)]]
            for (_, got), (_, want) in zip(parts, expected[(fr.src, fr.dst)]):
                assert_payload_equal(want, got)

    def test_packed_body_is_concatenation_of_part_bodies(self):
        # the digest-equality oracle: a packed frame's observable content
        # equals the parts' contents back to back
        e = np.arange(16, dtype=np.uint64)
        f = np.arange(16, 32, dtype=np.uint64)
        assert content_bytes((e, f)) == content_bytes(e) + content_bytes(f)
        coalescer = RoundCoalescer("r")
        coalescer.add("a", "b", "E", e)
        coalescer.add("a", "b", "F", f)
        (frame,) = coalescer.flush()
        assert frame.sizes.body_nbytes == e.nbytes + f.nbytes
        assert frame.sizes.nbytes == len(frame.encode())
        assert frame.n_parts == 2

    def test_loopback_send_rejected(self):
        with pytest.raises(TransportError, match="src == dst"):
            RoundCoalescer("r").add("a", "a", "t", None)


class TestChecksum:
    def test_detects_single_bit_flip(self):
        arr = np.arange(64, dtype=np.uint64)
        before = payload_checksum(arr)
        arr[17] ^= np.uint64(1 << 40)
        assert payload_checksum(arr) != before

    def test_detects_wrapped_payload(self):
        # the fault injector wraps payloads in a marker object; the
        # checksum must not hash the wrapper as if it were the array
        arr = np.arange(8, dtype=np.uint64)
        payload_checksum(arr)
        with pytest.raises(TransportError):
            payload_checksum(Wrapped(arr))

    @settings(max_examples=40, deadline=None)
    @given(payloads())
    def test_deterministic_within_process(self, payload):
        assert payload_checksum(payload) == payload_checksum(payload)

    def test_array_checksum_avoids_pickle(self, monkeypatch):
        def boom(*a, **k):  # pragma: no cover - should never run
            raise AssertionError("array checksum reached pickle")

        monkeypatch.setattr(pickle, "dumps", boom)
        payload_checksum([np.arange(100, dtype=np.uint64)])


class TestFrameLayout:
    def test_magic_leads_every_frame(self):
        assert encode_frame("t", None).startswith(MAGIC)

    def test_oversized_tag_rejected(self):
        with pytest.raises(TransportError, match="tag too long"):
            frame_sizes("x" * 70_000, None)
