"""Differential conformance sweep: 8 models x config axes vs plain.

Every cell must agree with the plain baseline within fixed-point
tolerance; cost-only axes must additionally be bit-identical to the
baseline axis.  The sweep runs per protocol backend (set
``REPRO_CONFORMANCE_BACKENDS`` to restrict — CI shards the matrix this
way).  On a disagreement the failing run's transcript is dumped as JSON
to ``REPRO_CONFORMANCE_ARTIFACTS`` (default ``conformance-artifacts/``)
so CI can upload it for offline replay.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.audit import (
    BIT_IDENTICAL_AXES,
    CONFORMANCE_AXES,
    CONFORMANCE_MODELS,
    ConformanceCase,
    run_conformance_case,
)
from repro.util.errors import ConfigError

pytestmark = pytest.mark.conformance

#: Backends the sweep covers; CI shards via the environment variable.
BACKENDS = tuple(
    os.environ.get("REPRO_CONFORMANCE_BACKENDS", "beaver2pc rep3").split()
)


def _dump_artifact(result) -> str:
    out_dir = Path(os.environ.get("REPRO_CONFORMANCE_ARTIFACTS", "conformance-artifacts"))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{result.case.name.replace('/', '-')}.json"
    result.transcript.dump(path)
    return str(path)


def _check(result):
    """Assert agreement; on failure leave the transcript for CI."""
    if not result.agreed or (result.wire is not None and not result.wire.passed):
        artifact = _dump_artifact(result)
        detail = result.describe()
        if result.wire is not None and not result.wire.passed:
            detail += "\n" + result.wire.summary()
        pytest.fail(f"{detail}\ntranscript dumped to {artifact}")


class TestForwardSweep:
    """All 8 models x all config axes x backends, forward, wire-audited."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", CONFORMANCE_MODELS)
    @pytest.mark.parametrize("axis", sorted(CONFORMANCE_AXES))
    def test_secure_matches_plain(self, model, axis, backend):
        result = run_conformance_case(
            ConformanceCase(model=model, axis=axis, backend=backend)
        )
        _check(result)


class TestTrainingSweep:
    """Training conformance: the backward pass agrees too."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", CONFORMANCE_MODELS)
    def test_trained_predictions_match_plain(self, model, backend):
        result = run_conformance_case(
            ConformanceCase(model=model, axis="baseline", train=True, backend=backend)
        )
        _check(result)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("axis", ["pool", "mask_reuse"])
    def test_training_under_offline_axes(self, axis, backend):
        result = run_conformance_case(
            ConformanceCase(model="MLP", axis=axis, train=True, backend=backend)
        )
        _check(result)


class TestBitIdentity:
    """Cost-only knobs must not move a single prediction bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", CONFORMANCE_MODELS)
    @pytest.mark.parametrize("axis", sorted(BIT_IDENTICAL_AXES))
    def test_cost_only_axis_is_bit_identical(self, model, axis, backend):
        base = run_conformance_case(
            ConformanceCase(model=model, axis="baseline", backend=backend), audit=False
        )
        variant = run_conformance_case(
            ConformanceCase(model=model, axis=axis, backend=backend), audit=False
        )
        np.testing.assert_array_equal(base.predictions, variant.predictions)

    def test_pool_axis_is_tolerance_only(self):
        # documents why pool is excluded from BIT_IDENTICAL_AXES: the
        # pool deals its whole plan up front, stacked per shape, so masks
        # and share randomness reach the op streams in a different order
        # than label-cache misses draw them.  Truncation rounding is
        # share-dependent, so results agree within tolerance but not bit
        # for bit — MLP training differs (some beaver2pc pool cells, MLP
        # inference among them, happen to match exactly).  Dealer
        # material only exists under beaver2pc: rep3 has no pool, so
        # there the axis is a no-op and is not asserted here.
        base = run_conformance_case(
            ConformanceCase("MLP", "baseline", train=True), audit=False
        )
        pooled = run_conformance_case(ConformanceCase("MLP", "pool", train=True), audit=False)
        assert not np.array_equal(base.predictions, pooled.predictions)
        assert np.max(np.abs(base.predictions - pooled.predictions)) < 1e-3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replay_same_cell_is_bit_identical(self, backend):
        first = run_conformance_case(
            ConformanceCase("logistic", "baseline", backend=backend)
        )
        second = run_conformance_case(
            ConformanceCase("logistic", "baseline", backend=backend)
        )
        first.transcript.assert_identical(second.transcript)
        np.testing.assert_array_equal(first.predictions, second.predictions)


class TestCaseValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            ConformanceCase(model="transformer", axis="baseline")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="axis"):
            ConformanceCase(model="MLP", axis="turbo")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            ConformanceCase(model="MLP", axis="baseline", backend="rep5")

    def test_sweep_matrix_is_complete(self):
        # acceptance criterion: 6 paper models + attention/recsys, x >= 4 axes
        assert len(CONFORMANCE_MODELS) == 8
        assert "attention" in CONFORMANCE_MODELS
        assert "recsys" in CONFORMANCE_MODELS
        assert len(CONFORMANCE_AXES) >= 5  # baseline + 4 optimization axes
        assert set(BIT_IDENTICAL_AXES) < set(CONFORMANCE_AXES)


class TestWireAxes:
    """Framed, round-coalesced accounting: byte-exact and counted."""

    @staticmethod
    def _mlp_infer(backend="beaver2pc", axis="baseline"):
        from repro.core.context import SecureContext
        from repro.core.inference import secure_predict
        from repro.core.models import SecureMLP

        ctx = SecureContext.create(ConformanceCase("MLP", axis, backend=backend).config())
        recorder = ctx.attach_recorder()
        model = SecureMLP(ctx, 12, hidden=(8,), n_out=3)
        x = 0.5 * np.random.default_rng(2).standard_normal((32, 12))
        secure_predict(ctx, model, x, batch_size=16)
        return ctx, recorder.transcript()

    def test_coalescing_reduces_messages(self):
        # the E/F pair of every Beaver round shares one frame per direction
        ctx, _ = self._mlp_infer()
        assert ctx.telemetry.registry.counter("comm.coalesced_messages").value() > 0

    # mask_reuse caches the static F, so its rounds send one-part frames
    @pytest.mark.parametrize("axis", ["baseline", "mask_reuse"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_byte_accounting_reconciles(self, axis, backend):
        from repro.audit.wire import assert_byte_accounting

        ctx, transcript = self._mlp_infer(backend, axis)
        assert_byte_accounting(transcript, ctx.telemetry)

    def test_byte_accounting_rejects_faulty_runs(self):
        from repro.audit.wire import assert_byte_accounting
        from repro.audit.transcript import Transcript
        from repro.telemetry import Telemetry
        from repro.util.errors import AuditError

        telemetry = Telemetry()
        telemetry.registry.counter("faults.retransmits", "").inc(3)
        with pytest.raises(AuditError, match="fault-free"):
            assert_byte_accounting(Transcript(()), telemetry)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_server_messages_equal_frames_sent(self, backend):
        # one transcript record per frame: every server-link message the
        # channels count is one recorded frame, packed or not
        ctx, transcript = self._mlp_infer(backend)
        frames = sum(
            1 for r in transcript
            if r.src.startswith("server") and r.dst.startswith("server")
        )
        messages = sum(link.total_messages for link in ctx.server_links.values())
        assert frames == messages
