"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.fixedpoint.encoding import FixedPointEncoder

# Deeper property search for CI (``--hypothesis-profile ci``); tier-1 runs
# keep Hypothesis' default profile.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def encoder():
    return FixedPointEncoder(13)


@pytest.fixture
def ctx():
    """A full ParSecureML context with the exact (dealer) activation path."""
    return SecureContext(FrameworkConfig.parsecureml(activation_protocol="dealer"))


@pytest.fixture
def ctx_secureml():
    """A SecureML-mode (CPU-only baseline) context."""
    return SecureContext(FrameworkConfig.secureml(activation_protocol="dealer"))


def make_ctx(**overrides) -> SecureContext:
    """Helper for tests needing custom configs."""
    return SecureContext(FrameworkConfig.parsecureml(**overrides))
