"""Beaver multiplication triplets — the offline phase (paper Eqs. 2-3).

The client (trusted dealer, exactly the role the paper gives it) samples
random masks ``U`` (shaped like the left operand) and ``V`` (shaped like
the right operand), computes ``Z = U (*) V`` where ``(*)`` is the product
the online phase will perform (matrix product, elementwise product, or a
convolution realised as a matrix product), and additively shares all
three among the two servers.

The dealer itself is :meth:`repro.core.context.SecureContext.gen_matrix_triplet`
(and its elementwise twin): ``Z = U x V`` is the dominant cost of the
offline phase (paper Section 4.2 measures it above 90%), so it routes
that one product through the simulated client GPU while leaving the
cheap sampling on the CPU — the paper's offline acceleration design.
This module holds the triplet containers and their single-use
bookkeeping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# Kept bound by name: the benchmark tracer's coverage check
# (perfbench/tracing.py, RING_MATMUL_SITES) lists this module.
from repro.fixedpoint.ring import ring_matmul  # noqa: F401
from repro.mpc.shares import SharePair
from repro.util.errors import ProtocolError

# Monotonic identity for dealer triplets.  Caches that stage triplet
# material on devices key their entries by this uid rather than id():
# a uid is never recycled, so a regenerated triplet can never be
# mistaken for the object it replaced.
_TRIPLET_UIDS = itertools.count(1)


def _next_triplet_uid() -> int:
    return next(_TRIPLET_UIDS)


@dataclass
class TripletShare:
    """One server's share of a Beaver triplet: (U_i, V_i, Z_i)."""

    u: np.ndarray
    v: np.ndarray
    z: np.ndarray
    party_id: int
    consumed: bool = False
    label: str = ""  # op stream this share was issued to (diagnostics)
    backend: str = "beaver2pc"  # protocol backend that owns the material

    def mark_consumed(self) -> None:
        """Flag this share as used; reuse is a protocol violation."""
        if self.consumed:
            if self.label:
                raise ProtocolError(
                    f"[{self.backend}] Beaver triplet for op stream '{self.label}' "
                    f"consumed twice in one batch; each op stream may use its cached "
                    f"triplet once per online step"
                )
            raise ProtocolError(
                f"[{self.backend}] Beaver triplet share reused; "
                f"each triplet is single-use"
            )
        self.consumed = True


class _EpochShareMixin:
    """Per-batch share bookkeeping shared by the two triplet kinds.

    ``begin_use(epoch, label)`` is called by the context when an op
    stream fetches its cached triplet.  Within one online step (same
    epoch) repeated ``share_for`` calls hand back the *same*
    :class:`TripletShare` objects, so a second op consuming the stream's
    material in the same batch trips ``mark_consumed`` with a labelled
    error instead of silently reusing masks.  With no epoch tracking
    (standalone use, ``fresh_triplets``) every call issues fresh shares,
    the historical behaviour.
    """

    def begin_use(self, epoch: int | None, label: str | None = None) -> None:
        if label:
            self.label = label
        if epoch is None or epoch != self._epoch:
            self._epoch = epoch
            self._issued.clear()

    def share_for(self, party_id: int) -> TripletShare:
        """Extract the share bundle destined for one server."""
        share = self._issued.get(party_id)
        if share is None:
            share = TripletShare(
                u=self.u[party_id],
                v=self.v[party_id],
                z=self.z[party_id],
                party_id=party_id,
                label=self.label or "",
                backend=getattr(self, "backend", "beaver2pc"),
            )
            if self._epoch is not None:
                self._issued[party_id] = share
        return share


@dataclass
class MatrixTriplet(_EpochShareMixin):
    """Dealer-side triplet for a matrix product of shape (m,k) x (k,n)."""

    u: SharePair
    v: SharePair
    z: SharePair
    shape_a: tuple[int, int]
    shape_b: tuple[int, int]
    label: str | None = None
    backend: str = "beaver2pc"
    uid: int = field(default_factory=_next_triplet_uid, compare=False)
    _epoch: int | None = field(default=None, repr=False, compare=False)
    _issued: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class ElementwiseTriplet(_EpochShareMixin):
    """Dealer-side triplet for an elementwise (Hadamard) product."""

    u: SharePair
    v: SharePair
    z: SharePair
    shape: tuple[int, ...]
    label: str | None = None
    backend: str = "beaver2pc"
    uid: int = field(default_factory=_next_triplet_uid, compare=False)
    _epoch: int | None = field(default=None, repr=False, compare=False)
    _issued: dict = field(default_factory=dict, repr=False, compare=False)
