"""Wire-view auditor: uniformity checks over recorded traffic.

Section 2.2's semi-honest argument says everything a single server
receives is masked by fresh one-time pads, so its wire view must be
statistically indistinguishable from uniform ring noise.  The in-memory
security tests already assert that for shares as the protocol holds
them; this module re-runs the same chi-square byte-frequency test over
what a run actually *recorded on the wire*, link by link — which is
where an optimization bug would leak (a cached masked difference served
to the wrong batch, a CSR delta that skipped re-masking, a debug path
that serialized plaintext).

The statistic matches ``tests/test_security.py``: byte frequencies over
256 bins against the uniform expectation, 255 degrees of freedom, and a
ceiling of 420 (roughly seven sigma — astronomically improbable for
genuinely masked traffic, instantly exceeded by structured data).

Links with fewer than :data:`MIN_AUDIT_BYTES` captured bytes are
reported as ``skipped`` rather than judged: the chi-square approximation
needs a few observations per bin before its tail is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.audit.transcript import Transcript
from repro.util.errors import AuditError

#: Chi-square acceptance ceiling for 255 degrees of freedom (~7 sigma),
#: shared with the in-memory security suite.
CHI2_CEILING = 420.0

#: Minimum captured bytes per link before the chi-square verdict counts
#: (~8 expected observations per bin).
MIN_AUDIT_BYTES = 2048


def chi2_uniform_bytes(buf) -> float:
    """Chi-square statistic of byte frequencies against uniform.

    Accepts raw ``bytes`` or any ndarray (viewed as its underlying
    bytes).  255 degrees of freedom; uniform data lands near 255.
    """
    if isinstance(buf, (bytes, bytearray, memoryview)):
        data = np.frombuffer(bytes(buf), dtype=np.uint8)
    else:
        data = np.ascontiguousarray(buf).reshape(-1).view(np.uint8)
    if data.size == 0:
        raise AuditError("chi2_uniform_bytes: empty buffer")
    counts = np.bincount(data, minlength=256).astype(np.float64)
    expected = data.size / 256.0
    return float(((counts - expected) ** 2 / expected).sum())


@dataclass(frozen=True)
class LinkAudit:
    """Verdict for one directed link's recorded traffic."""

    src: str
    dst: str
    messages: int
    content_bytes: int
    wire_bytes: int
    chi2: float | None
    ceiling: float
    skipped: bool
    reason: str = ""

    @property
    def link(self) -> str:
        return f"{self.src}->{self.dst}"

    @property
    def passed(self) -> bool:
        return self.skipped or (self.chi2 is not None and self.chi2 <= self.ceiling)

    def describe(self) -> str:
        if self.skipped:
            return f"{self.link}: skipped ({self.reason})"
        verdict = "ok" if self.passed else "LEAK"
        return (
            f"{self.link}: chi2={self.chi2:.1f} (ceiling {self.ceiling:.0f}) "
            f"over {self.content_bytes} bytes / {self.messages} messages -> {verdict}"
        )


@dataclass
class WireAuditReport:
    """All link verdicts for one transcript."""

    audits: list[LinkAudit]
    ceiling: float

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.audits)

    @property
    def failures(self) -> list[LinkAudit]:
        return [a for a in self.audits if not a.passed]

    @property
    def max_chi2(self) -> float:
        stats = [a.chi2 for a in self.audits if a.chi2 is not None]
        return max(stats) if stats else 0.0

    def summary(self) -> str:
        judged = [a for a in self.audits if not a.skipped]
        head = (
            f"wire audit: {len(self.audits)} links, {len(judged)} judged, "
            f"{len(self.failures)} failed (ceiling {self.ceiling:.0f})"
        )
        return "\n".join([head, *(f"  {a.describe()}" for a in self.audits)])

    def assert_clean(self, *, context: str = "") -> None:
        if not self.passed:
            prefix = f"{context}: " if context else ""
            raise AuditError(
                prefix + "wire audit failed: "
                + "; ".join(a.describe() for a in self.failures)
            )


def audit_transcript(
    transcript: Transcript,
    *,
    party: str | None = None,
    ceiling: float = CHI2_CEILING,
    min_bytes: int = MIN_AUDIT_BYTES,
    telemetry=None,
) -> WireAuditReport:
    """Chi-square the recorded traffic of every link (or one party's).

    ``party`` restricts the audit to messages *received by* that
    endpoint — the semi-honest adversary's view.  Size-only records
    (no captured payload) contribute to message/byte totals but not to
    the statistic; a link whose captured content is below ``min_bytes``
    is skipped, not judged.

    Repeated identical contents count once: a static operand re-sends
    the same masked difference every batch (same cached triplet), also
    as one part of a packed E/F frame whose other part is fresh.  An
    exact repeat gives a passive observer nothing new, but
    double-counting its byte histogram would scale the chi-square
    statistic by the repeat factor and fail uniform traffic spuriously.
    """
    audits: list[LinkAudit] = []
    for src, dst in transcript.links():
        if party is not None and dst != party:
            continue
        records = transcript.records_for(src=src, dst=dst)
        seen: set[bytes] = set()
        bufs = []
        for r in records:
            for part in r.content_parts():
                if part and part not in seen:
                    seen.add(part)
                    bufs.append(part)
        captured = sum(len(b) for b in bufs)
        wire = sum(r.nbytes for r in records)
        if captured < min_bytes:
            audits.append(LinkAudit(
                src=src, dst=dst, messages=len(records),
                content_bytes=captured, wire_bytes=wire,
                chi2=None, ceiling=ceiling, skipped=True,
                reason=f"{captured} captured bytes < {min_bytes} minimum",
            ))
            continue
        stat = chi2_uniform_bytes(b"".join(bufs))
        audits.append(LinkAudit(
            src=src, dst=dst, messages=len(records),
            content_bytes=captured, wire_bytes=wire,
            chi2=stat, ceiling=ceiling, skipped=False,
        ))
    report = WireAuditReport(audits=audits, ceiling=ceiling)
    if telemetry is not None:
        reg = telemetry.registry
        judged = [a for a in report.audits if not a.skipped]
        reg.counter("audit.links_audited", "links judged by the wire auditor").inc(
            len(judged)
        )
        reg.counter("audit.links_failed", "links over the chi-square ceiling").inc(
            len(report.failures)
        )
        gauge = reg.gauge("audit.chi2", "per-link chi-square statistic")
        for a in judged:
            gauge.set(a.chi2, link=a.link)
    return report


def audit_context(ctx, **kwargs) -> WireAuditReport:
    """Audit the transcript of a context's attached recorder."""
    recorder = getattr(ctx, "recorder", None)
    if recorder is None:
        raise AuditError("context has no attached TranscriptRecorder")
    if kwargs.get("telemetry") is None:
        kwargs["telemetry"] = getattr(ctx, "telemetry", None)
    return audit_transcript(recorder.transcript(), **kwargs)


def assert_byte_accounting(transcript: Transcript, telemetry, *, context: str = "") -> None:
    """Guardrail: transcript frame sizes must equal channel byte charges.

    Every lockstep ``record_wire`` tap carries the exact ``nbytes`` the
    corresponding channel send charged, so per directed link the sum of
    recorded sizes must equal the ``comm.bytes`` counter for that
    ``(src, dst)`` — if the framed codec ever sized a message differently
    from what the simulator charged, the two ledgers diverge here.

    The check is only meaningful on fault-free runs — retransmissions
    and injected duplicates charge the channel without a matching
    lockstep record — so nonzero ``faults.*`` activity is rejected up
    front.
    """
    prefix = f"{context}: " if context else ""
    reg = telemetry.registry
    for name in ("faults.retransmits", "faults.duplicates_suppressed"):
        if name in reg and reg.counter(name).value() > 0:
            raise AuditError(
                f"{prefix}byte accounting needs a fault-free run; "
                f"{name} = {reg.counter(name).value():.0f}"
            )
    recorded: dict[tuple[str, str], int] = {}
    for r in transcript:
        recorded[(r.src, r.dst)] = recorded.get((r.src, r.dst), 0) + r.nbytes
    comm_bytes = reg.counter("comm.bytes")
    mismatches = []
    for (src, dst), total in sorted(recorded.items()):
        charged = int(comm_bytes.value(src=src, dst=dst))
        if charged != total:
            mismatches.append(
                f"{src}->{dst}: transcript {total} bytes != channel {charged} bytes"
            )
    if mismatches:
        raise AuditError(f"{prefix}byte accounting diverged: " + "; ".join(mismatches))
