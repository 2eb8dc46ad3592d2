"""Simulated network links with byte-exact accounting.

A :class:`Channel` is a full-duplex point-to-point link between two named
endpoints.  Each direction is its own serial resource on the shared
:class:`~repro.simgpu.clock.SimClock`, so two servers exchanging their
``E_i``/``F_i`` halves simultaneously (paper Eq. 5) genuinely overlap —
exactly the behaviour of the paper's InfiniBand fabric.

Transfer time = per-message latency + bytes / bandwidth.  Every byte is
tallied in the telemetry registry under ``comm.bytes`` /
``comm.messages`` / ``comm.link_busy_seconds`` (labelled by channel and
direction); the historical :attr:`bytes_sent` / :attr:`messages_sent`
dicts — what the compression experiment (Fig. 16) reads out — are kept
as thin views over those series.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simgpu.clock import SimClock, Task
from repro.telemetry.registry import MetricRegistry
from repro.util.errors import TransportError


@dataclass(frozen=True)
class LinkSpec:
    """Physical parameters of a link."""

    name: str
    bandwidth_gbps: float  # GB/s (bytes, not bits)
    latency_s: float

    def transfer_seconds(self, nbytes: float) -> float:
        return self.latency_s + nbytes / (self.bandwidth_gbps * 1e9)


# 100 Gb/s 4xEDR InfiniBand (paper Section 7.1): ~12.5 GB/s, ~1.5 us MPI latency.
INFINIBAND_100G = LinkSpec(name="4xEDR-IB", bandwidth_gbps=12.0, latency_s=1.5e-6)
# A slower option for sensitivity studies (SecureML's original EC2-style LAN).
ETHERNET_10G = LinkSpec(name="10GbE", bandwidth_gbps=1.1, latency_s=30e-6)


class Channel:
    """Full-duplex link between endpoints ``a`` and ``b``.

    ``telemetry`` (a :class:`~repro.telemetry.Telemetry`) shares one
    registry across the deployment; without it the channel keeps a
    private registry so standalone use stays self-accounting.
    """

    def __init__(self, clock: SimClock, spec: LinkSpec, a: str, b: str, *, telemetry=None):
        self.clock = clock
        self.spec = spec
        self.a = a
        self.b = b
        self.label = f"{a}<->{b}"
        self._dir = {
            (a, b): f"link.{a}->{b}",
            (b, a): f"link.{b}->{a}",
        }
        for res in self._dir.values():
            clock.add_resource(res)
        registry = telemetry.registry if telemetry is not None else MetricRegistry()
        self._bytes = registry.counter("comm.bytes", "wire bytes per link direction")
        self._messages = registry.counter("comm.messages", "messages per link direction")
        self._busy = registry.counter(
            "comm.link_busy_seconds", "per-direction link occupancy (busy seconds)"
        )
        self._coalesced = registry.counter(
            "comm.coalesced_messages", "messages absorbed into packed round frames"
        )

    def send(self, src: str, dst: str, nbytes: int, deps=(), label: str = "msg") -> Task:
        """Charge one message of ``nbytes`` from ``src`` to ``dst``.

        Returns the delivery task; the receiver's next step should depend
        on it.
        """
        key = (src, dst)
        if key not in self._dir:
            raise TransportError(
                f"channel {self.a}<->{self.b} does not connect {src} to {dst}"
            )
        if nbytes < 0:
            raise TransportError(f"negative message size {nbytes}")
        seconds = self.spec.transfer_seconds(nbytes)
        self._bytes.inc(int(nbytes), channel=self.label, src=src, dst=dst)
        self._messages.inc(1, channel=self.label, src=src, dst=dst)
        self._busy.inc(seconds, channel=self.label, src=src, dst=dst)
        return self.clock.run(self._dir[key], seconds, deps=deps, label=label)

    def send_framed(
        self, src: str, dst: str, sizes, deps=(), label: str = "frame", parts: int = 1
    ) -> Task:
        """Charge one *framed* message whose size came from the codec.

        ``sizes`` is a :class:`repro.comm.wire.FramedSizes`: the full
        frame (body + headers) is charged through :meth:`send`, so
        retransmission/fault semantics of subclasses apply unchanged.
        ``parts`` > 1 marks a packed round frame; the messages it
        absorbed (parts - 1) are tallied in ``comm.coalesced_messages``.
        """
        task = self.send(src, dst, sizes.nbytes, deps=deps, label=label)
        if parts > 1:
            self._coalesced.inc(parts - 1, channel=self.label, src=src, dst=dst)
        return task

    # -- thin views over the registry (historical counter surface) -------------

    def _view(self, counter) -> dict[tuple[str, str], int]:
        return {
            key: int(counter.value(channel=self.label, src=key[0], dst=key[1]))
            for key in self._dir
        }

    @property
    def bytes_sent(self) -> dict[tuple[str, str], int]:
        return self._view(self._bytes)

    @property
    def messages_sent(self) -> dict[tuple[str, str], int]:
        return self._view(self._messages)

    def busy_seconds(self, src: str, dst: str) -> float:
        """Accumulated occupancy of one direction of the link."""
        return self._busy.value(channel=self.label, src=src, dst=dst)

    @property
    def total_bytes(self) -> int:
        return int(self._bytes.value(channel=self.label))

    @property
    def total_messages(self) -> int:
        return int(self._messages.value(channel=self.label))

    def reset_counters(self) -> None:
        for counter in (self._bytes, self._messages, self._busy):
            counter.reset(channel=self.label)
