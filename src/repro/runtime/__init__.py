"""Event-driven dataflow scheduling for the simulated clock.

:class:`DataflowClock` wraps :class:`~repro.simgpu.clock.SimClock` with
deferred :class:`PendingTask` handles and re-times the recorded task
graph with an earliest-start list scheduler at each flush point
(``FrameworkConfig(runtime="dataflow")``).
"""

from repro.runtime.dataflow import DataflowClock, PendingTask

__all__ = ["DataflowClock", "PendingTask"]
