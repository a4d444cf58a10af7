"""Discrete-event simulation substrate: events, a deterministic event
engine, the FIFO ready queue, and the simulation core — one
struct-of-arrays object (:class:`StreamingSimulation`) holding the
tables, the knowledge state and one run of the event loop, over an
open-system stream or a closed batch.
"""

from .engine import EventEngine
from .events import Event, EventKind
from .queueing import ReadyQueue
from .stream import (
    ADMISSION_POLICIES,
    CORE_POLICIES,
    STREAM_SNAPSHOT_VERSION,
    StreamConfig,
    StreamingSimulation,
    StreamResult,
    read_checkpoint,
)

__all__ = [
    "ADMISSION_POLICIES",
    "CORE_POLICIES",
    "Event",
    "EventEngine",
    "EventKind",
    "ReadyQueue",
    "STREAM_SNAPSHOT_VERSION",
    "StreamConfig",
    "StreamResult",
    "StreamingSimulation",
    "read_checkpoint",
]
