"""Discrete-event simulation substrate: events, a deterministic event
engine, the FIFO ready queue, and the simulation core — one
struct-of-arrays event loop (:class:`StreamingSimulation`) with an
open-system and a closed-batch (:class:`FastSimulation`) front end.
"""

from .engine import EventEngine
from .events import Event, EventKind
from .fast import CORE_POLICIES, FastSimulation
from .queueing import ReadyQueue
from .stream import (
    ADMISSION_POLICIES,
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
    "FastSimulation",
    "ReadyQueue",
    "STREAM_SNAPSHOT_VERSION",
    "StreamConfig",
    "StreamResult",
    "StreamingSimulation",
    "read_checkpoint",
]
