"""Event types for the discrete-event engine.

Events are ordered by ``(time, priority, sequence)``: earlier time first,
then lower priority value, then insertion order.  The fixed sequence
component makes every simulation run fully deterministic even when many
events share a timestamp.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["EventKind", "Event"]


class EventKind(enum.IntEnum):
    """What happened.  The integer value doubles as the tie-break
    priority at equal timestamps: completions free cores before new
    arrivals are considered, matching a scheduler invoked "each time a
    benchmark arrived or when a core became idle"."""

    COMPLETION = 0
    ARRIVAL = 1


@dataclass(frozen=True)
class Event:
    """One scheduled occurrence.

    Attributes
    ----------
    time:
        Simulation time in cycles.
    kind:
        Event type (also the equal-time priority).
    payload:
        Arbitrary data for the handler (job, core index, ...).
    """

    time: int
    kind: EventKind
    payload: Any = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be non-negative, got {self.time}")

    def sort_key(self, sequence: int) -> tuple:
        """Total ordering key given the engine-assigned sequence number."""
        return (self.time, int(self.kind), sequence)
