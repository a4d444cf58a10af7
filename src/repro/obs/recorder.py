"""Trace recorders: where the simulation's event stream goes.

The simulation takes any object with the :class:`TraceRecorder`
interface.  The default :data:`NULL_RECORDER` advertises
``enabled = False`` so every emission site can skip even *constructing*
the event (the observation layer costs one attribute load and branch
per hook when off — observation never perturbs the simulation either
way, it only reads).

* :class:`ListRecorder` keeps events in memory (tests, analysis);
* :class:`JsonlRecorder` streams them to a JSONL file with a canonical
  encoding (sorted keys, compact separators), so two runs of the same
  deterministic scenario produce byte-identical files.

:func:`iter_jsonl` is the one line reader for every JSONL artifact a run
writes: traces here and telemetry in :mod:`repro.obs.telemetry`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

from .events import TraceEvent, event_from_dict, validate_event_dict

__all__ = [
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "ListRecorder",
    "JsonlRecorder",
    "encode_event",
    "write_trace",
    "iter_jsonl",
    "iter_trace",
    "read_trace",
]


def encode_event(event: TraceEvent) -> str:
    """Canonical one-line JSON encoding of an event (no newline)."""
    return json.dumps(
        event.to_dict(), sort_keys=True, separators=(",", ":")
    )


class TraceRecorder:
    """Interface the simulation emits events through.

    ``enabled`` lets hot paths skip event construction entirely; a
    recorder that is not enabled never receives events.
    """

    #: Whether emission sites should build and send events.
    enabled: bool = True

    def emit(self, event: TraceEvent) -> None:
        """Record one event (events arrive in simulation order)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any underlying resources (idempotent)."""


class NullRecorder(TraceRecorder):
    """Discards everything; the zero-overhead default."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - skipped
        pass


#: Shared default recorder instance (stateless, safe to share).
NULL_RECORDER = NullRecorder()


class ListRecorder(TraceRecorder):
    """Accumulates events in an in-memory list."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class JsonlRecorder(TraceRecorder):
    """Streams events to a JSONL file (one canonical JSON line each).

    Usable as a context manager; :meth:`close` is idempotent and also
    runs on ``with`` exit.  Pass an open text handle instead of a path
    to write into an existing stream (the handle is then *not* closed).
    """

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if hasattr(target, "write"):
            self._handle: IO[str] = target
            self._owns_handle = False
            self.path: Optional[Path] = None
        else:
            self.path = Path(target)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w", encoding="utf-8", newline="\n")
            self._owns_handle = True
        self.count = 0

    def emit(self, event: TraceEvent) -> None:
        self._handle.write(encode_event(event))
        self._handle.write("\n")
        self.count += 1

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_trace(
    events: Iterable[TraceEvent], path: Union[str, Path]
) -> int:
    """Write a finished event list as a JSONL trace; returns the count."""
    with JsonlRecorder(path) as recorder:
        for event in events:
            recorder.emit(event)
        return recorder.count


def iter_jsonl(path: Union[str, Path]) -> Iterator[Tuple[int, dict]]:
    """``(line number, object)`` for every non-blank line of a JSONL file.

    Each line must be UTF-8 text holding one JSON object; anything else
    raises ``ValueError`` naming ``path:line``.  A missing path or a
    directory raises the ``OSError`` of opening it.
    """
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                payload = json.loads(raw.decode("utf-8"))
            except UnicodeDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not UTF-8 text ({error})"
                ) from None
            except ValueError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON ({error})"
                ) from None
            if not isinstance(payload, dict):
                raise ValueError(
                    f"{path}:{line_number}: expected a JSON object, got "
                    f"{type(payload).__name__}"
                )
            yield line_number, payload


def iter_trace(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Lazily parse a JSONL trace back into typed events.

    Every line is schema-checked (:func:`validate_event_dict`) first, so
    a malformed event raises ``ValueError`` naming ``path:line``.
    """
    for line_number, payload in iter_jsonl(path):
        try:
            validate_event_dict(payload)
        except ValueError as error:
            raise ValueError(f"{path}:{line_number}: {error}") from None
        yield event_from_dict(payload)


def read_trace(path: Union[str, Path]) -> List[TraceEvent]:
    """Parse a whole JSONL trace into a list of typed events."""
    return list(iter_trace(path))
