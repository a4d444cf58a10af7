"""Ready queue.

The paper processes arrivals "on a FIFO basis"; stalled jobs are
"enqueued back into the ready queue".  :class:`ReadyQueue` keeps jobs in
arrival order: a job that chooses to stall is simply left where it is,
so it keeps its seniority over younger arrivals; a preempted job is
pushed again at the back.

Occupancy statistics (total enqueued, peak length) are built in.

Implementation: a flat list with tombstones and an identity index
instead of a deque.  The dispatcher's hot operation — remove a specific
job it just picked from the sorted queue view — is O(1) by object
identity (jobs are mutable dataclasses, so identity is the only stable
handle); removal by *value* of an object not present by identity falls
back to the deque-compatible first-equal linear scan.  The two differ
only when distinct-but-equal items coexist in the queue, which the
simulation never produces (queued jobs differ in id, arrival time or
mutable progress state).  The :attr:`mutations` counter increments on
every membership change so callers (the dispatcher's queue view) can
cache derived orderings and invalidate precisely.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, TypeVar

__all__ = ["ReadyQueue"]

T = TypeVar("T")

#: Tombstone threshold: compact once the dead slots outnumber both this
#: floor and the live items (amortised O(1) per operation).
_COMPACT_MIN_DEAD = 64


class ReadyQueue(Generic[T]):
    """FIFO queue with identity removal and occupancy statistics."""

    def __init__(self) -> None:
        self._items: List[Optional[T]] = []
        self._size = 0
        #: id(item) -> slot index (first occurrence wins).
        self._pos: Dict[int, int] = {}
        self.enqueued_total = 0
        self.max_length = 0
        #: Bumps on every membership change (push/remove).
        self.mutations = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[T]:
        return (item for item in self._items if item is not None)

    def push(self, item: T) -> None:
        """Enqueue a job at the back."""
        self._pos.setdefault(id(item), len(self._items))
        self._items.append(item)
        self._size += 1
        self.enqueued_total += 1
        if self._size > self.max_length:
            self.max_length = self._size
        self.mutations += 1

    def remove(self, item: T) -> bool:
        """Remove a specific job; returns whether it was present.

        O(1) when ``item`` itself is queued (the dispatcher's case);
        otherwise a first-equal linear scan, matching deque semantics.
        """
        index = self._pos.get(id(item))
        if index is not None and self._items[index] is item:
            self._items[index] = None
            del self._pos[id(item)]
        else:
            for i, candidate in enumerate(self._items):
                if candidate is not None and candidate == item:
                    self._items[i] = None
                    self._pos.pop(id(candidate), None)
                    break
            else:
                return False
        self._size -= 1
        self.mutations += 1
        if (
            len(self._items) - self._size > _COMPACT_MIN_DEAD
            and len(self._items) > 2 * self._size
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        self._items = [item for item in self._items if item is not None]
        pos: Dict[int, int] = {}
        for i, item in enumerate(self._items):
            pos.setdefault(id(item), i)
        self._pos = pos
