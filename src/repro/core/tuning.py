"""The cache tuning heuristic (paper §IV.F, its Figure 5).

When an application is scheduled to a core whose best configuration is
unknown, the heuristic determines it incrementally — one configuration
per execution — resuming across executions through the profiling table:

* explore the **associativity first** ("the associativity has the second
  largest impact on energy after the size"), then the line size;
* each parameter runs **smallest to largest** ("to minimise cache
  flushing");
* exploration starts at the smallest value of both parameters; a
  parameter keeps increasing **while energy decreases** and stops at the
  first increase (greedy hill descent) or at the parameter's maximum.

On a core of associativities {1, 2, 4} and line sizes {16, 32, 64} the
heuristic therefore tries at least 3 and at most 5 configurations of the
9 the core offers (the paper's bound of "a minimum of three ... and a
maximum of nine ... out of 18" counts both tuned parameters across the
subsetted cores).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cache.config import (
    LINE_SIZES_B,
    CacheConfig,
    associativities_for_size,
)

__all__ = ["TuningSession", "TuningHeuristic"]


@dataclass
class TuningSession:
    """Resumable heuristic state for one (application, cache size).

    The session is a small state machine: ``phase`` is the parameter
    currently being swept (``assoc`` then ``line`` by default), and
    ``done`` after both sweeps converge.  Feed it measurements with
    :meth:`record`; ask what to run next with :meth:`next_config`.

    ``line_first=True`` swaps the sweep order (line size before
    associativity) — the paper argues associativity-first is right
    because "the associativity has the second largest impact on energy
    after the size"; the tuning-order ablation benchmark measures that
    choice.
    """

    size_kb: int
    line_first: bool = False
    phase: str = ""
    best_config: Optional[CacheConfig] = None
    best_energy_nj: float = float("inf")
    explored: List[CacheConfig] = field(default_factory=list)
    _first_index: int = 0
    _second_index: int = 0
    _chosen_first: Optional[int] = None

    def __post_init__(self) -> None:
        assoc_values = associativities_for_size(self.size_kb)
        line_values = tuple(sorted(LINE_SIZES_B))
        if self.line_first:
            self._first_values: Tuple[int, ...] = line_values
            self._second_values: Tuple[int, ...] = assoc_values
        else:
            self._first_values = assoc_values
            self._second_values = line_values
        if not self.phase:
            self.phase = "first"

    def _build_config(self, first: int, second: int) -> CacheConfig:
        if self.line_first:
            return CacheConfig(size_kb=self.size_kb, assoc=second, line_b=first)
        return CacheConfig(size_kb=self.size_kb, assoc=first, line_b=second)

    @property
    def done(self) -> bool:
        """Whether the best configuration for this size is now known."""
        return self.phase == "done"

    def next_config(self) -> Optional[CacheConfig]:
        """The configuration the next execution should use, or None."""
        if self.phase == "first":
            return self._build_config(
                self._first_values[self._first_index], self._second_values[0]
            )
        if self.phase == "second":
            return self._build_config(
                self._chosen_first, self._second_values[self._second_index]
            )
        return None

    def record(self, config: CacheConfig, energy_nj: float) -> None:
        """Feed the measured energy of the configuration just executed.

        Advances the state machine per Figure 5's flow.
        """
        if self.done:
            raise RuntimeError("tuning session already complete")
        expected = self.next_config()
        if config != expected:
            raise ValueError(
                f"heuristic expected {expected.name}, got {config.name}"
            )
        if energy_nj < 0:
            raise ValueError("energy must be non-negative")
        self.explored.append(config)

        improved = energy_nj < self.best_energy_nj
        if improved:
            self.best_energy_nj = energy_nj
            self.best_config = config

        if self.phase == "first":
            at_max = self._first_index == len(self._first_values) - 1
            if improved and not at_max:
                self._first_index += 1
                return
            # Energy rose (or the range is exhausted): fix the best value
            # of the first parameter and sweep the second.
            self._chosen_first = (
                self.best_config.line_b
                if self.line_first
                else self.best_config.assoc
            )
            self.phase = "second"
            # The smallest value of the second parameter was already
            # measured during the first sweep (same config), so start at
            # the second value.
            self._second_index = 1
            if self._second_index >= len(self._second_values):
                self.phase = "done"
            return

        # phase == "second"
        at_max = self._second_index == len(self._second_values) - 1
        if improved and not at_max:
            self._second_index += 1
            return
        self.phase = "done"

    @property
    def exploration_count(self) -> int:
        """How many configurations this session has executed."""
        return len(self.explored)


class TuningHeuristic:
    """Factory/bookkeeper for tuning sessions across applications.

    Sessions are keyed by (benchmark, cache size); the scheduler asks for
    a session whenever it dispatches an application to a core whose best
    configuration is unknown, exactly as the profiling table "enables the
    tuning heuristic to operate across multiple application executions".
    """

    def __init__(self) -> None:
        self._sessions: dict = {}

    def session(self, benchmark: str, size_kb: int) -> TuningSession:
        """The (created-on-first-use) session for one application/size."""
        key = (benchmark, size_kb)
        existing = self._sessions.get(key)
        if existing is None:
            existing = TuningSession(size_kb=size_kb)
            self._sessions[key] = existing
        return existing

    def sessions(self) -> dict:
        """All sessions, keyed by (benchmark, size_kb)."""
        return dict(self._sessions)

    def max_exploration_count(self) -> int:
        """Largest per-session exploration count seen so far."""
        if not self._sessions:
            return 0
        return max(s.exploration_count for s in self._sessions.values())
