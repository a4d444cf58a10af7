"""Arrival-stream generation for the scheduler simulation.

The paper "created 5000 uniform distribution arrival times of these
benchmarks to ensure that the system executed long enough to depict
stable results"; benchmarks are enqueued on arrival and processed FIFO.

:func:`uniform_arrivals` reproduces that setup: job arrival times drawn
uniformly over a horizon, each job an independently drawn benchmark from
the suite.  A Poisson process generator is provided for the arrival-rate
ablation.

Open-system streaming runs consume *unbounded* arrival processes
instead of materialised lists: :class:`PoissonProcess`,
:class:`MMPPProcess` (bursty, Markov-modulated) and
:class:`DiurnalProcess` (sinusoidal rate curve) generate jobs one fixed
chunk at a time, so arrival memory stays O(chunk) no matter how long
the run lasts.  Every process draws its randomness in a fixed per-chunk
order, which makes streams **prefix-stable**: the first N jobs are the
same no matter how far the stream is eventually advanced, and
:func:`poisson_arrivals` delegates to :class:`PoissonProcess` so a
truncated stream is bit-identical to the closed-batch list.  Processes
expose :meth:`~ArrivalProcess.state_dict` / :meth:`~ArrivalProcess.load_state`
so a streaming checkpoint can capture and resume the RNG mid-stream.

Each job is a :class:`JobArrival` named tuple, so the simulation core
unpacks a row by position.  A directly built row is checked field by
field; the generators instead build each chunk in bulk from the numpy
columns they draw, checking the columns once (the same messages, plus
the int64 limit of the arrival clock, which a huge mean gap would
otherwise wrap negative).
"""

from __future__ import annotations

import math

from collections import namedtuple
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro._util import check_cycles, check_finite, check_int, check_number

from .benchmark import BenchmarkSpec

__all__ = [
    "ArrivalProcess",
    "DiurnalProcess",
    "JobArrival",
    "MMPPProcess",
    "PoissonProcess",
    "QoSProcess",
    "STREAM_CHUNK",
    "make_process",
    "poisson_arrivals",
    "uniform_arrivals",
    "with_qos",
]

#: Arrivals generated per refill.  The chunk size is part of a stream's
#: identity: RNG draws are batched per chunk, so two streams are
#: bit-identical only when they share it.  The default is what
#: :func:`poisson_arrivals` (and therefore the closed-batch prefix
#: guarantee) is pinned to.
STREAM_CHUNK = 1024


class JobArrival(
    namedtuple(
        "JobArrival",
        ("job_id", "benchmark", "arrival_cycle", "priority",
         "deadline_cycle"),
        defaults=(0, None),
    )
):
    """One job: which benchmark arrives, and when (in cycles).

    ``priority`` and ``deadline_cycle`` feed the priority/deadline
    scheduling extension (paper future work); the defaults reproduce the
    paper's plain FIFO workload.

    A named tuple, so the simulation core reads a row by position.
    Building one (or :meth:`_replace`) checks the row; ``_make`` does
    not, and is what the generators below use for whole chunks once
    their columns are checked (:func:`_chunk_rows`).
    """

    __slots__ = ()

    def __new__(
        cls,
        job_id: int,
        benchmark: str,
        arrival_cycle: int,
        priority: int = 0,
        deadline_cycle: Optional[int] = None,
    ) -> "JobArrival":
        if job_id < 0:
            raise ValueError("job_id must be non-negative")
        if arrival_cycle < 0:
            raise ValueError("arrival_cycle must be non-negative")
        if deadline_cycle is not None and deadline_cycle < arrival_cycle:
            raise ValueError("deadline cannot precede the arrival")
        return super().__new__(
            cls, job_id, benchmark, arrival_cycle, priority, deadline_cycle
        )

    def _replace(self, **changes) -> "JobArrival":
        row = type(self)(*map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return row


def _chunk_rows(
    base: int, names: Sequence[str], clock: np.ndarray
) -> List[JobArrival]:
    """One chunk of plain arrivals from its drawn columns.

    ``clock`` holds the chunk's non-decreasing arrival times (float or
    int); the job ids run from ``base``.  The row checks of
    :class:`JobArrival` run once over the columns, and the clock is
    checked against the int64 limit before it is cast.
    """
    if base < 0:
        raise ValueError("job_id must be non-negative")
    check_cycles("mean_interarrival_cycles", clock[-1].item())
    cycles = clock.astype(np.int64)
    if cycles[0] < 0:
        raise ValueError("arrival_cycle must be non-negative")
    return list(map(JobArrival._make, zip(
        range(base, base + len(cycles)), names, cycles.tolist(),
        repeat(0), repeat(None),
    )))


def _draw_benchmarks(
    specs: Sequence[BenchmarkSpec], count: int, rng: np.random.Generator
) -> List[str]:
    if not specs:
        raise ValueError("need at least one benchmark spec")
    indices = rng.integers(0, len(specs), size=count)
    return [specs[i].name for i in indices.tolist()]


def uniform_arrivals(
    specs: Sequence[BenchmarkSpec],
    count: int = 5000,
    horizon_cycles: int = None,
    seed: int = 0,
    mean_interarrival_cycles: int = 56_000,
) -> List[JobArrival]:
    """Uniformly distributed arrival times over a horizon (paper §V).

    Parameters
    ----------
    specs:
        Benchmark suite to draw jobs from (uniformly).
    count:
        Number of arrivals (the paper used 5000).
    horizon_cycles:
        Arrival window; defaults to ``count * mean_interarrival_cycles``.
    seed:
        RNG seed.
    mean_interarrival_cycles:
        Used only to size the default horizon; tuning it controls
        contention (smaller → more simultaneous jobs → busier best cores).
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    horizon_name = "horizon_cycles"
    if horizon_cycles is None:
        horizon_name = "mean_interarrival_cycles"
        horizon_cycles = count * mean_interarrival_cycles
    check_finite("horizon_cycles", horizon_cycles)
    check_cycles(horizon_name, horizon_cycles)
    rng = np.random.default_rng(seed)
    times = np.sort(rng.integers(0, horizon_cycles, size=count))
    return _chunk_rows(0, _draw_benchmarks(specs, count, rng), times)


def poisson_arrivals(
    specs: Sequence[BenchmarkSpec],
    count: int = 5000,
    mean_interarrival_cycles: float = 60_000.0,
    seed: int = 0,
) -> List[JobArrival]:
    """Poisson arrival process (exponential inter-arrival times).

    Used by the arrival-rate ablation; the paper itself used uniform
    arrival times.  This is exactly the first ``count`` jobs of
    :class:`PoissonProcess` with the same parameters, so closed-batch
    runs are bit-identical prefixes of the open-system stream.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    return PoissonProcess(
        specs,
        mean_interarrival_cycles=mean_interarrival_cycles,
        seed=seed,
    ).take(count)


# -- open-system arrival processes ------------------------------------------


def _rng_state(rng: np.random.Generator) -> dict:
    """JSON-serialisable generator state (plain dicts and ints)."""
    return rng.bit_generator.state


def _checked_rng(label: str, state) -> np.random.Generator:
    """A generator at ``state``, a PCG64 position :func:`_rng_state`
    wrote: both 128-bit words (``inc`` odd) and the buffered 32-bit
    half are checked first, each a :class:`ValueError` naming it."""
    if not isinstance(state, dict) or state.get("bit_generator") != "PCG64":
        raise ValueError(f"{label} must be a PCG64 generator state, got "
                         f"{state!r}")
    words = state.get("state")
    if not isinstance(words, dict):
        raise ValueError(f"{label} 'state' must be an object, got {words!r}")
    for key, value, bits in (
        ("state", words.get("state"), 128), ("inc", words.get("inc"), 128),
        ("has_uint32", state.get("has_uint32"), 1),
        ("uinteger", state.get("uinteger"), 32),
    ):
        check_int(f"{label} {key}", value, minimum=0, maximum=2 ** bits - 1)
    if words["inc"] % 2 == 0:
        raise ValueError(f"{label} inc must be odd, got {words['inc']!r}")
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


class ArrivalProcess:
    """An unbounded arrival stream, generated one chunk at a time.

    Subclasses implement :meth:`next_chunk`, which returns the next
    ``chunk`` jobs in non-decreasing ``arrival_cycle`` order with
    consecutive ``job_id`` values.  All randomness is drawn in a fixed
    per-chunk order, so the stream is *prefix-stable*: the first N jobs
    never depend on how far the stream is later advanced.

    :meth:`state_dict` / :meth:`load_state` capture and restore the
    full generator state (RNG, clock, next job id) for checkpointing;
    :meth:`params` is the compatibility fingerprint a checkpoint embeds
    so resuming against a differently-configured process fails loudly.
    """

    kind = "arrival"

    def __init__(
        self,
        specs: Sequence[BenchmarkSpec],
        *,
        seed: int = 0,
        chunk: int = STREAM_CHUNK,
    ) -> None:
        if not specs:
            raise ValueError("need at least one benchmark spec")
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        self.names: List[str] = [spec.name for spec in specs]
        self.seed = seed
        self.chunk = chunk
        self._rng = np.random.default_rng(seed)
        self._next_id = 0
        #: Time of the last arrival drawn.
        self._clock = 0.0

    def next_chunk(self) -> List[JobArrival]:
        """The next ``chunk`` arrivals (advances the stream)."""
        raise NotImplementedError

    def take(self, count: int) -> List[JobArrival]:
        """Materialise the next ``count`` jobs.

        Whole chunks are always drawn (that is what keeps truncation
        prefix-stable), so up to ``chunk - 1`` generated jobs beyond
        ``count`` are discarded.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        out: List[JobArrival] = []
        while len(out) < count:
            out.extend(self.next_chunk())
        return out[:count]

    def params(self) -> Dict[str, object]:
        """Stream-identity fingerprint (checked on checkpoint resume)."""
        return {
            "kind": self.kind,
            "names": list(self.names),
            "seed": self.seed,
            "chunk": self.chunk,
        }

    def state_dict(self) -> dict:
        """JSON-serialisable stream position (RNG, clock, next id)."""
        return {
            "rng": _rng_state(self._rng),
            "next_id": self._next_id,
            "clock": self._clock,
        }

    @classmethod
    def _checked_state(cls, state, params: dict) -> dict:
        """The attributes :meth:`load_state` sets from ``state``, a
        position :meth:`state_dict` wrote for a process with ``params``
        (:meth:`params`).  A missing or mistyped field is a
        :class:`ValueError` naming it."""
        if not isinstance(state, dict):
            raise ValueError(
                f"a {cls.kind} process state is a JSON object, got {state!r}"
            )
        label = f"{cls.kind} process"
        clock = check_number(f"{label} 'clock'", state.get("clock"))
        if clock < 0:
            raise ValueError(f"{label} 'clock' must be >= 0, got {clock!r}")
        check_cycles(f"{label} 'clock'", clock)
        return {
            "_rng": _checked_rng(f"{label} 'rng'", state.get("rng")),
            "_next_id": check_int(
                f"{label} 'next_id'", state.get("next_id"), minimum=0
            ),
            "_clock": float(clock),
        }

    def load_state(self, state: dict) -> None:
        """Restore a position previously captured by :meth:`state_dict`.

        Every field is checked first, so a bad one is a
        :class:`ValueError` naming it, with the process untouched.
        """
        self._install(self._checked_state(state, self.params()))

    def _install(self, values: dict) -> None:
        vars(self).update(values)


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals (exponential inter-arrival gaps).

    Per chunk the draw order is: all gaps, then all benchmark indices —
    the batched order :func:`poisson_arrivals` has always used, now at
    fixed chunk granularity so any prefix of the stream matches the
    closed-batch list bit for bit.
    """

    kind = "poisson"

    def __init__(
        self,
        specs: Sequence[BenchmarkSpec],
        *,
        mean_interarrival_cycles: float = 60_000.0,
        seed: int = 0,
        chunk: int = STREAM_CHUNK,
    ) -> None:
        super().__init__(specs, seed=seed, chunk=chunk)
        self.mean_interarrival_cycles = check_finite(
            "mean_interarrival_cycles", mean_interarrival_cycles
        )

    def next_chunk(self) -> List[JobArrival]:
        rng = self._rng
        chunk = self.chunk
        gaps = rng.exponential(self.mean_interarrival_cycles, size=chunk)
        # Seeding the cumulative sum with the carried clock reproduces
        # the exact left-to-right float additions one long cumsum over
        # the whole stream would perform (x + 0.0 is exact for the
        # first chunk), so chunking never perturbs arrival times.
        times = np.cumsum(np.concatenate(((self._clock,), gaps)))[1:]
        indices = rng.integers(0, len(self.names), size=chunk)
        rows = _chunk_rows(
            self._next_id, list(map(self.names.__getitem__, indices.tolist())),
            times,
        )
        self._clock = float(times[-1])
        self._next_id += chunk
        return rows

    def params(self) -> Dict[str, object]:
        fingerprint = super().params()
        fingerprint["mean_interarrival_cycles"] = (
            self.mean_interarrival_cycles
        )
        return fingerprint


class MMPPProcess(ArrivalProcess):
    """Bursty arrivals: a two-state Markov-modulated Poisson process.

    The process alternates between a *normal* phase (mean gap
    ``mean_interarrival_cycles``) and a *burst* phase (mean gap divided
    by ``burst_factor``); phase sojourns are exponential.  A gap that
    would cross the current phase boundary is redrawn from the boundary
    in the new phase — exact for exponential gaps (memorylessness), and
    what keeps the draw sequence a pure function of the jobs emitted so
    far (hence prefix-stable at any truncation point, not just chunk
    multiples).
    """

    kind = "mmpp"

    def __init__(
        self,
        specs: Sequence[BenchmarkSpec],
        *,
        mean_interarrival_cycles: float = 60_000.0,
        burst_factor: float = 8.0,
        mean_normal_sojourn_cycles: float = 50_000_000.0,
        mean_burst_sojourn_cycles: float = 10_000_000.0,
        seed: int = 0,
        chunk: int = STREAM_CHUNK,
    ) -> None:
        super().__init__(specs, seed=seed, chunk=chunk)
        self.mean_interarrival_cycles = check_finite(
            "mean_interarrival_cycles", mean_interarrival_cycles
        )
        self.burst_factor = check_finite(
            "burst_factor", burst_factor, minimum=1.0
        )
        self.mean_normal_sojourn_cycles = check_finite(
            "mean_normal_sojourn_cycles", mean_normal_sojourn_cycles
        )
        self.mean_burst_sojourn_cycles = check_finite(
            "mean_burst_sojourn_cycles", mean_burst_sojourn_cycles
        )
        self._gap_means = (
            self.mean_interarrival_cycles,
            self.mean_interarrival_cycles / self.burst_factor,
        )
        self._sojourn_means = (
            self.mean_normal_sojourn_cycles,
            self.mean_burst_sojourn_cycles,
        )
        self._phase = 0
        self._phase_end = float(
            self._rng.exponential(self._sojourn_means[0])
        )

    def next_chunk(self) -> List[JobArrival]:
        rng = self._rng
        names = self.names
        n_names = len(names)
        picks: List[str] = []
        clocks: List[float] = []
        clock = self._clock
        phase = self._phase
        phase_end = self._phase_end
        gap_means = self._gap_means
        sojourn_means = self._sojourn_means
        for _ in range(self.chunk):
            while True:
                gap = rng.exponential(gap_means[phase])
                if clock + gap <= phase_end:
                    clock = clock + gap
                    break
                clock = phase_end
                phase = 1 - phase
                phase_end = clock + rng.exponential(sojourn_means[phase])
            picks.append(names[int(rng.integers(0, n_names))])
            clocks.append(clock)
        rows = _chunk_rows(self._next_id, picks, np.array(clocks))
        self._clock = clock
        self._phase = phase
        self._phase_end = phase_end
        self._next_id += self.chunk
        return rows

    def params(self) -> Dict[str, object]:
        fingerprint = super().params()
        fingerprint.update(
            mean_interarrival_cycles=self.mean_interarrival_cycles,
            burst_factor=self.burst_factor,
            mean_normal_sojourn_cycles=self.mean_normal_sojourn_cycles,
            mean_burst_sojourn_cycles=self.mean_burst_sojourn_cycles,
        )
        return fingerprint

    def state_dict(self) -> dict:
        state = super().state_dict()
        state.update(phase=self._phase, phase_end=self._phase_end)
        return state

    @classmethod
    def _checked_state(cls, state, params: dict) -> dict:
        values = super()._checked_state(state, params)
        clock = values["_clock"]
        values["_phase"] = check_int(
            "mmpp process 'phase'", state.get("phase"), minimum=0, maximum=1
        )
        # A phase ends no earlier than the arrivals drawn inside it.
        phase_end = check_number(
            "mmpp process 'phase_end'", state.get("phase_end")
        )
        if phase_end < clock:
            raise ValueError(
                f"mmpp process 'phase_end' {phase_end!r} is before its "
                f"'clock' {clock!r}"
            )
        values["_phase_end"] = float(phase_end)
        return values


class DiurnalProcess(ArrivalProcess):
    """Non-homogeneous Poisson arrivals under a sinusoidal rate curve.

    The instantaneous rate is ``(1 + amplitude * sin(2π t / period +
    phase)) / mean_interarrival_cycles``, sampled by Lewis-Shedler
    thinning against the peak rate.  Candidate gap and acceptance draws
    interleave per accepted job, so the stream is prefix-stable at any
    truncation point.
    """

    kind = "diurnal"

    def __init__(
        self,
        specs: Sequence[BenchmarkSpec],
        *,
        mean_interarrival_cycles: float = 60_000.0,
        period_cycles: float = 100_000_000.0,
        amplitude: float = 0.5,
        phase: float = 0.0,
        seed: int = 0,
        chunk: int = STREAM_CHUNK,
    ) -> None:
        super().__init__(specs, seed=seed, chunk=chunk)
        self.mean_interarrival_cycles = check_finite(
            "mean_interarrival_cycles", mean_interarrival_cycles
        )
        self.period_cycles = check_finite("period_cycles", period_cycles)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be within [0, 1)")
        self.amplitude = float(amplitude)
        self.phase = float(phase)

    def next_chunk(self) -> List[JobArrival]:
        rng = self._rng
        names = self.names
        n_names = len(names)
        mean = self.mean_interarrival_cycles
        peak_rate = (1.0 + self.amplitude) / mean
        peak_gap_mean = mean / (1.0 + self.amplitude)
        omega = 2.0 * math.pi / self.period_cycles
        amplitude = self.amplitude
        phase = self.phase
        sin = math.sin
        picks: List[str] = []
        clocks: List[float] = []
        clock = self._clock
        for _ in range(self.chunk):
            while True:
                clock = clock + rng.exponential(peak_gap_mean)
                rate = (1.0 + amplitude * sin(omega * clock + phase)) / mean
                if rng.random() * peak_rate <= rate:
                    break
            picks.append(names[int(rng.integers(0, n_names))])
            clocks.append(clock)
        rows = _chunk_rows(self._next_id, picks, np.array(clocks))
        self._clock = clock
        self._next_id += self.chunk
        return rows

    def params(self) -> Dict[str, object]:
        fingerprint = super().params()
        fingerprint.update(
            mean_interarrival_cycles=self.mean_interarrival_cycles,
            period_cycles=self.period_cycles,
            amplitude=self.amplitude,
            phase=self.phase,
        )
        return fingerprint


class QoSProcess(ArrivalProcess):
    """Wrap a process with :func:`with_qos`-style priorities/deadlines.

    Annotation randomness comes from its own stream (``seed``), drawn
    per job in :func:`with_qos`'s exact order, so
    ``QoSProcess(inner).take(N)`` equals
    ``with_qos(inner.take(N), ...)`` with the same seed.
    """

    kind = "qos"

    def __init__(
        self,
        inner: ArrivalProcess,
        *,
        service_estimate: Callable[[str], int],
        priority_levels: int = 3,
        deadline_slack: float = 3.0,
        deadline_fraction: float = 1.0,
        seed: int = 0,
    ) -> None:
        _check_qos(priority_levels, deadline_slack, deadline_fraction)
        self.inner = inner
        self.names = list(inner.names)
        self.seed = seed
        self.chunk = inner.chunk
        self.service_estimate = service_estimate
        self.priority_levels = priority_levels
        self.deadline_slack = float(deadline_slack)
        self.deadline_fraction = float(deadline_fraction)
        self._rng = np.random.default_rng(seed)

    def next_chunk(self) -> List[JobArrival]:
        return _annotate_qos(
            self.inner.next_chunk(),
            self._rng,
            self.service_estimate,
            self.priority_levels,
            self.deadline_slack,
            self.deadline_fraction,
        )

    def params(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "priority_levels": self.priority_levels,
            "deadline_slack": self.deadline_slack,
            "deadline_fraction": self.deadline_fraction,
            "inner": self.inner.params(),
        }

    def state_dict(self) -> dict:
        return {
            "rng": _rng_state(self._rng),
            "inner": self.inner.state_dict(),
        }

    @classmethod
    def _checked_state(cls, state, params: dict) -> dict:
        if not isinstance(state, dict):
            raise ValueError(
                f"a qos process state is a JSON object, got {state!r}"
            )
        return {
            "_rng": _checked_rng("qos process 'rng'", state.get("rng")),
            "inner": _checked_process_state(
                params.get("inner"), state.get("inner")
            ),
        }

    def _install(self, values: dict) -> None:
        self.inner._install(values.pop("inner"))
        vars(self).update(values)


#: Factory-constructible process kinds (CLI / campaign surface).
PROCESS_KINDS = ("poisson", "mmpp", "diurnal")

#: Every process class by its ``kind``, for checking a saved state
#: without a process object.
_CLASSES = {
    cls.kind: cls
    for cls in (
        ArrivalProcess, PoissonProcess, MMPPProcess, DiurnalProcess,
        QoSProcess,
    )
}


def _checked_process_state(params, state) -> dict:
    """What a process with ``params`` (its :meth:`~ArrivalProcess.params`)
    restores from ``state``: its class's field checks, run without a
    process object (a checkpoint is checked before anything is
    restored)."""
    kind = params.get("kind") if isinstance(params, dict) else None
    if kind not in _CLASSES:
        raise ValueError(f"unknown arrival process kind {kind!r}")
    return _CLASSES[kind]._checked_state(state, params)


def make_process(
    kind: str,
    specs: Sequence[BenchmarkSpec],
    *,
    mean_interarrival_cycles: float = 60_000.0,
    seed: int = 0,
    chunk: int = STREAM_CHUNK,
    **kwargs,
) -> ArrivalProcess:
    """Build one of the named arrival processes (CLI/campaign surface)."""
    if kind == "poisson":
        cls = PoissonProcess
    elif kind == "mmpp":
        cls = MMPPProcess
    elif kind == "diurnal":
        cls = DiurnalProcess
    else:
        raise ValueError(
            f"unknown arrival process {kind!r}; "
            f"choose from {PROCESS_KINDS}"
        )
    return cls(
        specs,
        mean_interarrival_cycles=mean_interarrival_cycles,
        seed=seed,
        chunk=chunk,
        **kwargs,
    )


def with_qos(
    arrivals: Sequence[JobArrival],
    *,
    service_estimate: Callable[[str], int],
    priority_levels: int = 3,
    deadline_slack: float = 3.0,
    deadline_fraction: float = 1.0,
    seed: int = 0,
) -> List[JobArrival]:
    """Annotate an arrival stream with priorities and deadlines.

    Supports the paper's future-work extension ("systems with
    preemption, priority, and deadlines"):

    * each job draws a uniform priority in ``[0, priority_levels)``;
    * a ``deadline_fraction`` share of jobs receive a completion
      deadline of ``arrival + deadline_slack × service_estimate``,
      where ``service_estimate(benchmark)`` supplies a nominal
      execution time (typically the base-configuration cycles from the
      characterisation store).
    """
    _check_qos(priority_levels, deadline_slack, deadline_fraction)
    return _annotate_qos(
        arrivals,
        np.random.default_rng(seed),
        service_estimate,
        priority_levels,
        deadline_slack,
        deadline_fraction,
    )


def _check_qos(
    priority_levels: int, deadline_slack: float, deadline_fraction: float
) -> None:
    if priority_levels <= 0:
        raise ValueError("priority_levels must be positive")
    if deadline_slack <= 0:
        raise ValueError("deadline_slack must be positive")
    if not 0.0 <= deadline_fraction <= 1.0:
        raise ValueError("deadline_fraction must be within [0, 1]")


def _annotate_qos(
    arrivals: Sequence[JobArrival],
    rng: np.random.Generator,
    service_estimate: Callable[[str], int],
    priority_levels: int,
    deadline_slack: float,
    deadline_fraction: float,
) -> List[JobArrival]:
    """The per-job QoS draws of :func:`with_qos` and
    :class:`QoSProcess`: a priority, then a deadline coin flip, per job
    in order."""
    annotated: List[JobArrival] = []
    for arrival in arrivals:
        priority = int(rng.integers(0, priority_levels))
        deadline: Optional[int] = None
        if rng.random() < deadline_fraction:
            nominal = int(service_estimate(arrival.benchmark))
            if nominal <= 0:
                raise ValueError(
                    f"service estimate must be positive for "
                    f"{arrival.benchmark!r}"
                )
            deadline = arrival.arrival_cycle + int(
                round(deadline_slack * nominal)
            )
        annotated.append(
            arrival._replace(priority=priority, deadline_cycle=deadline)
        )
    return annotated
