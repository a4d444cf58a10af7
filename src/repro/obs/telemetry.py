"""Low-overhead sampled telemetry for the fast and streaming engines.

The simulation core behind both engines — one event loop,
:meth:`repro.sim.stream.StreamingSimulation.advance`, which also runs
closed batches (:meth:`~repro.sim.stream.StreamingSimulation.run_batch`)
— compiles the
per-event observability hooks out of its hot loop; that is what makes
it fast.  A run at the scale the ROADMAP cares about (millions of
jobs, sustained load) would otherwise be a black box until the final
result.  :class:`Telemetry` closes that gap without reopening the hot
path: the loop feeds it once every ``sample_every`` completions on
both front ends, plus a final sample at drain, where it *reads* engine
state — queue depth, per-core busy cycles and cache configuration,
jobs done, P² wait quantiles, energy accrued, throughput — and appends
one versioned JSONL sample.

Three invariants make it safe and resumable:

* **Non-perturbation** — telemetry only reads state the engine already
  maintains; a telemetry-on run is bit-identical (results and post-run
  state) to a telemetry-off run.  The engines guard every telemetry
  touch point with a single integer compare against a sentinel, so the
  telemetry-off cost is one compare per completion.
* **Determinism** — JSONL samples carry only simulation-derived fields
  (no wall-clock timestamps), canonically encoded (sorted keys, compact
  separators, ASCII), so a fixed run always produces byte-identical
  telemetry files.  Wall-clock rates appear only on the ephemeral
  ``--progress`` stderr line.
* **Resumability** — :meth:`Telemetry.state_dict` records the sample
  count and exact byte offsets of both output files; the streaming
  checkpoint folds that in, and :meth:`Telemetry.load_state` truncates
  the files back to the recorded offsets on resume, so a killed and
  resumed stream reproduces byte-identical telemetry JSONL.

On top of the samples, every ``trace_every``-th dispatch/completion is
re-emitted through the typed :mod:`repro.obs.events` schema (marked
``"sampled": true``) so ``repro report`` keeps working on fast-engine
runs (without the ledger replay, which needs every event), and
:func:`render_prometheus` turns the latest sample into a
Prometheus-style text exposition.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, TextIO, Tuple, Union

from repro._util import check_bool, check_int

from .events import EnergyAccrued, JobCompleted
from .recorder import iter_jsonl

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "Telemetry",
    "read_telemetry",
    "render_prometheus",
    "render_telemetry_report",
]

#: Version of the JSONL sample schema (header line + sample lines).
TELEMETRY_SCHEMA_VERSION = 1

#: Default completions between samples.
DEFAULT_SAMPLE_EVERY = 1000


def _encode(payload: dict) -> str:
    """Canonical one-line JSON: sorted keys, compact, pure ASCII.

    ASCII output means ``len(str) == len(bytes)`` for offset tracking.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class Telemetry:
    """Sampled telemetry sink for the fast/streaming engines.

    Parameters
    ----------
    out:
        JSONL time-series destination — a path or an open text handle
        (``None`` disables the file; progress/trace still work).
    trace_out:
        Sampled-trace destination (typed events, ``sampled=true``).
        Requires ``trace_every >= 1``.
    sample_every:
        Completions between samples, the same on both front ends.
    trace_every:
        Re-emit every Nth dispatch and completion as a typed event;
        ``0`` disables sampled tracing entirely.
    progress:
        Writable stream for the live one-line progress display
        (typically ``sys.stderr``); ``None`` disables it.
    progress_interval:
        Minimum wall-clock seconds between progress repaints.
    label:
        Prefix for the progress line (e.g. ``"compare:proposed"``).
    """

    def __init__(
        self,
        *,
        out: Union[str, os.PathLike, TextIO, None] = None,
        trace_out: Union[str, os.PathLike, TextIO, None] = None,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        trace_every: int = 0,
        progress: Optional[TextIO] = None,
        progress_interval: float = 0.5,
        label: str = "",
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if trace_every < 0:
            raise ValueError("trace_every must be >= 0")
        if trace_every > 0 and trace_out is None:
            raise ValueError("trace_every > 0 needs a trace_out destination")
        if trace_out is not None and trace_every == 0:
            raise ValueError(
                "trace_out needs trace_every >= 1 (0 disables sampling)"
            )
        self.sample_every = sample_every
        self.trace_every = trace_every
        self.label = label
        self.progress_interval = progress_interval

        self._out, self._out_path = self._split_target(out)
        self._trace, self._trace_path = self._split_target(trace_out)
        self._owns_out = False
        self._owns_trace = False

        #: Samples emitted so far (the ``i`` field of the next sample).
        self.samples = 0
        #: Exact byte offsets of the two output files (resume points).
        self.out_bytes = 0
        self.trace_bytes = 0
        #: Sampled trace events emitted so far.
        self.trace_events = 0
        #: The last sample payload (what ``render_prometheus`` exposes).
        self.last_sample: Optional[dict] = None
        #: Set once the final sample of a run has been written.
        self.finalized = False

        self._progress = progress
        self._progress_len = 0
        self._progress_written = False
        self._progress_base: Optional[Tuple[float, int]] = None
        self._last_progress_t = float("-inf")
        self._t0: Optional[float] = None

    @staticmethod
    def _split_target(target):
        """``(handle, path)`` — exactly one is set for a live target."""
        if target is None:
            return None, None
        if hasattr(target, "write"):
            return target, None
        return None, os.fspath(target)

    # -- run lifecycle -------------------------------------------------------

    def begin(self, header: Optional[dict] = None) -> None:
        """Open outputs and write the versioned header line (once).

        Engines call this at run start (and again on resume, where the
        already-nonzero byte offset suppresses a second header).  The
        header must only carry deterministic run metadata — never
        wall-clock values — so reruns stay byte-identical.
        """
        if self._t0 is None:
            self._t0 = time.perf_counter()
        if self._out is None and self._out_path is not None:
            self._out = open(
                self._out_path, "w", encoding="utf-8", newline="\n"
            )
            self._owns_out = True
        if self._trace is None and self._trace_path is not None:
            self._trace = open(
                self._trace_path, "w", encoding="utf-8", newline="\n"
            )
            self._owns_trace = True
        if self._out is not None and self.out_bytes == 0:
            payload = {
                "kind": "telemetry",
                "schema": TELEMETRY_SCHEMA_VERSION,
                "sample_every": self.sample_every,
                "trace_every": self.trace_every,
            }
            if header:
                payload.update(header)
            line = _encode(payload) + "\n"
            self._out.write(line)
            self._out.flush()
            self.out_bytes += len(line)

    def close(self) -> None:
        """Close owned file handles; finish the progress line if shown."""
        if (
            self._progress is not None
            and self._progress_written
            and not self.finalized
        ):
            self._progress.write("\n")
            self._progress.flush()
            self._progress_written = False
        if self._owns_out and self._out is not None:
            self._out.close()
            self._out = None
            self._owns_out = False
        if self._owns_trace and self._trace is not None:
            self._trace.close()
            self._trace = None
            self._owns_trace = False

    # -- samples -------------------------------------------------------------

    def sample(self, *, final: bool = False, **fields) -> None:
        """Append one JSONL sample built from engine-state ``fields``.

        Every value must be simulation-derived (deterministic); the
        sink adds only the ``kind``/``i`` envelope and the ``final``
        marker.  Each line is flushed immediately so the file on disk
        is never behind the byte offset a checkpoint records.
        """
        if self.finalized:
            return
        payload = dict(fields)
        payload["kind"] = "sample"
        payload["i"] = self.samples
        if final:
            payload["final"] = True
            self.finalized = True
        if self._out is not None:
            line = _encode(payload) + "\n"
            self._out.write(line)
            self._out.flush()
            self.out_bytes += len(line)
        self.samples += 1
        self.last_sample = payload
        self._repaint_progress(payload, final=final)

    # -- sampled trace events ------------------------------------------------

    def emit_completion(
        self,
        *,
        cycle: int,
        job_id: int,
        core_index: int,
        benchmark: str,
        config: str,
        category: str,
        energy_nj: float,
        waiting_cycles: int,
    ) -> None:
        """Re-emit one completion through the typed-event schema."""
        self._emit(JobCompleted(
            cycle=cycle, job_id=job_id, core_index=core_index,
            benchmark=benchmark, config=config, category=category,
            energy_nj=energy_nj, waiting_cycles=waiting_cycles,
        ))

    def emit_dispatch(
        self,
        *,
        cycle: int,
        job_id: int,
        core_index: int,
        benchmark: str,
        category: str,
        dynamic_nj: float,
        static_nj: float,
        overhead_nj: float,
        service_cycles: int,
    ) -> None:
        """Re-emit one execution start through the typed-event schema."""
        self._emit(EnergyAccrued(
            cycle=cycle, job_id=job_id, core_index=core_index,
            benchmark=benchmark, category=category,
            dynamic_nj=dynamic_nj, static_nj=static_nj,
            overhead_nj=overhead_nj, service_cycles=service_cycles,
        ))

    def _emit(self, event) -> None:
        if self._trace is None:
            return
        payload = event.to_dict()
        payload["sampled"] = True
        line = _encode(payload) + "\n"
        self._trace.write(line)
        self._trace.flush()
        self.trace_bytes += len(line)
        self.trace_events += 1

    # -- checkpoint/resume ---------------------------------------------------

    def state_dict(self) -> dict:
        """Resume state: sample count plus exact output byte offsets.

        Every write is flushed before a checkpoint can observe the
        offsets, so the files on disk are always at least this long;
        :meth:`load_state` truncates back to exactly these offsets.
        """
        return {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "samples": self.samples,
            "out_bytes": self.out_bytes,
            "trace_events": self.trace_events,
            "trace_bytes": self.trace_bytes,
            # A checkpoint taken after the final sample must not emit
            # a second one on resume.
            "finalized": self.finalized,
        }

    @staticmethod
    def _checked_state(state) -> dict:
        """The counters :meth:`load_state` restores from ``state``, a
        :meth:`state_dict` of this schema; a missing or mistyped field
        is a :class:`ValueError` naming it."""
        if not isinstance(state, dict):
            raise ValueError(
                f"a telemetry state is a JSON object, got {state!r}"
            )
        schema = state.get("schema")
        if check_int("telemetry 'schema'", schema) != TELEMETRY_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported telemetry schema {schema!r}; this build "
                f"reads version {TELEMETRY_SCHEMA_VERSION}"
            )
        values = {
            key: check_int(f"telemetry {key!r}", state.get(key), minimum=0)
            for key in ("samples", "out_bytes", "trace_events", "trace_bytes")
        }
        values["finalized"] = check_bool(
            "telemetry 'finalized'", state.get("finalized", False)
        )
        return values

    def load_state(self, state: dict) -> None:
        """Restore a checkpointed sink into this (fresh) ``Telemetry``.

        Reopens the configured output paths in append mode after
        truncating them to the recorded byte offsets, discarding any
        samples written after the checkpoint was taken — that is what
        makes kill/resume byte-identical to an uninterrupted run.  The
        state's fields and both files are checked before either file is
        truncated.
        """
        if self.samples or self.out_bytes or self.trace_bytes:
            raise RuntimeError(
                "telemetry state must be loaded into a fresh Telemetry"
            )
        values = self._checked_state(state)
        self._check_resume(self._out, self._out_path, values["out_bytes"],
                           "--telemetry-out")
        self._check_resume(self._trace, self._trace_path,
                           values["trace_bytes"], "--sampled-trace")
        vars(self).update(values)
        if self.out_bytes:
            self._out = self._reopen(self._out_path, self.out_bytes)
            self._owns_out = True
        if self.trace_bytes:
            self._trace = self._reopen(self._trace_path, self.trace_bytes)
            self._owns_trace = True

    @staticmethod
    def _check_resume(handle, path, offset, flag) -> None:
        """Raise unless ``path`` can resume at ``offset`` (0: nothing
        was written, so begin() starts fresh)."""
        if offset == 0:
            return
        if path is None:
            if handle is not None:
                raise ValueError(
                    "cannot resume telemetry into an open handle; pass "
                    f"a file path ({flag}) instead"
                )
            raise ValueError(
                f"the checkpoint recorded {offset} telemetry bytes but "
                f"no matching output is configured; pass {flag}"
            )
        size = os.path.getsize(path) if os.path.exists(path) else -1
        if size < offset:
            raise ValueError(
                f"telemetry file {path!r} holds {max(size, 0)} bytes "
                f"but the checkpoint expects at least {offset}; it is "
                "not the file this checkpoint was writing"
            )

    @staticmethod
    def _reopen(path, offset):
        """Truncate ``path`` to ``offset`` and reopen it for append."""
        with open(path, "rb+") as raw:
            raw.truncate(offset)
        return open(path, "a", encoding="utf-8", newline="\n")

    # -- live progress -------------------------------------------------------

    def _repaint_progress(self, payload: dict, final: bool) -> None:
        stream = self._progress
        if stream is None:
            return
        t = time.perf_counter()
        if not final and t - self._last_progress_t < self.progress_interval:
            return
        self._last_progress_t = t
        done = payload.get("done", 0)
        if self._progress_base is None:
            base_t = self._t0 if self._t0 is not None else t
            self._progress_base = (base_t, 0)
        base_t, base_done = self._progress_base
        rate = (done - base_done) / (t - base_t) if t > base_t else 0.0
        parts = []
        if self.label:
            parts.append(self.label)
        total = payload.get("total")
        if total:
            pct = 100.0 * done / total
            parts.append(f"{done:,}/{total:,} jobs ({pct:.0f}%)")
        else:
            parts.append(f"{done:,} jobs")
        parts.append(f"{rate:,.0f} jobs/s")
        parts.append(f"t={payload.get('now', 0) / 1e6:.1f} Mcyc")
        waiting = payload.get("waiting") or {}
        if waiting.get("count"):
            parts.append(f"p99 wait {waiting.get('p99', 0.0) / 1e3:.0f} kcyc")
        parts.append(f"queue {payload.get('queue', 0)}")
        line = "  ".join(parts)
        pad = max(0, self._progress_len - len(line))
        stream.write("\r" + line + " " * pad)
        if final:
            stream.write("\n")
            self._progress_written = False
        else:
            self._progress_written = True
        stream.flush()
        self._progress_len = len(line)


# -- file readers and renderers ----------------------------------------------


def read_telemetry(path) -> Tuple[dict, List[dict]]:
    """Parse a telemetry JSONL file into ``(header, samples)``.

    Lines come through :func:`~repro.obs.recorder.iter_jsonl`.  Validates
    the header kind and schema version; unknown line kinds raise so
    schema drift is caught instead of silently skipped.  Every error is
    a :class:`ValueError` naming ``path`` (and the line).
    """
    header: Optional[dict] = None
    samples: List[dict] = []
    for lineno, payload in iter_jsonl(path):
        kind = payload.get("kind")
        if header is None:
            if kind != "telemetry":
                raise ValueError(
                    f"{path}: first line is {kind!r}, expected the "
                    "'telemetry' header"
                )
            schema = payload.get("schema")
            if schema != TELEMETRY_SCHEMA_VERSION:
                raise ValueError(
                    f"{path}: unsupported telemetry schema "
                    f"{schema!r}; this build reads version "
                    f"{TELEMETRY_SCHEMA_VERSION}"
                )
            header = payload
        elif kind == "sample":
            samples.append(payload)
        else:
            raise ValueError(
                f"{path}:{lineno}: unknown telemetry line kind {kind!r}"
            )
    if header is None:
        raise ValueError(f"{path}: empty telemetry file")
    return header, samples


def render_prometheus(sample: dict, *, prefix: str = "repro") -> str:
    """One sample as a Prometheus-style text exposition.

    Flat numeric fields become ``<prefix>_<name>`` counters/gauges,
    per-core state becomes ``core="<i>"``-labelled series, and the
    waiting-time window becomes a summary (quantile-labelled series
    plus ``_count``/``_sum``).
    """
    counters = {
        "done": "jobs completed",
        "generated": "jobs generated by the arrival process",
        "admitted": "jobs admitted past the queue-capacity guard",
        "dropped": "jobs dropped at admission",
        "shed": "queued jobs shed by load control",
        "stalls": "explicit stall decisions",
        "non_best": "explicit non-best dispatches",
        "preemptions": "preemptions",
        "dynamic_nj": "dynamic energy accrued (nJ)",
        "busy_static_nj": "busy static energy accrued (nJ)",
        "reconfig_nj": "reconfiguration energy accrued (nJ)",
        "profiling_overhead_nj": "profiling overhead energy (nJ)",
    }
    gauges = {
        "now": "simulation time (cycles)",
        "queue": "ready-queue depth",
        "busy": "busy cores",
        "total": "total jobs in the run (when known)",
        "jobs_per_mcycle": "completions per million simulated cycles",
    }
    lines: List[str] = []

    def _series(name, kind, help_text, value, labels=""):
        metric = f"{prefix}_{name}"
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {kind}")
        lines.append(f"{metric}{labels} {value:g}")

    for name, help_text in counters.items():
        if isinstance(sample.get(name), (int, float)):
            _series(name, "counter", help_text, sample[name])
    for name, help_text in gauges.items():
        if isinstance(sample.get(name), (int, float)):
            _series(name, "gauge", help_text, sample[name])
    cores = sample.get("cores")
    if cores:
        metric = f"{prefix}_core_busy_cycles"
        lines.append(f"# HELP {metric} per-core busy cycles")
        lines.append(f"# TYPE {metric} counter")
        for index, (busy_cycles, _) in enumerate(cores):
            lines.append(f'{metric}{{core="{index}"}} {busy_cycles:g}')
        metric = f"{prefix}_core_config"
        lines.append(
            f"# HELP {metric} current cache configuration (1 == active)"
        )
        lines.append(f"# TYPE {metric} gauge")
        for index, (_, config) in enumerate(cores):
            lines.append(
                f'{metric}{{core="{index}",config="{config}"}} 1'
            )
    waiting = sample.get("waiting")
    if waiting:
        metric = f"{prefix}_waiting_cycles"
        lines.append(f"# HELP {metric} job waiting time (cycles)")
        lines.append(f"# TYPE {metric} summary")
        for key, quantile in (("p50", "0.5"), ("p90", "0.9"),
                              ("p99", "0.99")):
            if key in waiting:
                lines.append(
                    f'{metric}{{quantile="{quantile}"}} '
                    f'{waiting[key]:g}'
                )
        lines.append(f"{metric}_count {waiting.get('count', 0):g}")
        lines.append(f"{metric}_sum {waiting.get('sum', 0.0):g}")
    return "\n".join(lines) + "\n"


def render_telemetry_report(
    header: dict, samples: List[dict], *, max_rows: int = 12
) -> str:
    """Human-readable time-series summary of one telemetry file.

    Shows the run metadata, up to ``max_rows`` evenly spaced samples
    (first and last always included) and an end-of-run summary line.
    """
    from repro.analysis import format_table

    meta_keys = ("engine", "policy", "discipline", "preemptive",
                 "sample_every", "trace_every")
    meta = ", ".join(
        f"{key}={header[key]}" for key in meta_keys if key in header
    )
    lines = [f"telemetry schema v{header.get('schema')}  {meta}".rstrip()]
    if not samples:
        lines.append("(no samples)")
        return "\n".join(lines)

    if len(samples) <= max_rows:
        picked = list(samples)
    else:
        step = (len(samples) - 1) / (max_rows - 1)
        indexes = sorted({round(i * step) for i in range(max_rows)})
        picked = [samples[i] for i in indexes]

    def _row(sample):
        waiting = sample.get("waiting") or {}
        energy_mj = sum(
            sample.get(key, 0.0)
            for key in ("dynamic_nj", "busy_static_nj", "reconfig_nj",
                        "profiling_overhead_nj")
        ) / 1e6
        return (
            f"{sample.get('i', 0)}",
            f"{sample.get('now', 0) / 1e6:.2f}",
            f"{sample.get('done', 0):,}",
            f"{sample.get('queue', 0)}",
            f"{sample.get('busy', 0)}",
            f"{waiting.get('p99', 0.0) / 1e3:.1f}",
            f"{energy_mj:.3f}",
            f"{sample.get('jobs_per_mcycle', 0.0):.2f}",
        )

    lines.append(format_table(
        ("#", "Mcycle", "done", "queue", "busy", "p99 wait kcyc",
         "energy mJ", "jobs/Mcyc"),
        tuple(_row(sample) for sample in picked),
    ))
    last = samples[-1]
    waiting = last.get("waiting") or {}
    summary = (
        f"{len(samples)} samples over {last.get('now', 0) / 1e6:.2f} "
        f"Mcycles; {last.get('done', 0):,} jobs done"
    )
    if waiting.get("count"):
        summary += (
            f"; wait p50/p90/p99 = {waiting.get('p50', 0.0):,.0f}/"
            f"{waiting.get('p90', 0.0):,.0f}/"
            f"{waiting.get('p99', 0.0):,.0f} cycles"
        )
    if not last.get("final"):
        summary += " (run still in flight or interrupted)"
    lines.append(summary)
    return "\n".join(lines)
