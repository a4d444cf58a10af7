"""Performance-trajectory reporting over ``BENCH_*.json`` artifacts.

The tier-2 benchmark suite (``benchmarks/``) asserts perf and accuracy
floors and writes flat JSON artifacts next to the repo root — e.g.
``BENCH_simulation_speed.json`` with a measured ``speedup`` and the
``min_speedup_required`` threshold it was checked against.  This module
reads every artifact in a directory and renders them as one table, so a
CI run (or a developer after ``pytest benchmarks/``) sees the whole
perf trajectory — measured value, bound, and remaining margin — in one
place instead of opening JSON files one by one.

The threshold convention is scanned generically rather than hard-coded
per benchmark: any key shaped ``min_<metric>_required`` / ``min_<metric>``
is a floor for the measured ``<metric>`` key, and ``max_<metric>_allowed``
/ ``max_<metric>`` is a ceiling.  New benchmarks that follow the
convention appear in the report with no changes here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

from .report import format_table

__all__ = [
    "BenchCheck",
    "bench_checks",
    "load_bench_artifacts",
    "render_bench_report",
]


@dataclass(frozen=True)
class BenchCheck:
    """One measured-metric-vs-bound pair from a benchmark artifact."""

    #: Benchmark name (the artifact's ``benchmark`` field, or the file
    #: stem without the ``BENCH_`` prefix).
    benchmark: str
    #: Measured metric key in the artifact.
    metric: str
    measured: float
    #: ``"floor"`` (``min_*``) or ``"ceiling"`` (``max_*``).
    kind: str
    bound: float
    #: Artifact file the check came from.
    source: str

    @property
    def ok(self) -> bool:
        if self.kind == "floor":
            return self.measured >= self.bound
        return self.measured <= self.bound

    @property
    def margin(self) -> float:
        """Signed headroom as a fraction of the bound (``>= 0`` = ok).

        A floor check with ``measured == 1.2 * bound`` has margin 0.2;
        a ceiling check at 80 % of its bound has margin 0.2.  Zero
        bounds degenerate to absolute headroom.
        """
        if self.bound == 0:
            slack = self.measured - self.bound
            return slack if self.kind == "floor" else -slack
        if self.kind == "floor":
            return (self.measured - self.bound) / abs(self.bound)
        return (self.bound - self.measured) / abs(self.bound)


def _checks_from_payload(payload: dict, source: str) -> List[BenchCheck]:
    name = payload.get("benchmark") or Path(source).stem.replace(
        "BENCH_", "", 1
    )
    checks: List[BenchCheck] = []
    for key, bound in sorted(payload.items()):
        if not isinstance(bound, (int, float)) or isinstance(bound, bool):
            continue
        if key.startswith("min_"):
            kind, base = "floor", key[len("min_"):]
            for suffix in ("_required",):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
        elif key.startswith("max_"):
            kind, base = "ceiling", key[len("max_"):]
            for suffix in ("_allowed",):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
        else:
            continue
        measured = payload.get(base)
        if not isinstance(measured, (int, float)) or isinstance(
            measured, bool
        ):
            continue
        checks.append(BenchCheck(
            benchmark=str(name), metric=base, measured=float(measured),
            kind=kind, bound=float(bound), source=source,
        ))
    return checks


def load_bench_artifacts(
    directory=".",
) -> List[Tuple[Path, dict]]:
    """``(path, payload)`` for every ``BENCH_*.json`` under ``directory``.

    Sorted by file name so the report order is stable.  A file that is
    not UTF-8 JSON raises ``ValueError`` naming the file.
    """
    artifacts: List[Tuple[Path, dict]] = []
    for path in sorted(Path(directory).glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as error:  # also UnicodeDecodeError
            raise ValueError(f"{path}: not valid JSON ({error})") from None
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: expected a JSON object")
        artifacts.append((path, payload))
    return artifacts


def bench_checks(
    artifacts: Sequence[Tuple[Path, dict]],
) -> List[BenchCheck]:
    """Every threshold check found across the artifacts, in file order."""
    checks: List[BenchCheck] = []
    for path, payload in artifacts:
        checks.extend(_checks_from_payload(payload, str(path)))
    return checks


def render_bench_report(
    artifacts: Sequence[Tuple[Path, dict]],
) -> str:
    """The perf-trajectory table plus a pass/fail summary line."""
    checks = bench_checks(artifacts)
    if not checks:
        return (
            f"{len(artifacts)} artifact(s), no threshold checks found "
            "(no min_*/max_* keys with matching measured metrics)"
        )
    rows = []
    for check in checks:
        sign = ">=" if check.kind == "floor" else "<="
        rows.append((
            check.benchmark,
            check.metric,
            f"{check.measured:,.4g}",
            f"{sign} {check.bound:,.4g}",
            f"{check.margin * 100:+.1f}%",
            "ok" if check.ok else "FAIL",
        ))
    table = format_table(
        ("benchmark", "metric", "measured", "bound", "margin", "status"),
        tuple(rows),
    )
    failed = sum(1 for check in checks if not check.ok)
    summary = (
        f"{len(artifacts)} artifact(s), {len(checks)} check(s), "
        + (f"{failed} FAILING" if failed else "all within bounds")
    )
    return f"{table}\n{summary}"
