"""DVFS scaling of per-dispatch charges, shared by every engine.

The reference loop and the fast/streaming loops compute a dispatch's
work cycles and dynamic/static charges with syntactically different but
IEEE-identical expressions (``x * 1.0 == x``; ``round(t * 1.0) == t``).
When the power axis is enabled both route through this one helper so the
power-token price, the charged energy and the DVFS stretch are
float-identical across engines — the property the equivalence suites and
the ledger's token account rely on.

Scaling model (see :mod:`repro.power.dvfs`): only the *work* component
of service stretches by ``1/freq_scale`` — reconfiguration and profiling
overhead cycles are untouched; dynamic energy scales by ``volt**2`` and
busy-static energy by ``volt/freq``.  Knowledge updates (profiling
table, best-known, tuning sessions) always use the *unscaled* estimate:
the knowledge describes the configuration, not the operating point of
one dispatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # repro.power.budget imports this module
    from repro.power.dvfs import DvfsPoint

__all__ = ["scaled_charges"]


def scaled_charges(
    total_cycles: int,
    dynamic_nj: float,
    static_nj: float,
    fraction: float,
    point: Optional[DvfsPoint] = None,
) -> Tuple[int, float, float]:
    """``(work_cycles, dynamic_charge_nj, static_charge_nj)`` for one
    dispatch of ``fraction`` of an execution at operating point
    ``point`` (``None`` or nominal leaves the charges untouched)."""
    if fraction == 1.0:
        work = total_cycles
        dynamic = dynamic_nj
        static = static_nj
    else:
        work = max(1, int(round(total_cycles * fraction)))
        dynamic = dynamic_nj * fraction
        static = static_nj * fraction
    if point is not None and not point.is_nominal:
        work = max(1, int(round(work / point.freq_scale)))
        dynamic = dynamic * point.dyn_factor
        static = static * point.static_factor
    return work, dynamic, static
