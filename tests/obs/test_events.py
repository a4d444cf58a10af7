"""Event type round-trips and schema validation."""

import pytest

from repro.obs.events import (
    CATEGORIES,
    EVENT_TYPES,
    DeadlineMiss,
    EnergyAccrued,
    JobArrived,
    JobCompleted,
    JobPreempted,
    SizePredicted,
    StallDecision,
    TaskReady,
    TuningStep,
    event_from_dict,
    validate_event_dict,
)

SAMPLES = [
    JobArrived(cycle=0, job_id=1, benchmark="a2time"),
    SizePredicted(cycle=10, job_id=1, core_index=3, benchmark="a2time",
                  size_kb=4, best_size_kb=4),
    StallDecision(cycle=20, job_id=2, benchmark="idctrn"),
    TuningStep(cycle=30, job_id=3, core_index=0, benchmark="pntrch",
               config="8KB_2W_32B", step=2),
    JobPreempted(cycle=40, job_id=4, core_index=1, benchmark="puwmod",
                 category="best", fraction_run=0.25,
                 refunded_dynamic_nj=12.5, refunded_static_nj=3.0,
                 refunded_overhead_nj=0.0),
    JobCompleted(cycle=50, job_id=5, core_index=2, benchmark="a2time",
                 config="4KB_1W_16B", category="tuning",
                 energy_nj=1234.5, waiting_cycles=100),
    EnergyAccrued(cycle=60, job_id=6, core_index=0, benchmark="idctrn",
                  category="profiling", dynamic_nj=10.0, static_nj=5.0,
                  overhead_nj=0.5, service_cycles=1000),
    TaskReady(cycle=110, job_id=9, benchmark="a2time", graph_id=2,
              task_id=3),
    DeadlineMiss(cycle=120, job_id=10, core_index=0, benchmark="idctrn",
                 deadline_cycle=100, miss_cycles=20),
]


@pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
def test_round_trip(event):
    payload = event.to_dict()
    assert payload["kind"] == event.kind
    validate_event_dict(payload)
    assert event_from_dict(payload) == event


def test_kinds_are_unique_and_registered():
    assert len(EVENT_TYPES) == 16
    for kind, cls in EVENT_TYPES.items():
        assert cls.kind == kind


def test_categories():
    assert CATEGORIES == ("profiling", "tuning", "non_best", "best")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown event kind"):
        event_from_dict({"kind": "nope", "cycle": 0})
    with pytest.raises(ValueError, match="unknown event kind"):
        validate_event_dict({"kind": "nope", "cycle": 0})


def test_missing_field_rejected():
    payload = JobArrived(cycle=0, job_id=1, benchmark="x").to_dict()
    del payload["job_id"]
    with pytest.raises(ValueError, match="missing fields"):
        validate_event_dict(payload)


def test_unknown_field_rejected():
    payload = JobArrived(cycle=0, job_id=1, benchmark="x").to_dict()
    payload["extra"] = 1
    with pytest.raises(ValueError, match="unknown fields"):
        validate_event_dict(payload)


def test_wrong_type_rejected():
    payload = JobArrived(cycle=0, job_id=1, benchmark="x").to_dict()
    payload["job_id"] = "one"
    with pytest.raises(ValueError, match="expected int"):
        validate_event_dict(payload)
    payload = JobArrived(cycle=0, job_id=1, benchmark="x").to_dict()
    payload["benchmark"] = 7
    with pytest.raises(ValueError, match="expected str"):
        validate_event_dict(payload)


def test_negative_cycle_rejected():
    payload = JobArrived(cycle=0, job_id=1, benchmark="x").to_dict()
    payload["cycle"] = -1
    with pytest.raises(ValueError, match="negative"):
        validate_event_dict(payload)


def test_stall_decision_core_is_optional():
    payload = StallDecision(cycle=1, job_id=2, benchmark="x").to_dict()
    assert payload["core_index"] is None
    validate_event_dict(payload)
    restored = event_from_dict(payload)
    assert restored.core_index is None
