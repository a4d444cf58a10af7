"""Recorder implementations and JSONL trace round-trips."""

import io
import json

from repro.obs.events import JobArrived, JobCompleted
from repro.obs.recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    ListRecorder,
    NullRecorder,
    encode_event,
    iter_jsonl,
    iter_trace,
    read_trace,
    write_trace,
)

EVENTS = [
    JobArrived(cycle=0, job_id=0, benchmark="a2time"),
    JobArrived(cycle=5, job_id=1, benchmark="idctrn"),
    JobCompleted(cycle=900, job_id=0, core_index=3, benchmark="a2time",
                 config="base", category="profiling",
                 energy_nj=12.5, waiting_cycles=0),
]


def test_null_recorder_is_disabled():
    assert NullRecorder.enabled is False
    assert NULL_RECORDER.enabled is False
    NULL_RECORDER.emit(EVENTS[0])  # no-op, no error
    NULL_RECORDER.close()


def test_list_recorder_accumulates():
    recorder = ListRecorder()
    assert recorder.enabled
    for event in EVENTS:
        recorder.emit(event)
    assert recorder.events == EVENTS
    assert len(recorder) == 3


def test_encode_event_is_canonical():
    line = encode_event(EVENTS[0])
    assert line == json.dumps(
        EVENTS[0].to_dict(), sort_keys=True, separators=(",", ":")
    )
    assert "\n" not in line
    # Keys sorted: kind is not first unless alphabetically so.
    payload = json.loads(line)
    assert list(payload) == sorted(payload)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "nested" / "trace.jsonl"
    with JsonlRecorder(path) as recorder:
        for event in EVENTS:
            recorder.emit(event)
        assert recorder.count == 3
    assert read_trace(path) == EVENTS
    assert list(iter_trace(path)) == EVENTS


def test_jsonl_recorder_accepts_open_handle():
    handle = io.StringIO()
    recorder = JsonlRecorder(handle)
    recorder.emit(EVENTS[0])
    recorder.close()  # must NOT close a caller-owned handle
    assert not handle.closed
    assert handle.getvalue() == encode_event(EVENTS[0]) + "\n"


def test_write_trace_helper(tmp_path):
    path = tmp_path / "t.jsonl"
    assert write_trace(EVENTS, path) == 3
    assert read_trace(path) == EVENTS


def test_byte_identical_for_same_events(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trace(EVENTS, a)
    write_trace(list(EVENTS), b)
    assert a.read_bytes() == b.read_bytes()


def test_iter_trace_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json}\n")
    try:
        list(iter_trace(path))
    except ValueError as error:
        assert "not valid JSON" in str(error)
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")


def test_iter_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text(
        encode_event(EVENTS[0]) + "\n\n" + encode_event(EVENTS[1]) + "\n"
    )
    assert list(iter_trace(path)) == EVENTS[:2]


def test_iter_jsonl_numbers_lines_and_skips_blanks(tmp_path):
    path = tmp_path / "lines.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"b": 2}\r\n')
    assert list(iter_jsonl(path)) == [(1, {"a": 1}), (4, {"b": 2})]
