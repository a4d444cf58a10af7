"""Tests for the process-parallel suite sweep and its instrumentation."""

import pytest

from repro.characterization.explorer import characterize_suite
from repro.characterization.instrumentation import SweepTiming, TaskTiming
from repro.characterization.parallel import characterize_suite_parallel
from repro.workloads.eembc import eembc_suite


@pytest.fixture(scope="module")
def specs():
    return eembc_suite()[:4]


@pytest.fixture(scope="module")
def serial(specs):
    return characterize_suite(specs, seed=0)


def _assert_same_characterizations(a, b):
    assert set(a) == set(b)
    for name in a:
        assert a[name].counters == b[name].counters
        assert set(a[name].results) == set(b[name].results)
        for config in a[name].results:
            assert a[name].result(config).stats == b[name].result(config).stats


class TestParallelEquivalence:
    def test_two_workers_match_serial(self, specs, serial):
        result = characterize_suite_parallel(specs, seed=0, workers=2)
        _assert_same_characterizations(serial, result.characterizations)

    def test_single_worker_matches_serial(self, specs, serial):
        result = characterize_suite_parallel(specs, seed=0, workers=1)
        _assert_same_characterizations(serial, result.characterizations)
        assert result.timing.workers == 1

    def test_workers_clamped_to_suite_size(self, specs):
        result = characterize_suite_parallel(specs, seed=0, workers=64)
        assert result.timing.workers == len(specs)

    def test_preserves_suite_order(self, specs):
        result = characterize_suite_parallel(specs, seed=0, workers=2)
        assert list(result.characterizations) == [s.name for s in specs]
        assert [t.name for t in result.timing.tasks] == [s.name for s in specs]

    def test_duplicate_names_rejected(self, specs):
        with pytest.raises(ValueError, match="duplicate"):
            characterize_suite_parallel(list(specs) + [specs[0]], seed=0)

    def test_characterize_suite_workers_param(self, specs, serial):
        via_suite = characterize_suite(specs, seed=0, workers=2)
        _assert_same_characterizations(serial, via_suite)


class TestTiming:
    def test_task_timings_sane(self, specs):
        result = characterize_suite_parallel(specs, seed=0, workers=2)
        timing = result.timing
        assert timing.wall_seconds > 0
        assert len(timing.tasks) == len(specs)
        for task in timing.tasks:
            assert task.seconds > 0
            assert task.accesses > 0
            assert task.configs == 18

    def test_throughput_properties(self):
        timing = SweepTiming(
            tasks=(
                TaskTiming(name="a", seconds=1.0, accesses=100, configs=18),
                TaskTiming(name="b", seconds=3.0, accesses=300, configs=18),
            ),
            wall_seconds=2.0,
            workers=2,
        )
        assert timing.total_accesses == 400
        assert timing.total_task_seconds == pytest.approx(4.0)
        assert timing.traces_per_second == pytest.approx(1.0)
        assert timing.accesses_per_second == pytest.approx(200.0)
        assert timing.replays_per_second == pytest.approx(18.0)
        assert "2 workers" in timing.summary()

    def test_zero_wall_time_guard(self):
        timing = SweepTiming(tasks=(), wall_seconds=0.0, workers=1)
        assert timing.traces_per_second == 0.0
        assert timing.accesses_per_second == 0.0
        assert timing.replays_per_second == 0.0
