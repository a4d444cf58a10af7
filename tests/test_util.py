"""Tests for internal utilities."""

import pytest

from repro._util import check_int, stable_seed


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a2time", 0) == stable_seed("a2time", 0)

    def test_distinct_inputs_decorrelate(self):
        seeds = {
            stable_seed(name, seed)
            for name in ("a2time", "matrix", "pntrch")
            for seed in range(5)
        }
        assert len(seeds) == 15

    def test_order_matters(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_fits_in_63_bits(self):
        for i in range(100):
            value = stable_seed("x", i)
            assert 0 <= value < 2**63

    def test_known_value_is_process_independent(self):
        # Pin one value so any accidental switch to salted hashing fails.
        import subprocess
        import sys

        expected = stable_seed("pin", 42)
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro._util import stable_seed; print(stable_seed('pin', 42))"],
            capture_output=True, text=True, check=True,
        )
        assert int(out.stdout.strip()) == expected


class TestCheckInt:
    def test_returns_an_int_in_range(self):
        assert check_int("n", 5, minimum=0) == 5
        assert check_int("n", -3) == -3

    @pytest.mark.parametrize("value,message", [
        (True, "must be an integer, got True"),
        (1.0, "must be an integer, got 1.0"),
        ("1", "must be an integer, got '1'"),
        (None, "must be an integer, got None"),
        (-1, "must be >= 0, got -1"),
    ])
    def test_rejects_naming_the_field(self, value, message):
        with pytest.raises(ValueError, match=f"^n {message}$"):
            check_int("n", value, minimum=0)
