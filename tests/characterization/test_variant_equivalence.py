"""Full-suite engine equivalence on base and variant traces.

Variant 0 of each family is the base benchmark; variants 1-2 are the
jittered dataset traces.  For all 45 of them, the stack-distance
engine's counters, and its statistics and energy estimate on every
Table 1 configuration, must equal the per-configuration replay oracle's.
"""

import pytest

from repro.cache.config import DESIGN_SPACE
from repro.characterization import characterize_suite, expand_suite
from repro.workloads import eembc_suite
from tests.oracles import characterize_per_config

SPECS = expand_suite(eembc_suite(), 3)


@pytest.fixture(scope="module")
def fast():
    return characterize_suite(SPECS, seed=0)


def test_every_benchmark_is_characterised(fast):
    assert len(SPECS) == 45
    assert set(fast) == {spec.name for spec in SPECS}


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_engine_matches_per_config_replay(spec, fast):
    legacy = characterize_per_config(spec, DESIGN_SPACE, seed=0)
    char = fast[spec.name]
    assert char.counters == legacy.counters
    assert set(char.results) == set(legacy.results) == set(DESIGN_SPACE)
    for config in legacy.results:
        assert char.result(config).stats == legacy.result(config).stats, config.name
        assert char.result(config).estimate == legacy.result(config).estimate, config.name
