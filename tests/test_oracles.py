"""The reference implementations in tests/oracles.py stay independent.

An oracle that called the engine it checks would pass every
equivalence test while checking nothing, so the module may import
none of the engines: not the module, and none of the names it exports.
The engines are the stack-distance cache engine, the batched ensemble
trainer, the log-bucket histogram, the power gate's ladder builder
and walk, and the trace generator's chunk interleaver.
"""

import ast
from pathlib import Path

from repro.ann import batched
from repro.cache import stackdist
from repro.obs import metrics
from repro.power import budget

ENGINE_MODULES = {
    "repro.cache.stackdist", "repro.ann.batched", "repro.obs.metrics",
    "repro.power.budget", "repro.workloads.tracegen",
}

#: What the engines export, plus ``simulate_trace``, the one-config
#: front end of the stack-distance engine, and ``interleave_chunks``,
#: the one engine of the trace generator.
ENGINE_NAMES = (
    set(stackdist.__all__)
    | set(batched.__all__)
    | set(metrics.__all__)
    | set(budget.__all__)
    | {"simulate_trace", "interleave_chunks"}
)


def _imports():
    """``(module, name)`` per import in tests/oracles.py; ``name`` is
    ``None`` for a plain ``import module``."""
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module or "", alias.name


def test_oracles_import_neither_engine():
    imports = list(_imports())
    assert any(module.startswith("repro.") for module, _ in imports)
    for module, name in imports:
        assert module not in ENGINE_MODULES, module
        assert f"{module}.{name}" not in ENGINE_MODULES, (module, name)
        assert name not in ENGINE_NAMES, (module, name)
