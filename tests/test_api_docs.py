"""``docs/api.md`` stays in step with the package's ``__all__`` lists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

API_MD = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def _sections():
    """``{module: [symbol, ...]}`` from the ``## `module` `` sections."""
    parts = re.split(r"^## `([^`]+)`[ \t]*$", API_MD.read_text(), flags=re.M)
    return {
        module: re.findall(r"^\| `([^`]+)` \(", body, flags=re.M)
        for module, body in zip(parts[1::2], parts[2::2])
    }


SECTIONS = _sections()


@pytest.mark.parametrize("module", sorted(SECTIONS))
def test_section_lists_exactly_all(module):
    rows = SECTIONS[module]
    assert len(rows) == len(set(rows)), f"{module}: a symbol is listed twice"
    assert sorted(rows) == sorted(importlib.import_module(module).__all__)


def test_every_package_with_all_has_a_section():
    packages = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    missing = [
        name for name in ["repro"] + packages
        if hasattr(importlib.import_module(name), "__all__")
        and name not in SECTIONS
    ]
    assert not missing
