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


ROOT = API_MD.parent.parent
#: The prose documents whose code references must resolve.
LIVE_DOCS = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / "README.md", ROOT / "DESIGN.md",
]
_SPAN = re.compile(r"`([^`\n]+)`")
_MODULE_REF = re.compile(
    r"(?<![\w./])repro(?:\.\w+)+(?::\w+(?:\.\w+)*)?"
)
_TEST_PATH = re.compile(r"(?<![\w./])tests/[\w/]+\.py\b")


def _without_history(text):
    """``text`` minus every ``(History ...)`` parenthetical: measured
    tables and notes marked as history may name deleted code."""
    kept = []
    position = 0
    while True:
        start = text.find("(History", position)
        if start < 0:
            kept.append(text[position:])
            return "".join(kept)
        kept.append(text[position:start])
        depth = 0
        for index in range(start, len(text)):
            depth += {"(": 1, ")": -1}.get(text[index], 0)
            if depth == 0:
                break
        position = index + 1


def _resolves(reference):
    """Whether ``repro.mod[.sub][:Name[.attr]]`` names live code."""
    dotted, _, name = reference.partition(":")
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        attrs = parts[cut:] + (name.split(".") if name else [])
        break
    else:
        return False
    for attr in attrs:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def _doc_references():
    for doc in LIVE_DOCS:
        spans = _SPAN.findall(_without_history(doc.read_text()))
        for span in spans:
            for reference in _MODULE_REF.findall(span):
                yield doc.name, reference, _resolves(reference)
            for path in _TEST_PATH.findall(span):
                yield doc.name, path, (ROOT / path).is_file()


def test_docs_name_only_live_code():
    references = list(_doc_references())
    assert references
    dead = sorted({(doc, ref) for doc, ref, live in references if not live})
    assert not dead, f"docs name code that does not exist: {dead}"
