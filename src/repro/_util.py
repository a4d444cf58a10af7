"""Small internal utilities shared across the package."""

from __future__ import annotations

import hashlib
import json
import math
import os

__all__ = [
    "check_bool", "check_cycles", "check_finite", "check_int",
    "check_number", "load_json_document", "stable_seed",
    "write_json_atomic",
]


def stable_seed(*parts: object) -> int:
    """Deterministic 63-bit seed from arbitrary hashable parts.

    Python's built-in ``hash`` of strings is salted per process, which
    would make trace generation irreproducible across runs; this instead
    hashes the ``repr`` of the parts with BLAKE2, which is stable
    everywhere.
    """
    digest = hashlib.blake2s(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def check_cycles(name: str, cycles) -> None:
    """:class:`ValueError` naming ``name`` unless ``cycles``, an arrival
    clock that numpy draws and casts as int64, stays below 2**63 (NaN
    fails)."""
    if not cycles < 2 ** 63:
        raise ValueError(
            f"{name} is too large: arrivals would reach cycle "
            f"{float(cycles):.4g}, beyond the int64 clock (2**63 cycles)"
        )


def check_int(
    name: str, value, *, minimum: int = None, maximum: int = None
) -> int:
    """``value`` if it is an int (a bool is not), ``>= minimum`` and
    ``<= maximum``, else :class:`ValueError` naming ``name`` and the
    value."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value!r}")
    return value


def check_bool(name: str, value) -> bool:
    """``value`` if it is a bool, else :class:`ValueError` naming
    ``name`` and the value."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value


def check_number(name: str, value, *, finite: bool = True):
    """``value`` if it is an int or a float (a bool is not), not NaN, and
    not infinite unless ``finite=False``; else :class:`ValueError`
    naming ``name`` and the value."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or value != value
        or (finite and value in (math.inf, -math.inf))
    ):
        kind = "a finite number" if finite else "a number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def load_json_document(path, kind: str, build):
    """``build(payload)`` for the JSON object stored at ``path``.

    A file that is not JSON, not an object, or that ``build`` rejects
    (wrong, missing or mistyped fields) raises :class:`ValueError`
    naming ``path`` and the ``kind`` of document expected, so a CLI can
    print one ``error:`` line for it.  :class:`OSError` passes through.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object")
        return build(payload)
    except (ValueError, TypeError) as error:
        raise ValueError(f"{path} is not a valid {kind}: {error}") from None


def write_json_atomic(path, payload) -> None:
    """Write ``payload`` as JSON to ``path`` through a temporary file.

    The file appears complete or not at all: a process killed mid-write
    leaves only the temporary file (named for the writing process, so
    concurrent writers never share one), never a truncated ``path``.
    """
    text = json.dumps(payload)  # one C-encoder pass; json.dump is pure Python
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def check_finite(name: str, value, *, minimum: float = None) -> float:
    """``float(value)`` if finite and positive (or ``>= minimum``), else
    :class:`ValueError` naming ``name`` and the value.  (``value <= 0``
    alone lets NaN through: every comparison with NaN is false.)"""
    number = float(value)
    if minimum is None:
        bounded, bound = number > 0, "positive"
    else:
        bounded, bound = number >= minimum, f">= {minimum:g}"
    if not (bounded and math.isfinite(number)):
        raise ValueError(f"{name} must be {bound} and finite, got {value!r}")
    return number
