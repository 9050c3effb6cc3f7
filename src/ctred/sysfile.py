"""JSON system files.

A system file is a JSON object with keys ``"A"``, ``"B"``, ``"C"``,
``"D"`` (row-major nested arrays), the input and output counts ``"m"``
and ``"p"``, and an optional ``"name"``.  The counts fix the shapes of
empty matrices (``D`` of a system without outputs saves as ``[]``);
files without them still load, with the shapes read from ``D``.
Python's shortest-round-trip float formatting makes save/load bit-exact
for IEEE doubles.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DimensionError
from .statespace import StateSpaceSystem, make_system


def system_to_dict(s: StateSpaceSystem, name: str | None = None) -> dict:
    doc = {
        "A": s.A.tolist(),
        "B": s.B.tolist(),
        "C": s.C.tolist(),
        "D": s.D.tolist(),
        "m": s.m,
        "p": s.p,
    }
    if name is not None:
        doc["name"] = name
    return doc


def system_from_dict(doc: dict) -> tuple[StateSpaceSystem, str | None]:
    for key in ("A", "B", "C", "D"):
        if key not in doc:
            raise DimensionError(f"system file is missing key {key!r}")
    def arr(key, empty_shape=(0, 0)):
        value = doc[key]
        try:
            mat = np.array(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DimensionError(f"key {key!r} is not a numeric matrix") from exc
        if mat.ndim == 1 and mat.size == 0:
            mat = mat.reshape(empty_shape if 0 in empty_shape else (0, 0))
        if mat.ndim != 2:
            raise DimensionError(f"key {key!r} must be a nested (rectangular) array")
        return mat

    def count(key, default):
        value = doc.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise DimensionError(f"key {key!r} must be a non-negative integer")
        return value

    # an order-0 system saves B as [], and a system without outputs saves
    # D as []: empty matrices take their shapes from the counts
    shape = arr("D").shape
    m, p = count("m", shape[1]), count("p", shape[0])
    sys_ = make_system(arr("A"), arr("B", (0, m)), arr("C", (p, 0)), arr("D", (p, m)))
    if (sys_.m, sys_.p) != (m, p):
        raise DimensionError(
            f"system is {sys_.p}x{sys_.m}, but the file gives p={p} and m={m}"
        )
    return sys_, doc.get("name")


def save_system(path, s: StateSpaceSystem, name: str | None = None) -> None:
    doc = system_to_dict(s, name)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_system(path) -> tuple[StateSpaceSystem, str | None]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DimensionError(f"not a valid JSON system file: {exc}") from exc
    if not isinstance(doc, dict):
        raise DimensionError("system file must contain a JSON object")
    return system_from_dict(doc)
