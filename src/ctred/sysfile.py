"""JSON system files.

A system file is a JSON object with keys ``"A"``, ``"B"``, ``"C"``,
``"D"`` (row-major nested arrays) and an optional ``"name"``.  Python's
shortest-round-trip float formatting makes save/load bit-exact for IEEE
doubles.
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
            m = np.array(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DimensionError(f"key {key!r} is not a numeric matrix") from exc
        if m.ndim == 1 and m.size == 0:
            m = m.reshape(empty_shape)
        if m.ndim != 2:
            raise DimensionError(f"key {key!r} must be a nested (rectangular) array")
        return m

    # an order-0 system saves B as []; an empty B or C takes its shape from D
    d = arr("D")
    sys_ = make_system(arr("A"), arr("B", (0, d.shape[1])), arr("C", (d.shape[0], 0)), d)
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
