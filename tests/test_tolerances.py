"""Every numerical tolerance of the package lives in ``ctred/tolerances.py``:
no other module binds a module-level float or writes a threshold-sized
float literal, and each constant there is read by some other module (an
unread tolerance governs nothing)."""

import ast
from pathlib import Path

from ctred import tolerances

PACKAGE = Path(tolerances.__file__).parent


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _bindings(tree):
    """``(name, value, line)`` of each module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.value, node.lineno


def _float_valued(node) -> bool:
    """A float literal, or arithmetic that yields a float."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _float_valued(node.operand)
    if isinstance(node, ast.BinOp):
        return (isinstance(node.op, ast.Div)
                or _float_valued(node.left) or _float_valued(node.right))
    return False


def test_only_the_tolerances_module_binds_float_constants():
    floats = {name: [line for _, value, line in _bindings(tree) if _float_valued(value)]
              for name, tree in _trees()}
    assert len(floats.pop("tolerances.py")) >= 2  # the test sees its constants
    assert {name: lines for name, lines in floats.items() if lines} == {}


def test_every_tolerance_is_read_by_another_module():
    constants, read = set(), set()
    for name, tree in _trees():
        if name == "tolerances.py":
            constants = {binding for binding, _, _ in _bindings(tree)}
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert constants and sorted(constants - read) == []


def _threshold_like(value: float) -> bool:
    """A float literal small or large enough to be a numerical threshold;
    ``1e-300``, the guard against dividing by an underflowed zero, is not."""
    x = abs(value)
    return x != 1e-300 and (0.0 < x <= 1e-4 or x >= 1e4)


def test_no_threshold_literal_outside_the_tolerances_module():
    # benchmarks.py holds the bundled reference data of the benchmark instances
    found = {name: [f"{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and type(node.value) is float
                    and _threshold_like(node.value)]
             for name, tree in _trees()}
    assert len(found.pop("tolerances.py")) >= 2  # the test sees the thresholds
    found.pop("benchmarks.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
