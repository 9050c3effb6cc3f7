"""The benchmark's per-layer tracer must find every function it probes.

``bench/layers.py`` patches ctred functions by name; a refactor that
renames one is reported there only at run time, so this guard fails first.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import ctred
from ctred.benchmarks import bench_balanced_vs_modal_pair, bench_unstable_pair
from ctred.statespace import StateSpaceSystem

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("ctred_bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ctred_namespaces():
    for info in pkgutil.iter_modules(ctred.__path__):
        importlib.import_module(f"ctred.{info.name}")
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "ctred" or name.startswith("ctred.")}


def test_bench_tracer_probes_present_and_restored():
    layers = _load_layers()
    before = _ctred_namespaces()
    original_eval = StateSpaceSystem.eval
    g, k = bench_balanced_vs_modal_pair()
    with layers.Tracer() as tracer:
        assert tracer.absent == []
        for funcs in layers.LAYERS.values():
            for module, name, _ in funcs:
                home = f"ctred.{module}"
                assert getattr(sys.modules[home], name) is not before[home][name]
        tracer.request(0, ctred.check_thm2_bound, g, k, k)
    stats = tracer.summary()
    for layer in ("certify.thm2", "certify.loop_analysis", "norms.peak_gain",
                  "statespace.four_block", "statespace.is_internally_stable"):
        assert stats[layer]["calls"] > 0, layer
    for name, namespace in before.items():
        now = vars(sys.modules[name])
        changed = [attr for attr, value in namespace.items() if now.get(attr) is not value]
        assert changed == [], name
    assert StateSpaceSystem.eval is original_eval


def test_bench_tracer_charges_the_modal_peel_to_modal_form():
    # modal_form decouples with linalg's checked steps on its one Schur
    # form, not through the public kernels, so the tracer charges that
    # time to decompose.modal_form itself; direct kernel calls stay visible
    layers = _load_layers()
    _, k = bench_unstable_pair()
    with layers.Tracer() as tracer:
        tracer.request(0, ctred.modal_truncate, k, 1)
    stats = tracer.summary()
    assert stats["decompose.modal_form"]["calls"] > 0
    for layer in ("linalg.ordered_real_schur", "linalg.solve_sylvester"):
        assert stats[layer]["calls"] == 0, layer
    with layers.Tracer() as tracer:
        form = tracer.request(0, ctred.ordered_real_schur, k.A, lambda lam: lam.real < 0)
        t, n = form.T, form.n_selected
        tracer.request(1, ctred.solve_sylvester, t[:n, :n], -t[n:, n:], t[:n, n:])
    stats = tracer.summary()
    for layer in ("linalg.ordered_real_schur", "linalg.solve_sylvester"):
        assert stats[layer]["calls"] == 1, layer
