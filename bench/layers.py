"""Outside-in per-layer tracing of ctred.

Wrappers are installed by object identity in every ``ctred.*`` namespace
(``certify`` binds ``hinf_norm`` and friends through ``from .norms
import``, so patching ``ctred.norms`` alone would miss every certificate
call) and removed again afterwards.  No source is patched.  Each wrapped
call records a span ``(layer, start, end, parent, request)``; the hot
``StateSpaceSystem.eval`` is only counted, because a span around each of
its calls costs more than the call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> functions, as (module, name, optional).  The private probes are
# optional: a refactor may remove them, and they are then reported absent.
LAYERS = {
    "norms.peak_gain": [("norms", "hinf_norm", False), ("norms", "linf_norm", False)],
    "norms.fallback": [("norms", "_refined_grid_peak", True)],
    "norms.hamiltonian": [("norms", "_gamma_is_upper_bound", True)],
    "norms.h2": [("norms", "h2_norm", False)],
    "norms.l2": [("norms", "l2_norm", False)],
    "statespace.four_block": [("statespace", "four_block", False)],
    "statespace.is_internally_stable": [("statespace", "is_internally_stable", False)],
    "certify.loop_analysis": [("certify", "_loop_quantities", True)],
    "certify.lemma3": [("certify", "check_lemma3", False)],
    "certify.thm1": [("certify", "check_thm1", False)],
    "certify.thm2": [("certify", "check_thm2_bound", False)],
    "certify.cor1": [("certify", "check_cor1", False)],
    "certify.cor2": [("certify", "check_cor2", False)],
    "certify.thm3": [("certify", "check_thm3", False)],
    "certify.lqg_cost": [("certify", "lqg_cost", False)],
    "decompose.modal_form": [("decompose", "modal_form", False)],
    "decompose.mode_importance": [("decompose", "mode_importance", False)],
    "decompose.split_stable_unstable": [("decompose", "split_stable_unstable", False)],
    "reduce.balance": [("reduce", "balance", False)],
    "reduce.minimal_realization": [("reduce", "minimal_realization", False)],
    "reduce.cleanup": [
        ("reduce", "drop_negligible_antistable", False),
        ("reduce", "split_cancelled_unstable", False),
    ],
    "linalg.solve_lyapunov": [("linalg", "solve_lyapunov", False)],
    "linalg.solve_sylvester": [("linalg", "solve_sylvester", False)],
    "linalg.ordered_real_schur": [("linalg", "ordered_real_schur", False)],
    "linalg.eigenvalues": [("linalg", "eigenvalues", False)],
}

REQUEST = "request"
PACKAGE = "ctred"


class Tracer:
    """Collects spans and counts while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[tuple] = []  # (layer, start, end, parent index, request)
        self.failed: dict[str, int] = defaultdict(int)
        self.eval_calls = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._request = -1
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------
    @staticmethod
    def _modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def __enter__(self):
        targets = {}  # id(original) -> (layer, original)
        for layer, funcs in LAYERS.items():
            for module, name, optional in funcs:
                mod = sys.modules.get(f"{PACKAGE}.{module}")
                fn = getattr(mod, name, None)
                if fn is None:
                    if not optional:
                        raise RuntimeError(f"{PACKAGE}.{module}.{name} is missing")
                    self.absent.append(f"{module}.{name}")
                    continue
                targets[id(fn)] = (layer, fn)
        wrappers = {key: self._wrap(layer, fn) for key, (layer, fn) in targets.items()}
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is targets[id(value)][1]:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        system = sys.modules[f"{PACKAGE}.statespace"].StateSpaceSystem
        original_eval = system.eval

        def counted_eval(sys_, s):
            self.eval_calls += 1
            return original_eval(sys_, s)

        self._restore.append((system, "eval", original_eval))
        system.eval = counted_eval
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    def _wrap(self, layer, fn):
        spans, stack, failed = self.spans, self._stack, self.failed
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed[layer] += 1
                raise
            finally:
                spans[index] = (layer, start, clock(), parent, self._request)
                stack.pop()

        return wrapper

    # -- requests -------------------------------------------------------
    def request(self, index: int, fn, *args):
        """Run one request inside a root span tagged with its index."""
        self._request = index
        return self._wrap(REQUEST, fn)(*args)

    # -- summaries ------------------------------------------------------
    def summary(self):
        """Per-layer ``calls``, inclusive ``s``, ``self_s`` and ``failed``.

        Inclusive time counts only spans without an ancestor of the same
        layer; self time subtracts the time covered by direct child spans.
        """
        stats = {layer: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0}
                 for layer in list(LAYERS) + [REQUEST]}
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (layer, start, end, parent, _) in enumerate(self.spans):
            st = stats[layer]
            st["calls"] += 1
            st["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != layer:
                p = self.spans[p][3]
            if p < 0:
                st["s"] += end - start
        for layer, n in self.failed.items():
            stats[layer]["failed"] = n
        return stats
