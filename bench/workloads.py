"""The three workloads: seeded inputs, the timed request, and its checks.

Inputs come from ``inputs`` (numpy/scipy only).  A request calls ctred
through attribute lookups on the package, so the per-layer tracer's
wrappers are seen.  Every reduction, certificate or cost evaluation a
request attempts becomes one item; a typed ctred refusal (``CtredError``)
is recorded on its item instead of ending the request.

Instances are drawn in rounds of fixed composition (orders, antistable
modes, bands), so the work of a run does not swing with the seed.  The
band of an instance (``inputs.band``) switches the peak-gain kernel
between its fast path and its slow grid fallback; each workload states
the measured band shares its composition comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import ctred
from ctred.errors import CtredError, NotStabilizingError

import inputs
import oracle

COST_REL = 1e-6         # agreement of ctred's LQG cost with the oracle's
BOUND_SLACK = 1e-9      # rounding allowance when comparing a cost to its bound
AXIS_MARGIN = 1e-6      # relative abscissa margin before a stability verdict is wrong


@dataclass
class Request:
    kind: str
    g: tuple
    k: tuple
    detuned: tuple | None = None
    target: int | None = None


@dataclass
class Item:
    op: str
    error: str | None = None
    verdict: bool | None = None
    bound: float | None = None
    cost: float | None = None
    reduced: tuple | None = None
    order: int | None = None

    @property
    def is_reduction(self) -> bool:
        return self.op.startswith("reduce")

    @property
    def is_certificate(self) -> bool:
        return not self.is_reduction and self.op != "cost"


@dataclass
class Findings:
    """Benchmark-side verdicts on the outputs of a run."""

    unsound: int = 0
    wrong: int = 0
    bound_ratios: list = field(default_factory=list)


def _attempt(items, op, fn, *args, **fields):
    try:
        out = fn(*args)
    except CtredError as exc:
        items.append(Item(op, error=type(exc).__name__, **fields))
        return None
    items.append(Item(op, **fields))
    return out


def _abc(s):
    return (np.array(s.A), np.array(s.B), np.array(s.C))


def _certify(items, name, check, g, k, kr, arg=None):
    """Run a certificate on ``(G, K, arg)``; ``kr`` is the reduced controller."""
    cert = _attempt(items, name, check, g, k, kr if arg is None else arg)
    if cert is not None:
        item = items[-1]
        item.verdict = bool(cert.condition_satisfied)
        item.bound = cert.cost_bound
        item.reduced = _abc(kr)


def _modal_minus_one(k):
    """Drop the least important block of the controller's stable part."""
    split = ctred.split_stable_unstable(k)
    mt = ctred.modal_truncate(split.stable_part, 1)
    return ctred.add(mt.reduced, split.unstable_part)


def _drop_unstable_modes(k):
    """Modal form of a SISO controller without its antistable blocks."""
    md = ctred.modal_form(k)
    return md.rebuild([i for i, b in enumerate(md.blocks) if b.eigenvalue.real < 0])


def _pair(rng, order, n_unstable, near=False):
    """Stabilized pair whose controller has a stable part of order ``order``
    and ``n_unstable`` antistable modes, drawn until the stable part is in
    its band (``inputs.band``): nearly cancelling or well separated.
    """
    while True:
        stable = inputs.random_part(rng, order, inputs.STABLE_RE)
        if inputs.band(stable) == ("near" if near else "clear"):
            k = inputs.block_sum(stable, inputs.random_part(
                rng, n_unstable, inputs.ANTISTABLE_RE)) if n_unstable else stable
            g = inputs.plant_for(k)
            if g is not None:
                return g, k


def _stratified(rng, lo, hi, n):
    """``n`` uniform draws on ``[lo, hi]``, one from each of ``n`` equal slots
    in random order: the same marginal law with less spread between rounds."""
    slots = (rng.permutation(n) + rng.uniform(size=n)) / n
    return lo + (hi - lo) * slots


# -- stability_batch ----------------------------------------------------


class StabilityBatch:
    """Criterion-07 triples -> ``check_lemma3`` + ``check_thm1``.

    A round holds ten instances; each gives a balanced (order n-1), a
    modal (one stable block removed) and a detuned (``K + k/(s+a)``)
    request.  Over 10000 draws of the family from ``inputs`` (order 3-5 and
    0-1 antistable modes, uniform; ``python3 bench/shares.py``), 31.4% of
    stable parts nearly cancel, 29.6% fall in between and are discarded,
    and 39.0% are well separated: 44.5% of the kept draws nearly cancel.
    Only the balanced request of a nearly cancelling instance reaches the
    grid fallback, on about 77% of them (15% are refused as non-minimal),
    so at 44.5% the fallback would be about 11.7% of completed requests
    and p90 would sit on the seam between the fast and the slow group.
    The round therefore has five nearly cancelling instances of ten,
    which puts the fallback at about 13%.  Within each band the (order,
    antistable modes) counts are apportioned to the round by largest
    remainder.
    """

    name = "stability_batch"
    pool_rounds = 6
    near = ((5, 0), (5, 0), (4, 0), (5, 1), (3, 0))  # (order, antistable modes)
    clear = ((3, 1), (3, 1), (3, 0), (4, 1), (4, 0))

    def round(self, rng):
        plan = [(*p, True) for p in self.near] + [(*p, False) for p in self.clear]
        plan = [plan[i] for i in rng.permutation(len(plan))]
        # gain and pole of the detuning term, stratified across the round
        gains = _stratified(rng, 0.2, 6.0, len(plan))
        poles = _stratified(rng, 1.0, 9.0, len(plan))
        reqs = []
        for (order, nu, near), gain, pole in zip(plan, gains, poles):
            g, k = _pair(rng, order - nu, nu, near)
            detuned = inputs.block_sum(
                k, (np.array([[-pole]]), np.array([[gain]]), np.array([[gain]])))
            for kind in ("balanced", "modal", "detuned"):
                reqs.append(Request(kind, g, k, detuned))
        return reqs

    def serve(self, req):
        items = []
        g, k = ctred.make_system(*req.g), ctred.make_system(*req.k)
        if req.kind == "balanced":
            res = _attempt(items, "reduce.balanced", ctred.balanced_truncate_unstable,
                           k, k.n - 1, order=k.n - 1)
            kr = None if res is None else res.reduced
        elif req.kind == "modal":
            kr = _attempt(items, "reduce.modal", _modal_minus_one, k, order=k.n - 1)
        else:
            kr = ctred.make_system(*req.detuned)
        if kr is not None:
            if items:
                items[-1].reduced = _abc(kr)
            _certify(items, "lemma3", ctred.check_lemma3, g, k, kr)
            _certify(items, "thm1", ctred.check_thm1, g, k, kr)
        return items


# -- bound_batch --------------------------------------------------------


class BoundBatch:
    """Criterion-08 (family A) and criterion-09 (family B) bound certificates.

    Family A: balanced n-1 -> ``check_thm2_bound`` + ``check_cor1``, and the
    modal reduction of the stable part -> ``check_cor2``.  Family B: a SISO
    controller with one antistable mode, dropped via ``modal_form`` ->
    ``check_thm3``.  A round interleaves seven family-A instances with six
    family-B ones, the ratio in which the acceptance suite runs them (116
    criterion-08 instances to reach 100 passes of each certificate, 100
    criterion-09 instances).  Family A keeps only well-separated stable
    parts, 24.7% of its draws (``python3 bench/shares.py``), so that this
    workload times loop analysis and bisection without the grid fallback;
    within that band stable order 3 has 75.4% of the draws, order 4 22.3%
    and order 5 2.3%, apportioned to the round by largest remainder.
    """

    name = "bound_batch"
    pool_rounds = 12
    family_a_orders = (3, 3, 3, 3, 3, 4, 4)  # stable part
    family_b_orders = (2, 3, 4, 2, 3, 4)  # stable part

    def round(self, rng):
        a_orders = rng.permutation(self.family_a_orders)
        a_unstable = rng.permutation([0, 1, 0, 1, 0, 1, int(rng.integers(0, 2))])
        b_orders = rng.permutation(self.family_b_orders)
        reqs = []
        for i, (n1, nu) in enumerate(zip(a_orders, a_unstable)):
            reqs.append(Request("family_a", *_pair(rng, int(n1), int(nu))))
            if i < len(b_orders):
                reqs.append(Request("family_b", *self._family_b(rng, int(b_orders[i]))))
        return reqs

    @staticmethod
    def _family_b(rng, n1):
        while True:
            stable = inputs.random_controller(rng, n1, 0)
            lam = rng.uniform(0.1, 1.5)
            bu, cu = rng.uniform(0.02, 0.3), rng.uniform(-0.3, 0.3)
            k = inputs.block_sum(stable, (np.array([[lam]]), np.array([[bu]]),
                                          np.array([[cu]])))
            g = inputs.plant_for(k)
            if g is not None:
                return g, k

    def serve(self, req):
        items = []
        g, k = ctred.make_system(*req.g), ctred.make_system(*req.k)
        if req.kind == "family_a":
            res = _attempt(items, "reduce.balanced", ctred.balanced_truncate_unstable,
                           k, k.n - 1, order=k.n - 1)
            if res is not None:
                items[-1].reduced = _abc(res.reduced)
                _certify(items, "thm2", ctred.check_thm2_bound, g, k, res.reduced)
                _certify(items, "cor1", ctred.check_cor1, g, k, res.reduced, res)
            kr = _attempt(items, "reduce.modal", _modal_minus_one, k, order=k.n - 1)
            if kr is not None:
                items[-1].reduced = _abc(kr)
                _certify(items, "cor2", ctred.check_cor2, g, k, kr)
        else:
            kr = _attempt(items, "reduce.drop_unstable", _drop_unstable_modes, k,
                          order=k.n - 1)
            if kr is not None:
                items[-1].reduced = _abc(kr)
                _certify(items, "thm3", ctred.check_thm3, g, k, kr)
        return items


# -- reduce_sweep -------------------------------------------------------


class ReduceSweep:
    """Balanced and modal truncation of one controller to every order, plus
    the LQG cost of each stabilizing result (no certificates).

    A request is one controller and one target order r: balanced truncation
    to r (when r keeps the antistable part) and modal truncation of n-r
    blocks.  A round holds one controller of each order 4-8, with 0, 1 or 2
    antistable modes in turn, and every target order of each.  Orders 7-8
    stay in although ctred's rank test rejects many of them as non-minimal:
    those refusals are charged to the failure fraction.
    """

    name = "reduce_sweep"
    pool_rounds = 24
    orders = (4, 5, 6, 7, 8)

    def round(self, rng):
        reqs = []
        shift = int(rng.integers(0, 3))
        for i, order in enumerate(self.orders):
            n_unstable = (i + shift) % 3
            g, k = inputs.stabilized_pair(rng, order - n_unstable, n_unstable)
            reqs += [Request(f"order{order}", g, k, target=r) for r in range(1, order)]
        return reqs

    def serve(self, req):
        items = []
        g, k = ctred.make_system(*req.g), ctred.make_system(*req.k)
        results = []
        if req.target >= int(np.sum(np.linalg.eigvals(req.k[0]).real > 0)):
            res = _attempt(items, "reduce.balanced", ctred.balanced_truncate_unstable,
                           k, req.target, order=req.target)
            if res is not None:
                results.append((items[-1], res.reduced))
        res = _attempt(items, "reduce.modal", ctred.modal_truncate, k, k.n - req.target,
                       order=req.target)
        if res is not None:
            results.append((items[-1], res.reduced))
        for item, kr in results:
            item.reduced = _abc(kr)
            try:
                item.cost = float(ctred.lqg_cost(g, kr))
                item.verdict = True
            except NotStabilizingError:
                item.verdict = False
            except CtredError as exc:
                items.append(Item("cost", error=type(exc).__name__))
        return items


WORKLOADS = {w.name: w for w in (StabilityBatch(), BoundBatch(), ReduceSweep())}


# -- checks (outside the timed region) -----------------------------------


def check(req, items, findings: Findings) -> None:
    """Check one request's outputs with the oracle; update ``findings``."""
    for item in items:
        if item.error is not None or item.reduced is None:
            continue
        if item.order is not None and item.reduced[0].shape[0] != item.order:
            findings.wrong += 1
        if item.is_reduction and item.verdict is None:
            continue  # a reduction that feeds certificates: checked through them
        alpha = oracle.abscissa(req.g, item.reduced)
        if item.is_reduction:  # reduce_sweep: ctred's stability verdict and cost
            if item.verdict and alpha >= 0.0:
                findings.wrong += 1
            elif not item.verdict and alpha < -AXIS_MARGIN:
                findings.wrong += 1
            elif item.verdict:
                truth = oracle.true_cost(req.g, item.reduced)
                if abs(item.cost - truth) > COST_REL * truth:
                    findings.wrong += 1
            continue
        if not item.verdict:
            continue
        if alpha >= 0.0:
            findings.unsound += 1
        elif item.bound is not None:
            truth = oracle.true_cost(req.g, item.reduced)
            if truth > item.bound * (1.0 + BOUND_SLACK):
                findings.unsound += 1
            findings.bound_ratios.append(item.bound / truth)


def refused(items) -> bool:
    """True when ctred refused every operation of a request."""
    return all(item.error is not None for item in items)


def verdict_key(items) -> list[str]:
    """Compact verdict strings of one request, for run-to-run comparison."""
    out = []
    for item in items:
        state = item.error or {True: "pass", False: "fail", None: "ok"}[item.verdict]
        out.append(f"{item.op}:{state}")
    return out
