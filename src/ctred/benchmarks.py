"""Bundled benchmark instances and reproducible experiments.

Three experiments ship with the package: a comparison of balanced and
modal truncation on a third-order loop, an unstable-mode truncation demo,
and a perturbation-size sweep relating the cost gap to the peak gain of
the truncated component.  Reference values for the first two come bundled
with the fixtures; their matrices are stated to a few decimals, so checks
against the references carry explicit tolerances and two of them are
known not to hold (see the ``reference_checks`` entries of the reports).
"""

from __future__ import annotations

import numpy as np

from .certify import check_cor1, check_cor2, check_thm3, lqg_cost
from .decompose import split_stable_unstable
from .errors import CtredError, NotStabilizingError
from .gen import random_stable_minimal, synthesize_stabilizing_plant
from .linalg import eigenvalues
from .norms import hinf_norm
from .reduce import balanced_truncate_unstable, modal_truncate
from .statespace import (
    StateSpaceSystem,
    add,
    closed_loop_matrix,
    make_system,
)


def bench_balanced_vs_modal_pair():
    """Third-order SISO plant/controller loop; the controller has one
    antistable mode, so reduction acts on its stable part."""
    g = make_system(
        [[-6.00, -13.84, -11.95], [1, 0, 0], [0, 1, 0]],
        [[1.0], [0.0], [0.0]],
        [[-1.74, -7.63, -8.37]],
    )
    k = make_system(
        [[-2.1541, -0.0104, 0.0], [-0.0104, -2.1731, 0.0], [0.0, 0.0, 0.2]],
        [[0.0], [1.2815], [0.5]],
        [[-0.8097, -1.2368, 0.5]],
    )
    return g, k


# Reference values bundled with the pair above (stated to the printed precision).
BALMOD_REFERENCE = {
    "cost_original": 8.0552,
    "cost_balanced": 8.0552,
    "cost_modal": 8.9928,
    "delta_hinf_balanced": 2.6572e-6,
    "delta_hinf_modal": 0.0580,
    "closed_loop_poles": (-0.38, -2.53, -2.15),  # quoted as double poles
}


def bench_unstable_pair():
    """Third-order SISO loop whose controller has two antistable modes;
    the least important one is itself antistable."""
    g = make_system(
        [[-5.86, -9.50, 0.56], [1, 0, 0], [0, 1, 0]],
        [[1.0], [0.0], [0.0]],
        [[-7.18, -25.61, -8.41]],
    )
    k = make_system(
        np.diag([1.37, -0.37, 0.34]),
        [[0.19], [0.04], [0.04]],
        [[3.79, 4.14, -1.57]],
    )
    return g, k


UNSTABLE_REFERENCE = {
    "cost_original": 343.2,
    "cost_reduced": 58.2,
}


def bench_scaling_core() -> StateSpaceSystem:
    """Third-order SISO core system for the perturbation sweep."""
    return make_system(
        [[1.5, -1.0, -0.21], [3.00, -0.43, -1.00], [2.00, -0.07, -5.00]],
        [[0.18], [0.97], [1.2]],
        [[1.00, 2.00, 3.00]],
    )


def scaling_perturbation(eps: float) -> StateSpaceSystem:
    """First-order perturbation with peak gain exactly ``eps``."""
    root = float(np.sqrt(eps))
    return make_system([[-1.0]], [[root]], [[root]])


def bench_spread_antistable() -> StateSpaceSystem:
    """Antistable mode appended to random stable parts in the spread study."""
    return make_system([[0.2]], [[0.5]], [[0.5]])


def _check(value: float, reference: float, rel_tol: float):
    ok = abs(value - reference) <= rel_tol * abs(reference)
    return {"value": float(value), "reference": float(reference),
            "rel_tol": rel_tol, "pass": bool(ok)}


def _pole_multiset_check(acl: np.ndarray, references, tol_abs: float):
    """Greedy optimal matching of the spectrum against reference values
    repeated twice each; passes when every match is within ``tol_abs``."""
    ev = list(eigenvalues(acl))
    targets = [complex(r) for r in references for _ in range(2)]
    worst = 0.0
    for t in targets:
        if not ev:
            worst = np.inf
            break
        dists = [abs(e - t) for e in ev]
        idx = int(np.argmin(dists))
        worst = max(worst, dists[idx])
        ev.pop(idx)
    return {
        "computed": [[float(e.real), float(e.imag)] for e in eigenvalues(acl)],
        "reference_double_poles": [float(r) for r in references],
        "worst_match_error": float(worst),
        "tol_abs": tol_abs,
        "pass": bool(worst <= tol_abs),
    }


def _modal_truncate_stable_part(k: StateSpaceSystem) -> StateSpaceSystem:
    """Drop the least important block of the stable part of ``k`` and re-add
    its antistable part untouched."""
    split = split_stable_unstable(k)
    return add(modal_truncate(split.stable_part, 1).reduced, split.unstable_part)


def run_balanced_vs_modal() -> dict:
    """Balanced vs modal truncation (to order 2) on the bundled loop."""
    g, k = bench_balanced_vs_modal_pair()
    j_orig = lqg_cost(g, k)

    bt = balanced_truncate_unstable(k, 2)
    j_bt = lqg_cost(g, bt.reduced)
    cert_bt = check_cor1(g, k, bt)
    delta_bt_hinf = cert_bt.quantities["delta_hinf"]

    k_r_mt = _modal_truncate_stable_part(k)
    j_mt = lqg_cost(g, k_r_mt)
    cert_mt = check_cor2(g, k, k_r_mt)
    delta_mt_hinf = cert_mt.quantities["delta_hinf"]

    ref = BALMOD_REFERENCE
    report = {
        "experiment": "table1",
        "costs": {
            "original": j_orig,
            "balanced": j_bt,
            "modal": j_mt,
        },
        "norms": {
            "delta_hinf_balanced": delta_bt_hinf,
            "delta_hinf_modal": delta_mt_hinf,
        },
        "certificates": [cert_bt.to_dict(), cert_mt.to_dict()],
        "reference_checks": {
            "cost_original": _check(j_orig, ref["cost_original"], 0.01),
            "cost_balanced": _check(j_bt, ref["cost_balanced"], 0.01),
            "cost_modal": _check(j_mt, ref["cost_modal"], 0.01),
            "delta_hinf_modal": _check(delta_mt_hinf, ref["delta_hinf_modal"], 0.05),
            "delta_hinf_balanced": {
                "value": delta_bt_hinf,
                "bound": 1e-5,
                "pass": bool(delta_bt_hinf <= 1e-5),
            },
            "closed_loop_poles": _pole_multiset_check(
                closed_loop_matrix(g, k), ref["closed_loop_poles"], 0.01
            ),
        },
    }
    return report


def run_unstable_truncation() -> dict:
    """Unstable-mode truncation on the bundled loop, with its certificate."""
    g, k = bench_unstable_pair()
    j_orig = lqg_cost(g, k)
    mt = modal_truncate(k, 1)
    try:
        j_red = lqg_cost(g, mt.reduced)
    except NotStabilizingError:
        j_red = float("inf")
    cert = check_thm3(g, k, mt.reduced)
    ref = UNSTABLE_REFERENCE
    return {
        "experiment": "unstable",
        "costs": {"original": j_orig, "reduced": j_red},
        "reduced_order": mt.reduced.n,
        "certificates": [cert.to_dict()],
        "reference_checks": {
            "cost_original": _check(j_orig, ref["cost_original"], 0.05),
            "cost_reduced": _check(j_red, ref["cost_reduced"], 0.05),
            "certificate_passes": {"pass": bool(cert.condition_satisfied)},
            "verified_stable": {"pass": bool(cert.verified_stable)},
            "cost_below_bound": {
                "value": j_red,
                "bound": cert.cost_bound,
                "pass": bool(cert.cost_bound is not None and j_red <= cert.cost_bound),
            },
        },
    }


def run_scaling_sweep():
    """Cost-gap ratio versus perturbation peak gain, with a linear fit, over
    30 perturbation sizes evenly spaced from 1e-4 to 0.05.

    The accompanying plant is synthesized from the largest augmented
    system, so the fitted slope depends on this synthesis choice; the
    reproducible claim is the linearity itself (the R^2 of the fit), not
    the slope value.  Returns ``(report, rows)`` where each row is
    ``(eps, delta_hinf, cost_gap_ratio)``.
    """
    core = bench_scaling_core()
    eps_values = np.linspace(0.0001, 0.05, 30)
    k_big = add(core, scaling_perturbation(float(eps_values[-1])))
    plant = synthesize_stabilizing_plant(k_big)
    j_core = lqg_cost(plant, core)
    rows = []
    for eps in eps_values:
        delta = scaling_perturbation(float(eps))
        j_aug = lqg_cost(plant, add(core, delta))
        delta_hinf = hinf_norm(delta)
        rows.append((float(eps), float(delta_hinf), float((j_core - j_aug) / j_aug)))
    xs = np.array([r[1] for r in rows])
    ys = np.array([r[2] for r in rows])
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    report = {
        "experiment": "scaling",
        "n_points": eps_values.size,
        "fit": {"slope": float(coef[0]), "intercept": float(coef[1]),
                "r_squared": r_squared},
        "note": (
            "the plant is synthesized, so the slope is specific to this "
            "instance; only the linearity of the relationship is expected "
            "to be reproducible"
        ),
        "reference_checks": {
            "linear_fit": {"r_squared": r_squared, "threshold": 0.95,
                           "pass": bool(r_squared >= 0.95)},
        },
    }
    return report, rows


def run_spread_comparison(trials: int = 30, seed: int = 2024) -> dict:
    """Spread of the cost ratio for balanced versus modal truncation.

    Each trial draws a random stable minimal third-order part, appends the
    fixed antistable mode, synthesizes a stabilizing plant, and reduces
    the stable part by one state with both methods.  Trials that ctred
    refuses with a typed error are counted as ``skipped``.
    """
    rng = np.random.default_rng(seed)
    anti = bench_spread_antistable()
    ratios_bt: list[float] = []
    ratios_mt: list[float] = []
    attempts = 0
    skipped = 0
    while len(ratios_bt) < trials and attempts < 20 * trials:
        attempts += 1
        try:
            stable = random_stable_minimal(rng, 3)
            k = add(stable, anti)
            plant = synthesize_stabilizing_plant(k)
            j_orig = lqg_cost(plant, k)
            bt = balanced_truncate_unstable(k, 3)
            j_bt = lqg_cost(plant, bt.reduced)
            j_mt = lqg_cost(plant, _modal_truncate_stable_part(k))
        except CtredError:
            skipped += 1
            continue
        ratios_bt.append(j_bt / j_orig)
        ratios_mt.append(j_mt / j_orig)

    def iqr(vals):
        q1, q3 = np.percentile(vals, [25, 75])
        return float(q3 - q1)

    return {
        "experiment": "spread",
        "seed": seed,
        "trials": len(ratios_bt),
        "skipped": skipped,
        "cost_ratio_balanced": [float(v) for v in ratios_bt],
        "cost_ratio_modal": [float(v) for v in ratios_mt],
        "iqr_balanced": iqr(ratios_bt),
        "iqr_modal": iqr(ratios_mt),
        "balanced_tighter": bool(iqr(ratios_bt) < iqr(ratios_mt)),
    }
