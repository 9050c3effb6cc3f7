"""Truncation-based order reduction.

Three reductions are provided: balanced truncation of stable systems,
balanced truncation of the stable part of an unstable controller (the
antistable part is carried through untouched), and modal truncation
ranked by per-mode importance.  A Gramian-based minimal realization
(used heavily by the certificates) also lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import linalg
from .decompose import ModalDecomposition, modal_form, split_stable_unstable
from .errors import (
    ConvergenceError,
    InfeasibleOrderError,
    MinimalityError,
    PartitionTieError,
    StabilityError,
    ZeroModeError,
)
from .statespace import (
    StateSpaceSystem,
    add,
    check_minimal,
    frequency_response,
    mirror,
    negate,
)
from .tolerances import HSV_MINIMAL, HSV_TIE, MINREAL_TOL, inf_norm, stab_tol


@dataclass(frozen=True)
class BalancedRealization:
    """Balanced realization with its Hankel singular values and transform."""

    system: StateSpaceSystem
    hankel_singular_values: np.ndarray
    transform: np.ndarray


@dataclass(frozen=True)
class TruncationResult:
    """A reduction together with the explicit error system ``delta = reduced - original``."""

    reduced: StateSpaceSystem
    delta: StateSpaceSystem
    method: str  # "balanced" or "modal"
    truncated_tail: tuple[float, ...]


def _gramians(s: StateSpaceSystem):
    wc = linalg.solve_lyapunov(s.A, s.B @ s.B.T)
    wo = linalg.solve_lyapunov(s.A.T, s.C.T @ s.C)
    return wc, wo


def balance(s: StateSpaceSystem) -> BalancedRealization:
    """Balanced realization of a stable minimal system.

    Both Gramians of the returned realization equal ``diag(sigma)`` with
    the Hankel singular values in descending order.
    """
    if s.n == 0:
        raise InfeasibleOrderError("cannot balance an order-0 system")
    if linalg.spectral_abscissa(s.A) >= -stab_tol(inf_norm(s.A)):
        raise StabilityError("balanced realization requires a stable system")
    minimal = check_minimal(s)
    if not minimal:
        raise MinimalityError(
            f"system is not minimal (controllability rank {minimal.controllability_rank}, "
            f"observability rank {minimal.observability_rank}, order {s.n})"
        )
    wc, wo = _gramians(s)
    try:
        q = sla.cholesky(wc, lower=True)
    except sla.LinAlgError:
        # near-singular controllability Gramian: eigen square root
        evals, vecs = np.linalg.eigh(wc)
        if evals.min() < 1e-12 * max(evals.max(), 0.0):
            raise MinimalityError(
                "controllability Gramian is numerically singular"
            ) from None
        q = vecs @ np.diag(np.sqrt(evals))
    mid = q.T @ wo @ q
    mid = 0.5 * (mid + mid.T)
    evals, u = np.linalg.eigh(mid)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    u = u[:, order]
    sigma = np.sqrt(np.clip(evals, 0.0, None))
    if sigma[-1] < HSV_MINIMAL * sigma[0]:
        raise MinimalityError(
            f"smallest Hankel singular value {sigma[-1]:.2e} is below "
            f"{HSV_MINIMAL:.0e} of the largest; realization not minimal enough"
        )
    sqrt_sigma = np.sqrt(sigma)
    t = np.diag(sqrt_sigma) @ u.T @ np.linalg.inv(q)
    tinv = q @ u @ np.diag(1.0 / sqrt_sigma)
    balanced = StateSpaceSystem(t @ s.A @ tinv, t @ s.B, s.C @ tinv, s.D)
    sigma.flags.writeable = False
    return BalancedRealization(balanced, sigma, t)


def balanced_truncate(s: StateSpaceSystem, r: int) -> TruncationResult:
    """Keep the ``r`` most Hankel-important states of a stable minimal system."""
    bal = balance(s)
    n = s.n
    if not 1 <= r < n:
        raise InfeasibleOrderError(f"target order must satisfy 1 <= r < {n}, got {r}")
    sigma = bal.hankel_singular_values
    if sigma[r - 1] - sigma[r] < HSV_TIE * sigma[0]:
        raise PartitionTieError(
            f"Hankel singular values {sigma[r-1]:.6e} and {sigma[r]:.6e} tie at the "
            "requested split; choose a different order"
        )
    sb = bal.system
    reduced = StateSpaceSystem(sb.A[:r, :r], sb.B[:r, :], sb.C[:, :r], sb.D)
    if linalg.spectral_abscissa(reduced.A) >= 0.0:
        raise StabilityError("truncated system lost stability; split is ill-conditioned")
    delta = add(reduced, negate(s))
    return TruncationResult(reduced, delta, "balanced", tuple(float(v) for v in sigma[r:]))


def balanced_truncate_unstable(k: StateSpaceSystem, r: int) -> TruncationResult:
    """Balanced truncation of the stable part of a (possibly unstable) controller.

    The antistable part is preserved exactly; only the stable part is
    truncated, so the error system is stable.
    """
    minimal = check_minimal(k)
    if not minimal:
        raise MinimalityError("controller realization must be minimal")
    split = split_stable_unstable(k)
    n1 = split.stable_part.n
    n2 = split.unstable_part.n
    if n1 < 1:
        raise InfeasibleOrderError("controller has no stable part to truncate")
    if r < n2:
        raise InfeasibleOrderError(
            f"target order {r} cannot preserve the antistable part of order {n2}"
        )
    if r >= k.n:
        raise InfeasibleOrderError(f"target order must be below {k.n}, got {r}")
    nr = r - n2
    stable = split.stable_part
    if nr == 0:
        # the stable part is removed entirely
        bal = balance(stable)
        reduced_stable = None
        delta = negate(stable)
        tail = tuple(float(v) for v in bal.hankel_singular_values)
    else:
        inner = balanced_truncate(stable, nr)
        reduced_stable = inner.reduced
        delta = inner.delta
        tail = inner.truncated_tail
    if reduced_stable is None:
        reduced = split.unstable_part
    else:
        reduced = add(reduced_stable, split.unstable_part)
    return TruncationResult(reduced, delta, "balanced", tail)


def modal_truncate(k: StateSpaceSystem, r_red: int) -> TruncationResult:
    """Remove the ``r_red`` least important modal blocks of a minimal system.

    Ties in the importance index break toward smaller ``|Re(lambda)|``,
    then smaller ``|Im(lambda)|``, then block position.
    """
    minimal = check_minimal(k)
    if not minimal:
        raise MinimalityError("controller realization must be minimal")
    md = modal_form(k)
    return modal_truncate_decomposition(md, r_red)


def modal_truncate_decomposition(md: ModalDecomposition, r_red: int) -> TruncationResult:
    """Modal truncation given an existing decomposition."""
    n_blocks = len(md.blocks)
    if not 1 <= r_red < n_blocks:
        raise InfeasibleOrderError(
            f"number of removed blocks must satisfy 1 <= r_red < {n_blocks}, got {r_red}"
        )
    def rank_key(i: int):
        d = md.blocks[i].importance
        if math.isnan(d):
            d = math.inf  # unrankable modes are never among the smallest
        lam = md.blocks[i].eigenvalue
        return (d, abs(lam.real), abs(lam.imag), i)

    ranking = sorted(range(n_blocks), key=rank_key)
    removed = ranking[:r_red]
    for i in removed:
        if math.isnan(md.blocks[i].importance):
            raise ZeroModeError(
                "removal set contains a mode with zero or imaginary-axis eigenvalue"
            )
    kept = [i for i in range(n_blocks) if i not in removed]
    reduced = md.rebuild(kept)
    delta = negate(md.rebuild(removed))
    tail = tuple(float(md.blocks[i].importance) for i in removed)
    return TruncationResult(reduced, delta, "modal", tail)


def _gramian_factor(w: np.ndarray) -> np.ndarray:
    """Rank-revealing factor ``Z`` with ``W ~ Z Z^T`` (columns may be dropped)."""
    w = 0.5 * (w + w.T)
    evals, vecs = np.linalg.eigh(w)
    top = max(evals.max(initial=0.0), 0.0)
    keep = evals > max(top, 1e-300) * 1e-14
    if not np.any(keep):
        return np.zeros((w.shape[0], 0))
    return vecs[:, keep] @ np.diag(np.sqrt(evals[keep]))


def _hankel_data(s: StateSpaceSystem):
    """Hankel singular values and SVD factors of a stable part (may be non-minimal)."""
    wc, wo = _gramians(s)
    zc = _gramian_factor(wc)
    zo = _gramian_factor(wo)
    if zc.shape[1] == 0 or zo.shape[1] == 0:
        return None
    u, sv, vt = np.linalg.svd(zo.T @ zc, full_matrices=False)
    return zc, zo, u, sv, vt


def _truncate_part_by_tol(s: StateSpaceSystem, cut: float):
    """Balancing-free square-root truncation keeping states with sigma > cut.

    Orthonormal bases of the dominant Hankel subspaces give a far better
    conditioned projection than the balanced one when the cut sits near
    the rounding floor of the Gramians.
    """
    if s.n == 0:
        return s
    data = _hankel_data(s)
    if data is None:
        return StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, s.m)),
                                np.zeros((s.p, 0)), s.D)
    zc, zo, u, sv, vt = data
    k = int(np.sum(sv > cut))
    if k == 0:
        return StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, s.m)),
                                np.zeros((s.p, 0)), s.D)
    if k == s.n:
        return s
    v, _ = np.linalg.qr(zc @ vt[:k, :].T)
    w, _ = np.linalg.qr(zo @ u[:, :k])
    m = w.T @ v
    a_r = sla.solve(m, w.T @ s.A @ v)
    b_r = sla.solve(m, w.T @ s.B)
    c_r = s.C @ v
    return StateSpaceSystem(a_r, b_r, c_r, s.D)


def hankel_norm_bound(s: StateSpaceSystem) -> float:
    """Twice the Hankel singular value sum of a stable system.

    Upper-bounds the peak gain of the strictly proper part; returns 0 for
    empty or unreachable/unobservable systems.  The feedthrough is ignored.
    """
    if s.n == 0:
        return 0.0
    data = _hankel_data(s)
    if data is None:
        return 0.0
    return 2.0 * float(np.sum(data[3]))


def _noise_floor(zc: np.ndarray, zo: np.ndarray) -> float:
    """Hankel-value noise level of a realization with Gramian factors ``zc``, ``zo``.

    Below it the Hankel values are Gramian rounding noise (observed up to
    ~1e3 eps times the factor scales).
    """
    return 1e4 * np.finfo(float).eps * np.linalg.norm(zc, 2) * np.linalg.norm(zo, 2)


def gramian_noise_floor(s: StateSpaceSystem) -> float:
    """Absolute level below which Hankel values of this realization are noise."""
    if s.n == 0:
        return 0.0
    data = _hankel_data(s)
    if data is None:
        return 0.0
    return _noise_floor(data[0], data[1])


def drop_negligible_antistable(s: StateSpaceSystem):
    """Stable realization of ``s`` when its antistable part is rounding noise.

    Splits the system; if the antistable part's Hankel bound is negligible
    against both the stable part's scale and the realization's rounding
    floor (the situation created by exactly cancelling unstable modes in a
    difference of systems), returns the stable part.  Returns ``None``
    when the antistable content is genuine.
    """
    split = split_stable_unstable(s)
    anti = split.unstable_part
    if anti.n == 0:
        return split.stable_part
    anti_m = mirror(anti)
    anti_bound = hankel_norm_bound(anti_m)
    stable_scale = hankel_norm_bound(split.stable_part)
    if s.D.size:
        stable_scale += float(np.linalg.svd(s.D, compute_uv=False)[0])
    floor = max(gramian_noise_floor(split.stable_part),
                gramian_noise_floor(anti_m))
    if anti_bound <= max(1e-6 * stable_scale, floor):
        return split.stable_part
    return None


def split_cancelled_unstable(s: StateSpaceSystem) -> StateSpaceSystem:
    """Copy of ``s`` with rounding-level antistable directions removed.

    Genuine antistable modes are preserved; only the near-cancelled ones
    (Hankel values at the rounding floor of the antistable part) are
    dropped.  The stable part is kept untouched.
    """
    split = split_stable_unstable(s)
    anti = split.unstable_part
    if anti.n == 0:
        return s
    anti_m = mirror(anti)
    cut = gramian_noise_floor(anti_m)
    anti_clean = mirror(_truncate_part_by_tol(anti_m, cut))
    anti_strict = StateSpaceSystem(
        anti_clean.A, anti_clean.B, anti_clean.C, np.zeros((s.p, s.m))
    )
    return add(split.stable_part, anti_strict)


def minimal_realization(s: StateSpaceSystem, tol: float = MINREAL_TOL) -> StateSpaceSystem:
    """Remove states whose Hankel contribution is below ``tol`` (relative).

    The strictly proper part is split into stable and antistable parts;
    each is reduced by square-root balanced truncation (the antistable
    part through its stable reflection) and the parts are reassembled.
    Requires all poles off the imaginary axis.
    """
    if s.n == 0:
        return s
    split = split_stable_unstable(s)
    stable, anti = split.stable_part, split.unstable_part
    anti_m = mirror(anti) if anti.n else None

    top = 0.0
    noise_floor = 0.0
    for part in (stable, anti_m):
        if part is not None and part.n:
            data = _hankel_data(part)
            if data is not None:
                top = max(top, data[3][0])
                noise_floor = max(noise_floor, _noise_floor(data[0], data[1]))
    cut = max(tol * top, noise_floor)
    stable_red = _truncate_part_by_tol(stable, cut)
    if anti_m is not None:
        anti_red = mirror(_truncate_part_by_tol(anti_m, cut))
    else:
        anti_red = anti
    anti_strict = StateSpaceSystem(
        anti_red.A, anti_red.B, anti_red.C, np.zeros((s.p, s.m))
    )
    result = add(stable_red, anti_strict)
    # Self-check: a difference of nearly identical systems can leave only
    # noise-dominated directions, in which case the projection is garbage.
    probes = (0.0, 0.731, 9.3)
    r_in = frequency_response(s, probes)
    r_out = frequency_response(result, probes)
    diff = float(np.max(np.abs(r_in - r_out)))
    scale = float(np.max(np.abs(r_in)))
    if diff > max(1e-6 * scale, 10.0 * noise_floor):
        raise ConvergenceError(
            "minimal realization is numerically unreliable for this system "
            "(state directions below the Gramian rounding floor)"
        )
    return result
