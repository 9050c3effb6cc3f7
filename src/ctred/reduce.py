"""Truncation-based order reduction.

Three reductions are provided: balanced truncation of stable systems,
balanced truncation of the stable part of an unstable controller (the
antistable part is carried through untouched), and modal truncation
ranked by per-mode importance.  A Gramian-based minimal realization and
the split that gives the certificates a transfer function's unstable
poles (:func:`split_cancelled_unstable`) also live here.

Every Gramian is factored in one place, the Hankel pass
(:func:`_hankel_pass`: both Gramians from one real Schur form of the
state matrix, eigen square roots and one SVD).  The parts the
stable/antistable split leaves are already in Schur form, so their
Gramians take only triangular solves.  The balancing transform, the
Hankel-sum bounds and the rounding floor below which Hankel values are
noise all read that pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
from .norms import _feedthrough_gain
from .statespace import (
    StateSpaceSystem,
    add,
    check_minimal,
    frequency_response,
    mirror,
)
from .tolerances import HSV_MINIMAL, HSV_TIE, MINREAL_TOL


@dataclass(frozen=True)
class BalancedRealization:
    """Balanced realization with its Hankel singular values and transform."""

    system: StateSpaceSystem
    hankel_singular_values: np.ndarray
    transform: np.ndarray


@dataclass(frozen=True)
class TruncationResult:
    """A reduced system with the method that produced it and the importance
    values of what was truncated (Hankel singular values for balanced
    truncation, mode importances for modal truncation)."""

    reduced: StateSpaceSystem
    method: str  # "balanced" or "modal"
    truncated_tail: tuple[float, ...]


def balance(s: StateSpaceSystem) -> BalancedRealization:
    """Balanced realization of a stable minimal system.

    Both Gramians of the returned realization equal ``diag(sigma)`` with
    the Hankel singular values in descending order.  The transform is the
    square-root one built from the Hankel pass (:func:`_hankel_pass`):
    with ``Zo^T Zc = U diag(sigma) V^T``, ``T = sigma^{-1/2} U^T Zo^T`` and
    ``T^{-1} = Zc V sigma^{-1/2}`` (Laub, Heath, Paige & Ward 1987), so the
    Hankel values come from one SVD and never from their squares.
    """
    if s.n == 0:
        raise InfeasibleOrderError("cannot balance an order-0 system")
    if not linalg.is_stable(s.A):
        raise StabilityError("balanced realization requires a stable system")
    minimal = check_minimal(s)
    if not minimal:
        raise MinimalityError(
            f"system is not minimal (controllability rank {minimal.controllability_rank}, "
            f"observability rank {minimal.observability_rank}, order {s.n})"
        )
    hp = _hankel_pass(s)
    sigma = hp.sigma
    if sigma.size < s.n:
        raise MinimalityError(
            f"a Gramian of the order-{s.n} system has numerical rank {sigma.size}"
        )
    if sigma[-1] < HSV_MINIMAL * sigma[0]:
        raise MinimalityError(
            f"smallest Hankel singular value {sigma[-1]:.2e} is below "
            f"{HSV_MINIMAL:.0e} of the largest; realization not minimal enough"
        )
    scale = 1.0 / np.sqrt(sigma)
    t = scale[:, None] * (hp.u.T @ hp.zo.T)
    tinv = (hp.zc @ hp.vt.T) * scale
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
    if not linalg.is_stable(reduced.A):
        raise StabilityError("truncated system lost stability; split is ill-conditioned")
    return TruncationResult(reduced, "balanced", tuple(float(v) for v in sigma[r:]))


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
        reduced = split.unstable_part
        tail = tuple(float(v) for v in bal.hankel_singular_values)
    else:
        inner = balanced_truncate(stable, nr)
        reduced = add(inner.reduced, split.unstable_part)
        tail = inner.truncated_tail
    return TruncationResult(reduced, "balanced", tail)


def _minimal_modal_form(k: StateSpaceSystem) -> ModalDecomposition:
    """Modal form of a realization that modal truncation accepts: a minimal one."""
    if not check_minimal(k):
        raise MinimalityError("controller realization must be minimal")
    return modal_form(k)


def modal_truncate(k: StateSpaceSystem, r_red: int) -> TruncationResult:
    """Remove the ``r_red`` least important modal blocks (:func:`mode_ranking`)
    of a minimal system."""
    return modal_truncate_decomposition(_minimal_modal_form(k), r_red)


def mode_ranking(md: ModalDecomposition) -> list[int]:
    """Block indices from least to most important (the removal order).

    Ties in the importance index break toward smaller ``|Re(lambda)|``,
    then smaller ``|Im(lambda)|``, then block position.
    """
    def rank_key(i: int):
        d = md.blocks[i].importance
        if math.isnan(d):
            d = math.inf  # unrankable modes are never among the smallest
        lam = md.blocks[i].eigenvalue
        return (d, abs(lam.real), abs(lam.imag), i)

    return sorted(range(len(md.blocks)), key=rank_key)


def modal_truncate_decomposition(md: ModalDecomposition, r_red: int) -> TruncationResult:
    """Modal truncation given an existing decomposition."""
    n_blocks = len(md.blocks)
    if not 1 <= r_red < n_blocks:
        raise InfeasibleOrderError(
            f"number of removed blocks must satisfy 1 <= r_red < {n_blocks}, got {r_red}"
        )
    removed = mode_ranking(md)[:r_red]
    for i in removed:
        if math.isnan(md.blocks[i].importance):
            raise ZeroModeError(
                "removal set contains a mode with zero or imaginary-axis eigenvalue"
            )
    kept = [i for i in range(n_blocks) if i not in removed]
    tail = tuple(float(md.blocks[i].importance) for i in removed)
    return TruncationResult(md.rebuild(kept), "modal", tail)


def _gramian_factor(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Rank-revealing factor ``Z`` with ``W ~ Z Z^T`` (columns may be
    dropped) and its 2-norm ``sqrt(max eig W)``."""
    w = 0.5 * (w + w.T)
    evals, vecs = np.linalg.eigh(w)
    top = max(evals.max(initial=0.0), 0.0)
    keep = evals > max(top, 1e-300) * 1e-14
    return vecs[:, keep] * np.sqrt(evals[keep]), math.sqrt(top)


class _HankelPass(NamedTuple):
    """Hankel values of a stable part with their noise floor and the
    factors of its square-root projections (balanced and balancing-free)."""

    sigma: np.ndarray  # descending; empty when unreachable or unobservable
    floor: float  # below it the Hankel values are Gramian rounding noise
    zc: np.ndarray | None  # Gramian factors and the SVD ``zo^T zc = u diag(sigma) vt``
    zo: np.ndarray | None
    u: np.ndarray | None
    vt: np.ndarray | None

    @property
    def bound(self) -> float:
        """Twice the Hankel value sum: bounds the strictly proper peak gain."""
        return 2.0 * float(np.sum(self.sigma))

    @property
    def upper_bound(self) -> float:
        """:attr:`bound` plus one noise floor per state.

        The computed Hankel values carry Gramian rounding, so :attr:`bound`
        alone can fall short of the peak gain it bounds (a single-state
        ``2 sigma`` came out 1.2e-12 below a 50-digit ``|delta(0)|`` of
        1.275e-7); the margin covers that.
        """
        states = 0 if self.zc is None else self.zc.shape[0]
        return self.bound + states * self.floor


def _hankel_pass(s: StateSpaceSystem) -> _HankelPass:
    """Both Gramians of a stable part (may be non-minimal) from one Schur
    form of its state matrix, their eigen square roots and one SVD.

    A part that :func:`~ctred.decompose.split_stable_unstable` left, or
    its mirror, is already in Schur form (or is the negated transpose of
    one), so its Gramians take only triangular solves
    (:func:`~ctred.linalg._gramians`).
    """
    if s.n:
        wc, wo = linalg._gramians(s.A, (s.B @ s.B.T,), (s.C.T @ s.C,))
        zc, zc_norm = _gramian_factor(wc)
        zo, zo_norm = _gramian_factor(wo)
        if zc.shape[1] and zo.shape[1]:
            u, sv, vt = np.linalg.svd(zo.T @ zc, full_matrices=False)
            # Gramian rounding noise was observed up to ~1e3 eps times the
            # factor scales
            floor = 1e4 * np.finfo(float).eps * zc_norm * zo_norm
            return _HankelPass(sv, floor, zc, zo, u, vt)
    return _HankelPass(np.zeros(0), 0.0, None, None, None, None)


def _truncate_part_by_tol(s: StateSpaceSystem, hp: _HankelPass, cut: float):
    """Balancing-free square-root truncation keeping states with sigma > cut.

    ``hp`` is the Hankel pass of ``s``.  Orthonormal bases of the dominant
    Hankel subspaces give a far better conditioned projection than the
    balanced one when the cut sits near the rounding floor of the Gramians.
    """
    k = int(np.sum(hp.sigma > cut))
    if k == s.n:
        return s
    if k == 0:
        return StateSpaceSystem(np.zeros((0, 0)), np.zeros((0, s.m)),
                                np.zeros((s.p, 0)), s.D)
    v, _ = np.linalg.qr(hp.zc @ hp.vt[:k, :].T)
    w, _ = np.linalg.qr(hp.zo @ hp.u[:, :k])
    m = w.T @ v
    a_r = sla.solve(m, w.T @ s.A @ v)
    b_r = sla.solve(m, w.T @ s.B)
    c_r = s.C @ v
    return StateSpaceSystem(a_r, b_r, c_r, s.D)


def hankel_norm_bound(s: StateSpaceSystem) -> float:
    """Proven upper bound on the peak gain of ``s`` over the imaginary axis.

    ``||s||_inf <= ||D|| + 2 sum sigma(stable part) + 2 sum sigma(mirrored
    antistable part)`` (the Hankel-sum bound, Glover 1984), each sum with
    its rounding margin (:attr:`_HankelPass.upper_bound`).  The split
    raises :class:`AxisPoleError` or :class:`SeparationError` when the
    poles do not separate.
    """
    split = split_stable_unstable(s)
    return (_feedthrough_gain(s.D) + _hankel_pass(split.stable_part).upper_bound
            + _hankel_pass(mirror(split.unstable_part)).upper_bound)


def drop_negligible_antistable(s: StateSpaceSystem):
    """Stable realization of ``s`` when its antistable part is rounding noise.

    Splits the system; if the antistable part's Hankel bound is negligible
    against both the stable part's scale and the realization's rounding
    floor (the situation created by exactly cancelling unstable modes in a
    difference of systems), returns the stable part together with an upper
    bound on the peak gain of the dropped part, so ``||stable part|| <=
    ||s|| + dropped`` on the axis.  Returns ``None`` when the antistable
    content is genuine.
    """
    split = split_stable_unstable(s)
    anti = split.unstable_part
    if anti.n == 0:
        return split.stable_part, 0.0
    stable_hp = _hankel_pass(split.stable_part)
    anti_hp = _hankel_pass(mirror(anti))
    stable_scale = stable_hp.bound + _feedthrough_gain(s.D)
    floor = max(stable_hp.floor, anti_hp.floor)
    if anti_hp.bound <= max(1e-6 * stable_scale, floor):
        return split.stable_part, anti_hp.upper_bound
    return None


def split_cancelled_unstable(
    s: StateSpaceSystem,
) -> tuple[StateSpaceSystem, StateSpaceSystem]:
    """``(stable_part, antistable_part)`` of ``s``, the antistable part
    without the directions whose mirrored Hankel values are at or below
    its rounding floor (exactly cancelling copies in a difference of
    systems).  Its order and eigenvalues are the unstable-pole count and
    the unstable poles of ``s``: the package's one rule for them.  Raises
    :class:`AxisPoleError` or :class:`SeparationError` when the poles do
    not split.
    """
    split = split_stable_unstable(s)
    anti = split.unstable_part
    if anti.n:
        anti_m = mirror(anti)
        anti_hp = _hankel_pass(anti_m)
        anti = mirror(_truncate_part_by_tol(anti_m, anti_hp, anti_hp.floor))
    return split.stable_part, anti


def minimal_realization(s: StateSpaceSystem) -> StateSpaceSystem:
    """Remove states whose Hankel value is below ``MINREAL_TOL`` of the largest.

    The strictly proper part is split into stable and antistable parts;
    each is reduced by square-root balanced truncation (the antistable
    part through its stable reflection) and the parts are reassembled.
    Requires all poles off the imaginary axis.
    """
    if s.n == 0:
        return s
    split = split_stable_unstable(s)
    stable, anti = split.stable_part, split.unstable_part
    anti_m = mirror(anti)
    stable_hp = _hankel_pass(stable)
    anti_hp = _hankel_pass(anti_m)

    top = max(np.max(stable_hp.sigma, initial=0.0), np.max(anti_hp.sigma, initial=0.0))
    noise_floor = max(stable_hp.floor, anti_hp.floor)
    cut = max(MINREAL_TOL * top, noise_floor)
    stable_red = _truncate_part_by_tol(stable, stable_hp, cut)
    anti_red = mirror(_truncate_part_by_tol(anti_m, anti_hp, cut))
    result = add(stable_red, anti_red)
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
