"""Truncation-based order reduction.

Three reductions are provided: balanced truncation of stable systems,
balanced truncation of the stable part of an unstable controller (the
antistable part is carried through untouched), and modal truncation
ranked by per-mode importance.  Modal truncation takes any realization:
a mode the input cannot reach or the output cannot see has importance 0
and is removed first.  A Gramian-based minimal realization also lives
here.

Every Gramian is factored in one place, the Hankel pass
(:func:`_hankel_pass`: both Gramians from one real Schur form of the
state matrix, eigen square roots and one SVD).  The parts the
stable/antistable split leaves are already in Schur form, so their
Gramians take only triangular solves.  The square-root transform
(:func:`_balanced`), the Hankel-sum bounds and the rounding floor below
which Hankel values are noise all read that pass.  Truncation needs only
the values it keeps, so a non-minimal realization reduces to the balanced
truncation of its minimal part; only :func:`balance` refuses one.

A split with the passes of its two parts (:class:`_Split`) is the one
home of three rules on them: the Hankel-sum bound on the peak gain, when
an antistable part is rounding noise, and which unstable poles are
genuine.  :func:`drop_negligible_antistable` and
:func:`split_cancelled_unstable` apply the last two to one system; the
certificates apply all three to the splits they hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
from .statespace import StateSpaceSystem, add, frequency_response, mirror
from .tolerances import (
    ANTI_NEGLIGIBLE,
    GRAMIAN_CUT,
    GRAMIAN_FLOOR,
    HSV_MINIMAL,
    HSV_TIE,
    MINREAL_CHECK,
    MINREAL_TOL,
)


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
    """Balanced realization of a stable minimal system (:func:`_balanced`).

    Both Gramians of the returned realization equal ``diag(sigma)`` with
    the Hankel singular values in descending order.  A Gramian below full
    numerical rank, or a smallest value below ``HSV_MINIMAL`` of the
    largest, refuses the input as not minimal.
    """
    if s.n == 0:
        raise InfeasibleOrderError("cannot balance an order-0 system")
    hp = _hankel_pass(s)
    sigma = hp.sigma
    if sigma.size < s.n or sigma[-1] < HSV_MINIMAL * sigma[0]:
        raise MinimalityError(
            f"the order-{s.n} system is not minimal: its Gramians give {sigma.size} "
            f"Hankel singular values, or the smallest is below {HSV_MINIMAL:.0e} of the largest"
        )
    return _balanced(s, hp)


def _balanced(s: StateSpaceSystem, hp: _HankelPass) -> BalancedRealization:
    """``s`` in the square-root coordinates of its Hankel pass ``hp``: with
    ``Zo^T Zc = U diag(sigma) V^T``, ``T = sigma^{-1/2} U^T Zo^T`` and its
    right inverse ``T^{-1} = Zc V sigma^{-1/2}`` (Laub, Heath, Paige & Ward
    1987).  No value below ``HSV_MINIMAL`` of the largest is ever kept, so
    its row and column are scaled at that level, where they stay finite."""
    scale = 1.0 / np.sqrt(np.maximum(hp.sigma, HSV_MINIMAL * hp.sigma[0]))
    t = scale[:, None] * (hp.u.T @ hp.zo.T)
    tinv = (hp.zc @ hp.vt.T) * scale
    balanced = StateSpaceSystem(t @ s.A @ tinv, t @ s.B, s.C @ tinv, s.D)
    hp.sigma.flags.writeable = False
    return BalancedRealization(balanced, hp.sigma, t)


def balanced_truncate(s: StateSpaceSystem, r: int) -> TruncationResult:
    """Keep the ``r`` most Hankel-important states of a stable system: the
    leading ``r`` rows and columns of :func:`_balanced`, for a non-minimal
    realization the balanced truncation of its minimal part (Tombs and
    Postlethwaite 1987); the tail is :meth:`_HankelPass.values` ``[r:]``.
    Refuses only a kept ``sigma_r`` at or below the pass's floor or below
    ``HSV_MINIMAL`` of the largest, a tie (``HSV_TIE``) at the cut, and an
    unstable result."""
    hp = _hankel_pass(s)
    if not 1 <= r < s.n:
        raise InfeasibleOrderError(f"target order must satisfy 1 <= r < {s.n}, got {r}")
    sigma = hp.values(s.n)
    if not sigma[r - 1] > max(hp.floor, HSV_MINIMAL * sigma[0]):
        raise MinimalityError(
            f"an order-{r} truncation keeps a Hankel singular value at the rounding "
            f"floor {hp.floor:.2e} or below {HSV_MINIMAL:.0e} of the largest"
        )
    if sigma[r - 1] - sigma[r] < HSV_TIE * sigma[0]:
        raise PartitionTieError(
            f"Hankel singular values {sigma[r-1]:.6e} and {sigma[r]:.6e} tie at the "
            "requested split; choose a different order"
        )
    sb = _balanced(s, hp).system
    reduced = StateSpaceSystem(sb.A[:r, :r], sb.B[:r, :], sb.C[:, :r], sb.D)
    if not linalg.is_stable(reduced.A):
        raise StabilityError("truncated system lost stability; split is ill-conditioned")
    return TruncationResult(reduced, "balanced", sigma[r:])


def balanced_truncate_unstable(k: StateSpaceSystem, r: int) -> TruncationResult:
    """Balanced truncation of the stable part of a (possibly unstable) controller.

    The antistable part is preserved exactly; only the stable part is
    truncated (:func:`balanced_truncate`), so the error system is stable.
    Removing the whole stable part reads only its Hankel values and
    refuses nothing.
    """
    split = _Split.of(k)
    n1, n2 = split.stable.n, split.anti.n
    if not n2 <= r < k.n:  # also when there is no stable part (n1 = 0)
        raise InfeasibleOrderError(f"target order must keep the order-{n2} antistable "
                                   f"part and reduce: {n2} <= r < {k.n}, got {r}")
    if r == n2:
        return TruncationResult(split.anti, "balanced", split.stable_pass.values(n1))
    inner = balanced_truncate(split.stable, r - n2)
    return TruncationResult(add(inner.reduced, split.anti), "balanced", inner.truncated_tail)


def modal_truncate(k: StateSpaceSystem, r_red: int) -> TruncationResult:
    """Remove the ``r_red`` least important modal blocks (:func:`mode_ranking`)
    of any realization.  A mode the input cannot reach or the output cannot
    see has importance 0, so it is ranked first and removing it leaves the
    transfer function unchanged."""
    return modal_truncate_decomposition(modal_form(k), r_red)


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
    dropped) and its 2-norm ``sqrt(max eig W)``; ``W`` is symmetric."""
    evals, vecs = linalg._syevd(w)
    top = max(evals.max(initial=0.0), 0.0)
    keep = evals > max(top, 1e-300) * GRAMIAN_CUT
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

    def values(self, n: int) -> tuple[float, ...]:
        """``sigma``, then the floor for each state beyond the Gramians'
        rank: one value per state, so a truncation's tail counts them all."""
        return tuple(map(float, self.sigma)) + (float(self.floor),) * (n - self.sigma.size)


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
            u, sv, vt = linalg._gesdd(zo.T @ zc)
            floor = GRAMIAN_FLOOR * np.finfo(float).eps * zc_norm * zo_norm
            return _HankelPass(sv, floor, zc, zo, u, vt)
    return _HankelPass(np.zeros(0), 0.0, None, None, None, None)


def _order_above(hp: _HankelPass, cut: float) -> int:
    """The number of Hankel values of ``hp`` above ``cut``: the order
    :func:`_truncate_part_by_tol` keeps."""
    return int(np.sum(hp.sigma > cut))


def _truncate_part_by_tol(s: StateSpaceSystem, hp: _HankelPass, cut: float):
    """Balancing-free square-root truncation keeping states with sigma > cut.

    ``hp`` is the Hankel pass of ``s``.  Orthonormal bases of the dominant
    Hankel subspaces give a far better conditioned projection than the
    balanced one when the cut sits near the rounding floor of the Gramians.
    """
    k = _order_above(hp, cut)
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


class _Split:
    """Stable and antistable parts of a transfer function, both in real Schur
    form, with the Hankel passes of the stable part and of the mirrored
    antistable part, each made on first use.

    :meth:`of` splits a system (:func:`~ctred.decompose.split_stable_unstable`);
    the certificates also build one from the differences of two such
    splits' parts.  The feedthrough stays with the stable part.
    """

    def __init__(self, stable: StateSpaceSystem, anti: StateSpaceSystem):
        self.stable, self.anti = stable, anti

    @classmethod
    def of(cls, s: StateSpaceSystem) -> _Split:
        """The split of ``s``; raises :class:`AxisPoleError` or
        :class:`SeparationError` when its poles do not separate."""
        split = split_stable_unstable(s)
        return cls(split.stable_part, split.unstable_part)

    @cached_property
    def stable_pass(self) -> _HankelPass:
        return _hankel_pass(self.stable)

    @cached_property
    def anti_mirror(self) -> StateSpaceSystem:
        return mirror(self.anti)

    @cached_property
    def anti_pass(self) -> _HankelPass:
        return _hankel_pass(self.anti_mirror)

    @property
    def upper_bound(self) -> float:
        """``||D|| + 2 sum sigma(stable part) + 2 sum sigma(mirrored
        antistable part)``, each sum with its rounding margin: a proven
        upper bound on the peak gain over the imaginary axis (the
        Hankel-sum bound, Glover 1984)."""
        return (_feedthrough_gain(self.stable.D) + self.stable_pass.upper_bound
                + self.anti_pass.upper_bound)

    @property
    def floor(self) -> float:
        """The larger rounding floor of the two passes."""
        return max(self.stable_pass.floor, self.anti_pass.floor)

    @property
    def anti_negligible(self) -> bool:
        """The antistable part's Hankel bound is negligible against both
        the stable part's scale and the rounding :attr:`floor` (the
        situation created by exactly cancelling unstable modes in a
        difference of systems)."""
        stable_scale = self.stable_pass.bound + _feedthrough_gain(self.stable.D)
        return self.anti_pass.bound <= max(ANTI_NEGLIGIBLE * stable_scale, self.floor)

    @property
    def unstable_count(self) -> int:
        """The order of :meth:`cancelled_anti`: the number of unstable
        poles."""
        return _order_above(self.anti_pass, self.anti_pass.floor)

    def cancelled_anti(self) -> StateSpaceSystem:
        """The antistable part without the directions whose mirrored Hankel
        values are at or below its rounding floor (exactly cancelling
        copies in a difference of systems); the part itself when none is."""
        if self.unstable_count == self.anti.n:
            return self.anti
        hp = self.anti_pass
        return mirror(_truncate_part_by_tol(self.anti_mirror, hp, hp.floor))


def drop_negligible_antistable(s: StateSpaceSystem):
    """Stable realization of ``s`` when its antistable part is rounding noise.

    Splits the system; if the antistable part is negligible
    (:attr:`_Split.anti_negligible`), returns the stable part together
    with an upper bound on the peak gain of the dropped part, so
    ``||stable part|| <= ||s|| + dropped`` on the axis.  Returns ``None``
    when the antistable content is genuine.
    """
    split = _Split.of(s)
    if split.anti.n == 0:
        return split.stable, 0.0
    if split.anti_negligible:
        return split.stable, split.anti_pass.upper_bound
    return None


def split_cancelled_unstable(
    s: StateSpaceSystem,
) -> tuple[StateSpaceSystem, StateSpaceSystem]:
    """``(stable_part, antistable_part)`` of ``s``, the antistable part
    without the directions whose mirrored Hankel values are at or below
    its rounding floor (:meth:`_Split.cancelled_anti`).  Its order and
    eigenvalues are the unstable-pole count and the unstable poles of
    ``s``: the package's one rule for them.  Raises :class:`AxisPoleError`
    or :class:`SeparationError` when the poles do not split.
    """
    split = _Split.of(s)
    return split.stable, split.cancelled_anti()


def minimal_realization(s: StateSpaceSystem) -> StateSpaceSystem:
    """Remove states whose Hankel value is below ``MINREAL_TOL`` of the largest.

    The strictly proper part is split into stable and antistable parts;
    each is reduced by square-root balanced truncation (the antistable
    part through its stable reflection) and the parts are reassembled.
    Requires all poles off the imaginary axis.
    """
    if s.n == 0:
        return s
    split = _Split.of(s)
    stable_hp, anti_hp = split.stable_pass, split.anti_pass

    top = max(np.max(stable_hp.sigma, initial=0.0), np.max(anti_hp.sigma, initial=0.0))
    cut = max(MINREAL_TOL * top, split.floor)
    stable_red = _truncate_part_by_tol(split.stable, stable_hp, cut)
    anti_red = mirror(_truncate_part_by_tol(split.anti_mirror, anti_hp, cut))
    result = add(stable_red, anti_red)
    # Self-check: a difference of nearly identical systems can leave only
    # noise-dominated directions, in which case the projection is garbage.
    probes = (0.0, 0.731, 9.3)
    r_in = frequency_response(s, probes)
    r_out = frequency_response(result, probes)
    diff = float(np.max(np.abs(r_in - r_out)))
    scale = float(np.max(np.abs(r_in)))
    if diff > max(MINREAL_CHECK * scale, 10.0 * split.floor):
        raise ConvergenceError(
            "minimal realization is numerically unreliable for this system "
            "(state directions below the Gramian rounding floor)"
        )
    return result
