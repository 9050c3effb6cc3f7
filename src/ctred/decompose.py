"""Additive decompositions of a state-space system.

Stable/antistable splitting and modal (per-eigenvalue-block) decomposition
are one block diagonalization (Bavely and Stewart 1979; Golub and Van
Loan, *Matrix Computations*, 4th ed., section 7.6.3), ``_block_diagonalize``:
one real Schur form of the state matrix with the blocks contiguous along
its diagonal, then one checked triangular Sylvester solve per block column
against the leading triangle (:mod:`ctred.linalg`'s ``_solve_sylvester``,
on the spectra the Schur form already knows).  Only similarity transforms
touch the realization, so the parts sum to the original transfer function.

The split makes one checked ``trsen`` reordering that moves the open left
half-plane to the front and cuts once.  The modal decomposition labels
each eigenvalue of the Schur diagonal with its cluster
(:func:`~ctred.linalg._root_groups`, conjugate pairs sharing one label),
reorders only a cluster that is not contiguous in the Schur order, and
cuts wherever the label changes.  The clustering of :func:`modal_form` and
the axis check of :func:`split_stable_unstable` read the spectrum of that
one Schur form, so neither runs a separate eigen-solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AxisPoleError, SeparationError, ZeroModeError
from .norms import _largest_singular_values, hinf_norm
from .statespace import StateSpaceSystem, zero_system
from .tolerances import CLUSTER_TOL, SEP_REL, ZERO_MODE, inf_norm


def _block_diagonalize(b, c, t, z, ev, cuts):
    """Decouple ``(A, B, C)`` into one part per diagonal block of a real
    Schur form ``A = Z T Z^T`` (Bavely and Stewart 1979); ``A`` enters only
    through ``T`` and ``Z``.

    ``z`` is ``None`` when ``A`` is its own Schur form ``t``, ``ev`` is the
    diagonal spectrum of ``t``, and ``cuts`` are the indices where each
    block after the first starts (a cut at 0 or ``n`` leaves an empty
    block).  Taken last to first, each block column ``[s:e]`` is decoupled
    from the leading triangle by one checked triangular Sylvester solve
    ``T[:s,:s] X - X T[s:e,s:e] + T[:s,s:e] = 0``; the similarity
    ``[[I, X], [0, I]]`` zeroes that coupling and transforms ``B`` and ``C``
    along, so the parts sum to the original transfer function.  Returns
    ``(A_j, B_j, C_j, ev_j)`` per block, each ``A_j`` in real Schur form.
    """
    bt = b.copy() if z is None else z.T @ b
    ct = c.copy() if z is None else c @ z
    bounds = [0, *cuts, t.shape[0]]
    spans = list(zip(bounds[:-1], bounds[1:]))
    for s, e in reversed(spans):
        if 0 < s < e:
            t11, t22 = t[:s, :s], t[s:e, s:e]
            x = linalg._solve_sylvester(t11, -t22, t[:s, s:e],
                                        (t11, None, ev[:s]), (-t22, None, -ev[s:e]))
            bt[:s] -= x @ bt[s:e]
            ct[:, s:e] += ct[:, :s] @ x
    return [(t[s:e, s:e], bt[s:e], ct[:, s:e], ev[s:e]) for s, e in spans]


@dataclass(frozen=True)
class StableUnstableSplit:
    """Additive split ``K = stable_part + unstable_part``."""

    stable_part: StateSpaceSystem
    unstable_part: StateSpaceSystem


def split_stable_unstable(k: StateSpaceSystem) -> StableUnstableSplit:
    """Split a system into stable and antistable additive parts.

    Every eigenvalue must be bounded away from the imaginary axis; the
    feedthrough (if any) stays with the stable part.
    """
    empty = zero_system(k.p, k.m)
    if k.n == 0:
        return StableUnstableSplit(k, empty)
    schur = linalg._real_schur(k.A)
    tol = linalg.half_plane_tol(k.A)
    if np.any(np.abs(schur[2].real) <= tol):
        raise AxisPoleError(
            "stable/antistable split is ill-posed: eigenvalue within "
            f"{tol:.1e} of the imaginary axis"
        )
    form = linalg._reorder_schur(k.A, *schur, lambda ev: ev.real < 0.0)
    try:
        stable, unstable = _block_diagonalize(
            k.B, k.C, form.T, form.Z, form.eigenvalues, [form.n_selected]
        )
    except SeparationError as exc:
        raise SeparationError(f"ill-conditioned stable/antistable split: {exc}") from exc
    stable = StateSpaceSystem(*stable[:3], k.D)
    unstable = StateSpaceSystem(*unstable[:3])
    return StableUnstableSplit(stable, unstable)


@dataclass(frozen=True)
class ModalBlock:
    """One decoupled eigenvalue block ``C_i (sI - A_i)^{-1} B_i``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    eigenvalue: complex
    importance: float  # NaN when the eigenvalue sits on the imaginary axis

    @property
    def order(self) -> int:
        return self.A.shape[0]

    def system(self) -> StateSpaceSystem:
        return StateSpaceSystem(self.A, self.B, self.C)


@dataclass(frozen=True)
class ModalDecomposition:
    """Ordered list of decoupled modal blocks summing to the original system."""

    blocks: tuple[ModalBlock, ...]
    m: int
    p: int

    def rebuild(self, keep=None) -> StateSpaceSystem:
        """Block-diagonal parallel sum of the kept blocks (all by default)."""
        idx = range(len(self.blocks)) if keep is None else keep
        blocks = [self.blocks[i] for i in idx]
        if not blocks:
            return zero_system(self.p, self.m)
        a = linalg._block_diag([b.A for b in blocks])
        bmat = np.vstack([b.B for b in blocks])
        c = np.hstack([b.C for b in blocks])
        return StateSpaceSystem(a, bmat, c)


def mode_importance(block: ModalBlock) -> float:
    """Ranking index of a modal block.

    Stable blocks are ranked by the peak gain of their transfer function;
    antistable blocks by the spectral norm of the dc-coupling matrix
    ``C_i A_i^{-1} B_i``.  A first-order block's gain
    ``sigma_max(C_i B_i) / |j w - lambda|`` peaks at ``w = 0``, so for a stable
    one that same spectral norm is the peak gain, in closed form.  Blocks
    at the origin or within :func:`~ctred.linalg.half_plane_tol` of the
    imaginary axis cannot be ranked.
    """
    lam = block.eigenvalue
    if abs(lam) <= ZERO_MODE * max(1.0, abs(lam)):
        raise ZeroModeError("mode with zero eigenvalue cannot be ranked")
    if abs(lam.real) <= linalg.half_plane_tol(block.A):
        raise AxisPoleError("mode on the imaginary axis cannot be ranked")
    if lam.real < 0.0 and block.order > 1:
        return hinf_norm(block.system())
    coupling = block.C @ np.linalg.solve(block.A, block.B)
    return float(_largest_singular_values(coupling[None])[0])


def modal_form(k: StateSpaceSystem) -> ModalDecomposition:
    """Decompose a system into decoupled eigenvalue blocks.

    Eigenvalues closer than ``CLUSTER_TOL`` (relative) are kept in one
    block; distinct clusters must be separated well enough for the
    Sylvester decoupling.  Blocks are sorted by ascending real part.
    """
    t, z, ev = linalg._real_schur(k.A)
    if not ev.size:
        return ModalDecomposition((), m=k.m, p=k.p)
    # one label per eigenvalue of the Schur diagonal; a conjugate pair
    # shares one, so a label names a conjugate-closed cluster
    labels = linalg._root_groups(ev.real + 1j * np.abs(ev.imag), CLUSTER_TOL)
    dist = np.abs(ev[:, None] - ev[None, :])
    dist[labels[:, None] == labels[None, :]] = np.inf
    gap = dist.min()
    if gap <= SEP_REL * inf_norm(k.A):
        u, v = np.unravel_index(dist.argmin(), dist.shape)
        raise SeparationError(
            f"eigenvalue clusters around {ev[u]:.6g} and {ev[v]:.6g} "
            f"are inseparable (gap {gap:.2e})"
        )

    # make every cluster contiguous in the Schur order: moving one to the
    # front keeps the others' order, so only a scattered cluster is moved;
    # a reordered eigenvalue takes the label of the nearest original one
    own, diagonal = labels, ev
    for c in range(labels.max() + 1):
        at = np.flatnonzero(own == c)
        if at[-1] - at[0] >= at.size:
            form = linalg._reorder_schur(
                k.A, t, z, ev, lambda lam, c=c: _labels(lam, diagonal, labels) == c
            )
            t, z, ev = form.T, form.Z, form.eigenvalues
            own = _labels(ev, diagonal, labels)
    cuts = np.flatnonzero(own[1:] != own[:-1]) + 1
    blocks = [_modal_block(*part)
              for part in _block_diagonalize(k.B, k.C, t, z, ev, cuts)]
    blocks.sort(key=lambda b: (b.eigenvalue.real, abs(b.eigenvalue.imag)))
    return ModalDecomposition(tuple(blocks), m=k.m, p=k.p)


def _modal_block(a, b, c, ev) -> ModalBlock:
    """Block with eigenvalues ``ev``, ranked by :func:`mode_importance`."""
    blk = ModalBlock(a, b, c, _representative(ev), np.nan)
    try:
        imp = mode_importance(blk)
    except (ZeroModeError, AxisPoleError):
        imp = float("nan")
    return ModalBlock(a, b, c, blk.eigenvalue, imp)


def _labels(ev, values: np.ndarray, labels: np.ndarray):
    """Label of the labelled value nearest to each eigenvalue in ``ev`` (one
    eigenvalue or an array of them); ``labels`` holds one per value."""
    return labels[np.abs(np.subtract.outer(ev, values)).argmin(axis=-1)]


def _representative(ev: np.ndarray) -> complex:
    """Canonical eigenvalue of a block: mean real part, +|mean imag| part."""
    re = float(ev.real.sum() / ev.size)
    im = float(np.abs(ev.imag).sum() / ev.size)
    return complex(re, im)
