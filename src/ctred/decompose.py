"""Additive decompositions of a state-space system.

Stable/antistable splitting and modal (per-eigenvalue-block) decomposition
are both computed with an orthogonal Schur reduction followed by a
Sylvester decoupling of the off-diagonal coupling block; only similarity
transforms touch the realization, so the transfer function is preserved
exactly.  A modal decomposition reduces the state matrix to Schur form
once: each cluster is peeled off by reordering the remaining Schur block
and a triangular Sylvester solve (Bavely and Stewart's block
diagonalization), so only the first step runs a Hessenberg-QR sweep.

Each step starts from a Schur form whose diagonal spectrum it already
knows: the first from the one reduction, every later one from the
trailing block and eigenvalues the step before left.  A step selects with
a vectorised rule over that spectrum (the nearest-cluster rule, or the open
left half-plane for the stable/antistable split) and runs the checked
reordering and Sylvester steps of :mod:`ctred.linalg`, the same ones behind
:func:`~ctred.linalg.ordered_real_schur` and
:func:`~ctred.linalg.solve_sylvester`, without detecting the Schur form or
recomputing a spectrum again.  The clustering of :func:`modal_form` and
the axis check of :func:`split_stable_unstable` read the spectrum of that
one reduction too, so neither runs a separate eigen-solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AxisPoleError, SeparationError, ZeroModeError
from .statespace import StateSpaceSystem, zero_system
from .tolerances import CLUSTER_TOL, SEP_REL, inf_norm


def _decouple_leading(sys_abc, schur, rule):
    """Split (A,B,C) into the invariant part that ``rule`` selects and the rest.

    ``schur`` is a real Schur form ``(T, Z, ev)`` of ``A`` with the spectrum
    ``ev`` of its diagonal blocks (``linalg._real_schur``); ``rule`` maps an
    eigenvalue array to a mask.  Returns ``((A1,B1,C1,ev1), (A2,B2,C2,ev2))``
    where the first part carries the selected eigenvalues ``ev1``; an empty
    part is ``None``.  Both state matrices are in real Schur form, so the
    second part with ``(A2, None, ev2)`` is the Schur form of the next step.
    Off-diagonal coupling is removed by a triangular Sylvester solve on the
    known spectra, so the two parts sum to the original transfer function.
    """
    a, b, c = sys_abc
    form = linalg._reorder_schur(a, *schur, rule)
    k = form.n_selected
    n = a.shape[0]
    t = form.T
    bt = form.Z.T @ b
    ct = c @ form.Z
    ev = form.eigenvalues
    if k == 0 or k == n:
        parts = ((t, bt, ct, ev), None) if k == n else (None, (t, bt, ct, ev))
        return parts
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    x = linalg._solve_sylvester(t11, -t22, t12, (t11, None, ev[:k]), (-t22, None, -ev[k:]))
    # similarity [[I, X],[0, I]] zeroes the coupling; transform B and C along
    b1 = bt[:k] - x @ bt[k:]
    b2 = bt[k:]
    c1 = ct[:, :k]
    c2 = ct[:, k:] + c1 @ x
    return (t11, b1, c1, ev[:k]), (t22, b2, c2, ev[k:])


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
    try:
        part1, part2 = _decouple_leading(
            (k.A, k.B, k.C), schur, lambda ev: ev.real < 0.0
        )
    except SeparationError as exc:
        raise SeparationError(f"ill-conditioned stable/antistable split: {exc}") from exc
    a1, b1, c1 = (empty.A, empty.B, empty.C) if part1 is None else part1[:3]
    stable = StateSpaceSystem(a1, b1, c1, k.D)
    unstable = empty if part2 is None else StateSpaceSystem(*part2[:3], empty.D)
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
        d = np.zeros((self.C.shape[0], self.B.shape[1]))
        return StateSpaceSystem(self.A, self.B, self.C, d)


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
        n = sum(b.order for b in blocks)
        a = np.zeros((n, n))
        i = 0
        for b in blocks:
            a[i:i + b.order, i:i + b.order] = b.A
            i += b.order
        bmat = np.vstack([b.B for b in blocks])
        c = np.hstack([b.C for b in blocks])
        return StateSpaceSystem(a, bmat, c, np.zeros((self.p, self.m)))


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
    if abs(lam) <= 1e-8 * max(1.0, abs(lam)):
        raise ZeroModeError("mode with zero eigenvalue cannot be ranked")
    if abs(lam.real) <= linalg.half_plane_tol(block.A):
        raise AxisPoleError("mode on the imaginary axis cannot be ranked")
    if lam.real < 0.0 and block.order > 1:
        from .norms import hinf_norm  # local import to avoid a module cycle

        return hinf_norm(block.system())
    coupling = block.C @ np.linalg.solve(block.A, block.B)
    return float(np.linalg.svd(coupling, compute_uv=False)[0])


def _cluster_eigenvalues(ev: np.ndarray, cluster_tol: float):
    """Group eigenvalues (conjugate pairs canonicalized) by relative closeness."""
    canon = np.unique(np.round(ev.real, 14) + 1j * np.round(np.abs(ev.imag), 14))
    k = canon.size
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            d = abs(canon[i] - canon[j])
            if d <= cluster_tol * (1.0 + abs(canon[i])) or d <= cluster_tol * (
                1.0 + abs(canon[j])
            ):
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    # canon is sorted by (real, imag) parts, so each group is too
    members = [canon[g] for g in groups.values()]
    members.sort(key=lambda g: (g.real.sum() / g.size, np.abs(g.imag).sum() / g.size))
    return [tuple(g) for g in members]


def _full_cluster_values(cluster) -> np.ndarray:
    """Cluster members together with their conjugates."""
    vals = []
    for z in cluster:
        vals.append(z)
        if z.imag != 0:
            vals.append(z.conjugate())
    return np.array(vals)


def modal_form(k: StateSpaceSystem) -> ModalDecomposition:
    """Decompose a system into decoupled eigenvalue blocks.

    Eigenvalues closer than ``CLUSTER_TOL`` (relative) are kept in one
    block; distinct clusters must be separated well enough for the
    Sylvester decoupling.  Blocks are sorted by ascending real part.
    """
    schur = linalg._real_schur(k.A)
    clusters = _cluster_eigenvalues(schur[2], CLUSTER_TOL)
    if not clusters:
        return ModalDecomposition((), m=k.m, p=k.p)
    # pairwise separation between clusters, over conjugate-closed value sets
    values = [_full_cluster_values(c) for c in clusters]
    labels = np.repeat(np.arange(len(values)), [v.size for v in values])
    values = np.concatenate(values)
    dist = np.abs(values[:, None] - values[None, :])
    dist[labels[:, None] == labels[None, :]] = np.inf
    gap = dist.min()
    if gap <= SEP_REL * inf_norm(k.A):
        u, v = np.unravel_index(dist.argmin(), dist.shape)
        i, j = sorted((labels[u], labels[v]))
        raise SeparationError(
            f"eigenvalue clusters around {clusters[i][0]:.6g} and "
            f"{clusters[j][0]:.6g} are inseparable (gap {gap:.2e})"
        )

    blocks: list[ModalBlock] = []
    remaining = (k.A, k.B, k.C, schur[2])
    for idx in range(len(clusters) - 1):
        if idx:  # every step after the one reduction peels the trailing Schur block
            schur = (remaining[0], None, remaining[3])
        part, remaining = _decouple_leading(
            remaining[:3], schur, _membership(labels == idx, values)
        )
        if part is None or remaining is None:
            raise SeparationError(
                "modal decoupling selected an empty or full block; "
                "cluster membership is ambiguous"
            )
        blocks.append(_modal_block(*part))
    blocks.append(_modal_block(*remaining))
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


def _membership(own: np.ndarray, values: np.ndarray):
    """Rule selecting the eigenvalues nearest to the cluster values
    ``values[own]`` (a tie selects).  It takes one eigenvalue or an array
    of them and returns one flag per eigenvalue."""

    def select(lam):
        d = np.abs(np.subtract.outer(lam, values))
        return d[..., own].min(axis=-1) <= d.min(axis=-1)
    return select


def _representative(ev: np.ndarray) -> complex:
    """Canonical eigenvalue of a block: mean real part, +|mean imag| part."""
    re = float(ev.real.sum() / ev.size)
    im = float(np.abs(ev.imag).sum() / ev.size)
    return complex(re, im)
