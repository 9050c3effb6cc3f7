"""Seeded plant/controller instances, built with numpy and scipy only.

The benchmark never calls ctred to make its inputs: `ctred.gen` retries
until ctred's own minimality test passes and synthesizes plants with
ctred's Riccati solver, so a change to either would silently change the
workload.  Every system here is a plain ``(A, B, C)`` tuple of float64
arrays (``D = 0``); the timed requests hand them to ctred.
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.linalg as sla

# Controller families of acceptance criteria 07-09.
STABLE_RE = (-5.0, -0.2)
ANTISTABLE_RE = (0.1, 1.5)
PBH_FLOOR = 1e-6    # smallest modal coefficient of a random controller part
PROBE_FLOOR = 0.3   # smallest modal coefficient of a minimality-probe system
NEAR_CANCELLING = 1e-7  # smallest Hankel value of a nearly cancelling stable part
WELL_SEPARATED = 1e-5   # smallest Hankel value of a well-separated one


def _rotated(rng, lam):
    """SISO ``A = Q diag(lam) Q^T`` with a random orthogonal Q, B and C
    uniform on [-1, 1]; also the modal coefficients ``Q^T B`` and ``C Q``."""
    n = lam.size
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = rng.uniform(-1.0, 1.0, (n, 1))
    c = rng.uniform(-1.0, 1.0, (1, n))
    return (q @ np.diag(lam) @ q.T, b, c), q.T @ b, c @ q


def pbh_minimal(lam, modal_b, modal_c, floor) -> bool:
    """PBH test for a diagonalizable realization with real eigenvalues ``lam``.

    Minimal iff the eigenvalues are distinct and every modal input row and
    output column is nonzero; ``floor`` is the smallest accepted magnitude.
    """
    lam = np.sort(lam)
    if lam.size > 1 and np.min(np.diff(lam)) <= 1e-6 * max(1.0, np.abs(lam).max()):
        return False
    return bool(
        np.linalg.norm(modal_b, axis=1).min() >= floor
        and np.linalg.norm(modal_c, axis=0).min() >= floor
    )


def block_sum(*parts):
    """Parallel sum of ``(A, B, C)`` realizations (block-diagonal state)."""
    return (
        sla.block_diag(*[p[0] for p in parts]),
        np.vstack([p[1] for p in parts]),
        np.hstack([p[2] for p in parts]),
    )


def random_part(rng, n, re_range):
    """Random PBH-minimal part with ``n`` real eigenvalues in ``re_range``."""
    while True:
        lam = rng.uniform(*re_range, n)
        part, mb, mc = _rotated(rng, lam)
        if pbh_minimal(lam, mb, mc, PBH_FLOOR):
            return part


def random_controller(rng, n_stable, n_unstable):
    """Random minimal controller: stable plus antistable rotated-diagonal parts.

    The parts have eigenvalues in opposite half-planes, so their sum is
    minimal when each part is.
    """
    stable = random_part(rng, n_stable, STABLE_RE)
    if not n_unstable:
        return stable
    return block_sum(stable, random_part(rng, n_unstable, ANTISTABLE_RE))


def smallest_hankel(a, b, c) -> float:
    """Smallest Hankel singular value of a stable system."""
    wc = sla.solve_continuous_lyapunov(a, -b @ b.T)
    wo = sla.solve_continuous_lyapunov(a.T, -c.T @ c)
    return float(np.sqrt(np.abs(np.linalg.eigvals(wc @ wo))).min())


def band(stable) -> str:
    """``near``, ``between`` or ``clear`` by the smallest Hankel value.

    A balanced truncation error of a nearly cancelling stable part sends
    ctred's peak-gain kernel to its grid fallback on most draws, of a
    well-separated one never; in between it does on about a quarter.
    """
    sigma = smallest_hankel(*stable)
    if sigma < NEAR_CANCELLING:
        return "near"
    return "clear" if sigma > WELL_SEPARATED else "between"


def closed_loop_matrix(g, k):
    """``[[A, B C_K], [B_K C, A_K]]`` of the positive-feedback loop ``u = K y``."""
    return np.block([[g[0], g[1] @ k[2]], [k[1] @ g[2], k[0]]])


def loop_is_stable(g, k) -> bool:
    acl = closed_loop_matrix(g, k)
    scale = max(1.0, float(np.abs(acl).sum(axis=1).max()))
    return float(np.linalg.eigvals(acl).real.max()) < -1e-8 * scale


def plant_for(k):
    """Plant stabilized by ``k``: an observer-based design on k's realization.

    The closed-loop matrix is symmetric in plant and controller, so a
    stabilizer designed for ``k`` (identity weights, two Riccati solves)
    is a plant that ``k`` stabilizes.  Returns ``None`` when the loop
    does not come out stable.
    """
    a, b, c = k
    n = a.shape[0]
    try:
        x = sla.solve_continuous_are(a, b, np.eye(n), np.eye(b.shape[1]))
        y = sla.solve_continuous_are(a.T, c.T, np.eye(n), np.eye(c.shape[0]))
    except (np.linalg.LinAlgError, ValueError):
        return None
    f = b.T @ x
    lgain = y @ c.T
    g = (a - b @ f - lgain @ c, lgain, -f)
    return g if loop_is_stable(g, k) else None


def stabilized_pair(rng, n_stable, n_unstable):
    """``(G, K)`` with K from :func:`random_controller` and a stable loop."""
    while True:
        k = random_controller(rng, n_stable, n_unstable)
        g = plant_for(k)
        if g is not None:
            return g, k


def pbh_probe_system(rng, order):
    """PBH-minimal stable SISO system with well-separated data.

    Distinct real poles and modal input/output coefficients of magnitude
    at least ``PROBE_FLOOR``, in a randomly rotated state basis.
    """
    while True:
        lam = -np.sort(rng.uniform(0.2, 5.0, order))
        mb = rng.choice([-1.0, 1.0], (order, 1)) * rng.uniform(PROBE_FLOOR, 1.0, (order, 1))
        mc = rng.choice([-1.0, 1.0], (1, order)) * rng.uniform(PROBE_FLOOR, 1.0, (1, order))
        if pbh_minimal(lam, mb, mc, PROBE_FLOOR):
            q, _ = np.linalg.qr(rng.standard_normal((order, order)))
            return (q @ np.diag(lam) @ q.T, q @ mb, mc @ q.T)


def digest(arrays) -> str:
    """SHA-256 over the shapes and bytes of a sequence of arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]
