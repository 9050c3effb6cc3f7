"""System norms: H2, H-infinity, and their L2/L-infinity extensions.

The peak gain is computed by the level-set iteration of Boyd-Balakrishnan
(1990).  At a level ``gamma`` the imaginary-axis eigenvalues of the
associated Hamiltonian are exactly the frequencies where a singular value
of the transfer function equals ``gamma``.  Rounding can push such a
crossing off the axis, so every eigenvalue within ``HAM_CANDIDATE
||H||_inf`` of the axis counts as a candidate, and the largest singular value is
evaluated at the midpoints between candidates: the level is lifted to the
best gain found, or, when no midpoint rises above it, becomes the upper
bound.  The lower bound is therefore always a gain the kernel evaluated,
and the result lies within ``HINF_REL`` of it.  The iteration converges
quadratically.  It starts, as in Bruinsma-Steinbuch (1990), from the gain
at zero frequency, at the pole frequencies ``|lambda|`` and ``|Im
lambda|`` and at the points of a 201-point log grid around the pole
scales (:func:`_initial_grid`) on either side of each pole frequency.
The axis test only needs the state matrix to be free of imaginary-axis
eigenvalues, so the same machinery serves both the H-infinity norm
(stable systems) and the L-infinity norm (unstable systems without axis
poles).  Both read the system's own poles (its ``_poles``: the Schur
diagonal's spectrum when ``A`` is in real Schur form, else one
eigen-solve), and a search depends only on their multiset.

A realization that reaches a tiny gain by cancelling order-one terms
(coupling ``||B|| ||C||`` above ``CANCEL_RATIO`` times the grid estimate) is beyond the
Hamiltonian test's double precision.  The grid points of the start bound
the grid estimate from below; only when they cannot rule such a coupling
out is the whole grid evaluated, and the coupling test is decided on it.
A realization that fails it is searched by a bracketed local search
instead: the estimate grid plus the pole frequencies seed up to five
brackets that shrink 8x per round around their best 33-point sample.
Every frequency sweep is evaluated in batches through
:func:`~ctred.statespace.frequency_response` (one stacked solve for the
sweeps of systems up to order 18); the largest singular value of a
response with one row or one column is its 2-norm, so only true MIMO
responses need an SVD.  Each level of the iteration costs one solve with
``R = gamma^2 I - D^T D`` and one Hamiltonian eigen-solve.

The H2 norm reads one controllability Gramian; blocks of a system that
share its input columns and differ in their output rows share it too,
and the Gramians of different input columns share one real Schur form of
``A`` (:func:`~ctred.linalg._gramians`, Bartels-Stewart).
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import AxisPoleError, ConvergenceError, StabilityError, UnsupportedError
from .statespace import StateSpaceSystem, _system, frequency_response, mirror
from .tolerances import (
    BRACKET_REL,
    CANCEL_RATIO,
    GRID_FLOOR,
    HAM_CANDIDATE,
    HINF_MAX_ITER,
    HINF_REL,
    inf_norm,
)

_AXIS_POLES = "system has poles on (or too close to) the imaginary axis"


def _h2_norms(s: StateSpaceSystem,
              blocks=((slice(None), (slice(None),)),)) -> list[list[float]]:
    """H2 norms of blocks ``C[r] (sI - A)^{-1} B[:, c]`` of ``s``.

    Each of ``blocks`` is ``(c, rows)``: an input-column selection and the
    output-row selections ``r`` read with it (by default the whole
    system); one list of norms is returned per block.  Each ``c`` takes one
    controllability Gramian, which its rows share, and every Gramian
    shares one Schur form of ``A``.  ``s`` must be stable and strictly
    proper.  A trace ``tr(C Wc C^T)`` that rounds below zero is clipped to
    0.
    """
    if np.any(s.D):
        raise UnsupportedError("H2 norm requires a strictly proper system (D = 0)")
    if s.n == 0:
        return [[0.0] * len(rows) for _, rows in blocks]
    try:
        gramians = linalg._gramians(s.A, [s.B[:, c] @ s.B[:, c].T for c, _ in blocks])
    except StabilityError as exc:
        raise StabilityError("H2 norm requires a stable system") from exc
    traces = [[float(np.trace(s.C[r] @ wc @ s.C[r].T)) for r in rows]
              for wc, (_, rows) in zip(gramians, blocks)]
    return [[float(np.sqrt(max(val, 0.0))) for val in vals] for vals in traces]


def h2_norm(s: StateSpaceSystem) -> float:
    """H2 norm of a stable strictly proper system via the controllability Gramian."""
    return _h2_norms(s)[0][0]


def _largest_singular_values(resp: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a ``(k, p, m)`` stack.

    A matrix with one row or one column is a vector whose only singular
    value is its 2-norm, reduced with ``hypot`` (no overflow, no SVD);
    true MIMO stacks go through a batched SVD.
    """
    k, p, m = resp.shape
    if p == 0 or m == 0:
        return np.zeros(k)
    if p == 1 or m == 1:
        return np.hypot.reduce(np.abs(resp.reshape(k, p * m)), axis=1)
    return np.linalg.svd(resp, compute_uv=False)[:, 0]


def _feedthrough_gain(d: np.ndarray) -> float:
    """``||D||_2``, the gain of a system with feedthrough ``D`` at infinite
    frequency (:func:`_largest_singular_values` of ``D`` alone)."""
    return float(_largest_singular_values(d[None])[0])


def _sigma_max(s: StateSpaceSystem, ws) -> np.ndarray:
    """Largest singular value of the transfer function at each ``j*w``
    (:func:`_largest_singular_values` of the frequency response)."""
    return _largest_singular_values(frequency_response(s, ws))


def _initial_grid(s: StateSpaceSystem, ev: np.ndarray, points: int = 200) -> np.ndarray:
    """Zero and ``points`` log-spaced frequencies around the pole scales of
    ``s``, whose spectrum is ``ev``."""
    scales = np.concatenate([np.abs(ev), np.abs(ev.real), np.abs(ev.imag)])
    scales = scales[scales > 0]
    lo = 0.01 * scales.min() if scales.size else 1e-2
    hi = 100.0 * scales.max() if scales.size else 1e2
    lo = max(lo, GRID_FLOOR)
    hi = max(hi, 10.0 * lo)
    grid = np.logspace(np.log10(lo), np.log10(hi), points)
    return np.concatenate([[0.0], grid])


def _start_frequencies(ws: np.ndarray, ev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start of a peak-gain search, after Bruinsma-Steinbuch.

    Returns the points of the estimate grid ``ws`` that the search reads
    (zero and the neighbours on either side of each pole frequency) and
    the distinct pole frequencies ``|lambda|`` and ``|Im lambda|`` of the
    spectrum ``ev``.
    """
    poles = np.concatenate([np.abs(ev), np.abs(ev.imag)])
    poles = np.unique(poles[poles > 0])
    right = np.searchsorted(ws, poles)  # at least 1: ws[0] is 0
    near = np.zeros(ws.size, dtype=bool)
    near[0] = True
    near[right - 1] = True
    near[np.minimum(right, ws.size - 1)] = True
    return ws[near], poles


def _refined_grid_peak(s: StateSpaceSystem, ws: np.ndarray, gains: np.ndarray,
                       ev: np.ndarray) -> float:
    """Bracketed local search for the peak gain, seeded by the pole frequencies.

    Used when the realization evaluates its transfer function through
    heavy cancellation (tiny gain from order-one coefficients); the
    level-set Hamiltonian cannot resolve such gains in double precision.
    ``ws`` and ``gains`` are the estimate sweep; the frequencies ``|Im lambda|``
    and ``|lambda|`` of the poles ``ev`` join it, as in Bruinsma-Steinbuch.  Each of
    the largest local maxima of the merged sweep is bracketed by its
    neighbours, and every bracket shrinks 8x per round around the best of
    its 33-point sweep until it is below ``BRACKET_REL`` relative frequency.
    Returns the best gain seen, at least ``||D||``.
    """
    extra = np.setdiff1d(np.concatenate([np.abs(ev.imag), np.abs(ev)]), ws)
    ws = np.concatenate([ws, extra])
    gains = np.concatenate([gains, _sigma_max(s, extra)])
    order = np.argsort(ws)
    ws, gains = ws[order], gains[order]
    padded = np.concatenate([[-np.inf], gains, [-np.inf]])
    peaks = np.flatnonzero((gains >= padded[:-2]) & (gains >= padded[2:]))
    peaks = peaks[np.argsort(gains[peaks])[::-1][:5]]
    lo = ws[np.maximum(peaks - 1, 0)]
    hi = ws[np.minimum(peaks + 1, ws.size - 1)]
    best = max(float(gains.max()), _feedthrough_gain(s.D))
    floor = ws[ws > 0].min()  # relative scale for a bracket at zero frequency
    steps = np.linspace(0.0, 1.0, 33)
    for _ in range(16):  # a bracket as wide as its centre needs 15
        local = lo[:, None] + (hi - lo)[:, None] * steps
        vals = _sigma_max(s, local.ravel()).reshape(local.shape)
        best = max(best, float(vals.max()))
        centre = local[np.arange(local.shape[0]), vals.argmax(axis=1)]
        half = (hi - lo) / 16.0
        lo, hi = np.maximum(centre - half, 0.0), centre + half
        if np.all(hi - lo <= BRACKET_REL * np.maximum(centre, floor)):
            break
    return best


def _gamma_is_upper_bound(s: StateSpaceSystem, gamma: float) -> np.ndarray:
    """Candidate axis crossings of the level-set Hamiltonian for level ``gamma``.

    Returns the sorted non-negative frequencies ``|Im mu|`` of its
    eigenvalues ``mu`` with ``|Re mu| <= HAM_CANDIDATE ||H||_inf``.  The
    true crossings (the frequencies where a singular value equals
    ``gamma``) are among them even when rounding pushes them off the axis,
    and so are eigenvalues merely near it.  The candidates therefore decide
    nothing alone: ``gamma`` is an upper bound on the peak gain iff no
    midpoint between consecutive candidates (or zero) has a gain above
    ``gamma``, which the caller evaluates.  A level at or below the
    feedthrough gain reports a crossing at infinite frequency, where no
    midpoint lies.  Uses the diagonally-balanced similarity of the
    Hamiltonian (off-diagonal blocks scaled by gamma and 1/gamma) so the
    axis test stays well conditioned for small peak gains.  The name is the
    probe through which ``bench/layers.py`` counts Hamiltonian eigen-solves.
    """
    a, b, c, d = s.A, s.B, s.C, s.D
    n = s.n
    # gamma at or below the feedthrough gain can never be an upper bound;
    # report a crossing at infinite frequency, where no midpoint lies.
    # (On a 1x1 r the "pos" solve divides without checking the sign.)
    if gamma <= _feedthrough_gain(d):
        return np.array([np.inf])
    r = gamma**2 * np.eye(s.m) - d.T @ d
    try:
        rinv_bdt = linalg._posv(r, np.hstack([b.T, d.T]))
    except np.linalg.LinAlgError:  # gamma within rounding of the feedthrough gain
        return np.array([np.inf])
    rinv_bt, rinv_dt = rinv_bdt[:, :n], rinv_bdt[:, n:]
    acl = a + b @ rinv_dt @ c
    ham = linalg._block_diag([acl, -acl.T], {
        (0, 1): gamma * (b @ rinv_bt),
        (1, 0): -(c.T @ (np.eye(s.p) + d @ rinv_dt) @ c) / gamma,
    })
    ev = linalg._geev(ham)
    axis_tol = HAM_CANDIDATE * max(inf_norm(ham), 1e-300)
    return np.sort(np.abs(ev[np.abs(ev.real) <= axis_tol].imag))


def _peak_gain(s: StateSpaceSystem) -> float:
    """Shared level-set core, on the poles of ``s`` (none on the axis)."""
    d_gain = _feedthrough_gain(s.D)
    if s.n == 0 or not np.any(s.B) or not np.any(s.C):
        return d_gain
    ws = _initial_grid(s, s._poles)
    near, poles = _start_frequencies(ws, s._poles)
    gains = _sigma_max(s, np.concatenate([near, poles]))
    estimate = max(float(gains.max()), d_gain)
    # realizations that reach a tiny gain by cancelling order-one terms
    # are beyond the Hamiltonian test's double-precision reach; sweep
    # instead.  The grid points of the start bound the grid estimate from
    # below, so the whole grid is evaluated only when they cannot rule the
    # sweep out, and the sweep is decided on the whole grid.
    beta = float(np.linalg.norm(s.B))
    xi = float(np.linalg.norm(s.C))
    coupling = beta * xi
    if coupling > CANCEL_RATIO * max(float(gains[:near.size].max()), d_gain):
        grid_gains = _sigma_max(s, ws)
        grid_estimate = max(float(grid_gains.max()), d_gain)
        if grid_estimate > 1e-300 and coupling > CANCEL_RATIO * grid_estimate:
            return _refined_grid_peak(s, ws, grid_gains, s._poles)
        estimate = max(estimate, grid_estimate)
    if estimate <= 1e-300:
        return 0.0
    # normalize the gain to order one, splitting the scaling between B and
    # C so the Hamiltonian blocks stay balanced in magnitude
    target = np.sqrt(coupling / estimate)
    sn = _system(
        s.A, s.B * (target / beta), s.C * (target / xi), s.D / estimate
    )
    # lb is the best gain evaluated; it starts at the estimate, at least
    # ||D||, so no level reaches the feedthrough gain.  Each level-set step
    # probes (1 + 2 HINF_REL) lb: a midpoint that rises past the level
    # lifts lb, and a level that no midpoint passes is an upper bound
    # within (1 + 2 HINF_REL) of lb, so the midpoint of the two is returned.
    lb = 1.0
    level = (1.0 + 2.0 * HINF_REL) * lb
    for _ in range(HINF_MAX_ITER):
        crossings = _gamma_is_upper_bound(sn, level)
        stepped = False
        if crossings.size:
            # the interval between -w_1 and w_1 has midpoint 0
            mids = np.concatenate([[0.0], 0.5 * (crossings[:-1] + crossings[1:])])
            gain = float(_sigma_max(sn, mids).max())
            stepped = gain > level
            lb = max(lb, gain)
        if not stepped:
            return estimate * 0.5 * (lb + level)
        level = (1.0 + 2.0 * HINF_REL) * lb
    raise ConvergenceError("level-set iteration for the peak gain did not converge")


def linf_norm(s: StateSpaceSystem) -> float:
    """Peak singular value over the imaginary axis; poles may be unstable, not on it."""
    if np.any(np.abs(s._poles.real) <= linalg.half_plane_tol(s.A)):
        raise AxisPoleError(_AXIS_POLES)
    return _peak_gain(s)


def hinf_norm(s: StateSpaceSystem) -> float:
    """H-infinity norm of a stable system."""
    if not linalg._stability(s.A, s._poles)[0]:
        raise StabilityError(
            "H-infinity norm requires a stable system; use linf_norm for "
            "unstable systems without imaginary-axis poles"
        )
    return _peak_gain(s)


def _split_l2(stable: StateSpaceSystem, anti: StateSpaceSystem) -> float:
    """L2 norm of ``stable + anti``, a stable and an antistable strictly
    proper part: the H2 norms of ``stable`` and of the stable mirror of
    ``anti`` (same singular values on the axis) in quadrature."""
    return math.hypot(h2_norm(stable), h2_norm(mirror(anti)))


def l2_norm(s: StateSpaceSystem) -> float:
    """L2 norm of a strictly proper system without imaginary-axis poles.

    The system is split additively into stable and antistable parts,
    whose L2 norm is :func:`_split_l2`; the split refuses an
    imaginary-axis pole (:class:`AxisPoleError`).
    """
    if np.any(s.D):
        raise UnsupportedError("L2 norm requires a strictly proper system (D = 0)")
    from . import decompose  # local import to avoid a module cycle

    split = decompose.split_stable_unstable(s)
    return _split_l2(split.stable_part, split.unstable_part)
