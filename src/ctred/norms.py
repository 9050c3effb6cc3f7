"""System norms: H2, H-infinity, and their L2/L-infinity extensions.

The peak gain is computed by the level-set iteration of Boyd-Balakrishnan
and Bruinsma-Steinbuch.  At a level ``gamma`` the imaginary-axis
eigenvalues of the associated Hamiltonian are exactly the frequencies
where a singular value of the transfer function equals ``gamma``; there
are none iff ``gamma`` exceeds the peak.  Each step evaluates the largest
singular value at the midpoints between those frequencies and lifts the
level to the best value found, which converges quadratically.  The axis
test only needs the state matrix to be free of imaginary-axis
eigenvalues, so the same machinery serves both the H-infinity norm
(stable systems) and the L-infinity norm (unstable systems without axis
poles).  Frequency sweeps (the initial logarithmic grid and the dense
fallback sweep) are evaluated in batches through
:func:`~ctred.statespace.frequency_response`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import AxisPoleError, ConvergenceError, StabilityError, UnsupportedError
from .statespace import StateSpaceSystem, frequency_response
from .tolerances import HAM_AXIS, HINF_MAX_ITER, HINF_REL, inf_norm, stab_tol


def h2_norm(s: StateSpaceSystem) -> float:
    """H2 norm of a stable strictly proper system via the controllability Gramian."""
    if np.any(s.D):
        raise UnsupportedError("H2 norm requires a strictly proper system (D = 0)")
    if s.n == 0:
        return 0.0
    if linalg.spectral_abscissa(s.A) >= -stab_tol(inf_norm(s.A)):
        raise StabilityError("H2 norm requires a stable system")
    wc = linalg.solve_lyapunov(s.A, s.B @ s.B.T)
    val = float(np.trace(s.C @ wc @ s.C.T))
    return float(np.sqrt(max(val, 0.0)))


def _sigma_max(s: StateSpaceSystem, ws) -> np.ndarray:
    """Largest singular value of the transfer function at each ``j*w``."""
    resp = frequency_response(s, ws)
    if resp.shape[1] == 0 or resp.shape[2] == 0:
        return np.zeros(resp.shape[0])
    return np.linalg.svd(resp, compute_uv=False)[:, 0]


def _initial_grid(s: StateSpaceSystem, points: int = 200) -> np.ndarray:
    ev = linalg.eigenvalues(s.A) if s.n else np.array([])
    scales = np.concatenate([np.abs(ev), np.abs(ev.real), np.abs(ev.imag)])
    scales = scales[scales > 0]
    lo = 0.01 * scales.min() if scales.size else 1e-2
    hi = 100.0 * scales.max() if scales.size else 1e2
    lo = max(lo, 1e-8)
    hi = max(hi, 10.0 * lo)
    grid = np.logspace(np.log10(lo), np.log10(hi), points)
    return np.concatenate([[0.0], grid])


def _refined_grid_peak(s: StateSpaceSystem) -> float:
    """Dense grid sweep with local refinement around the strongest peaks.

    Used when the realization evaluates its transfer function through
    heavy cancellation (tiny gain from order-one coefficients); the
    level-set Hamiltonian cannot resolve such gains in double precision.
    """
    coarse = _initial_grid(s, points=2000)
    gains = _sigma_max(s, coarse)
    best = float(gains.max())
    # refine around the leading local maxima
    order = np.argsort(gains)[::-1][:3]
    for idx in order:
        w0 = coarse[idx]
        span = max(w0 * 0.1, coarse[1] if w0 == 0.0 else w0 * 0.01)
        for _ in range(8):
            local = np.linspace(max(w0 - span, 0.0), w0 + span, 401)
            vals = _sigma_max(s, local)
            j = int(np.argmax(vals))
            best = max(best, float(vals[j]))
            w0 = local[j]
            span /= 25.0
    return best


def _gamma_is_upper_bound(s: StateSpaceSystem, gamma: float) -> np.ndarray:
    """Axis crossings of the level-set Hamiltonian for level ``gamma``.

    Returns the sorted non-negative frequencies of its imaginary-axis
    eigenvalues; ``gamma`` is an upper bound on the peak gain iff the
    array is empty.  Uses the diagonally-balanced similarity of the
    Hamiltonian (off-diagonal blocks scaled by gamma and 1/gamma) so the
    axis test stays well conditioned for small peak gains.  The name is the
    probe through which ``bench/layers.py`` counts Hamiltonian eigen-solves.
    """
    a, b, c, d = s.A, s.B, s.C, s.D
    m = s.m
    r = gamma**2 * np.eye(m) - d.T @ d
    # gamma at or below the feedthrough gain can never be an upper bound;
    # report a crossing at infinite frequency, where no midpoint lies
    try:
        rinv_bt = sla.solve(r, b.T, assume_a="pos")
        rinv_dt = sla.solve(r, d.T, assume_a="pos")
    except sla.LinAlgError:
        return np.array([np.inf])
    acl = a + b @ rinv_dt @ c
    ham = np.block(
        [
            [acl, gamma * (b @ rinv_bt)],
            [-(c.T @ (np.eye(s.p) + d @ rinv_dt) @ c) / gamma, -acl.T],
        ]
    )
    ev = np.linalg.eigvals(ham)
    axis_tol = HAM_AXIS * max(np.linalg.norm(ham, np.inf), 1e-300)
    return np.sort(np.abs(ev[np.abs(ev.real) <= axis_tol].imag))


def _peak_gain(s: StateSpaceSystem) -> float:
    """Shared level-set core; assumes no imaginary-axis poles."""
    d_gain = float(np.linalg.svd(s.D, compute_uv=False)[0]) if s.D.size else 0.0
    if s.n == 0 or not np.any(s.B) or not np.any(s.C):
        return d_gain
    estimate = max(float(_sigma_max(s, _initial_grid(s)).max()), d_gain)
    if estimate <= 1e-300:
        return 0.0
    # realizations that reach a tiny gain by cancelling order-one terms
    # are beyond the Hamiltonian test's double-precision reach; sweep instead
    beta = float(np.linalg.norm(s.B))
    xi = float(np.linalg.norm(s.C))
    coupling = beta * xi
    if coupling > 1e7 * estimate:
        return _refined_grid_peak(s)
    # normalize the gain to order one, splitting the scaling between B and
    # C so the Hamiltonian blocks stay balanced in magnitude
    target = np.sqrt(coupling / estimate)
    sn = StateSpaceSystem(
        s.A, s.B * (target / beta), s.C * (target / xi), s.D / estimate
    )
    # lb is attained (or certified by axis crossings), ub certified by
    # their absence.  A level-set step probes just above lb; when the
    # midpoint gains do not rise past the probed level, the next probe
    # bisects towards ub, or doubles its height above lb while no ub is
    # known.
    lb, ub = 1.0, np.inf
    level = (1.0 + 2.0 * HINF_REL) * lb
    for _ in range(HINF_MAX_ITER):
        height = level - lb
        crossings = _gamma_is_upper_bound(sn, level)
        stepped = False
        if crossings.size:
            # the interval between -w_1 and w_1 has midpoint 0
            mids = np.concatenate([[0.0], 0.5 * (crossings[:-1] + crossings[1:])])
            gain = float(_sigma_max(sn, mids).max())
            stepped = gain > level
            lb = max(gain, level)
        else:
            ub = level
        if ub <= (1.0 + 2.0 * HINF_REL) * lb:
            return estimate * 0.5 * (lb + ub)
        if stepped:
            level = (1.0 + 2.0 * HINF_REL) * lb
        elif np.isinf(ub):
            level = lb + 2.0 * height
        else:
            level = 0.5 * (lb + ub)
    raise ConvergenceError("level-set iteration for the peak gain did not converge")


def _check_no_axis_poles(s: StateSpaceSystem) -> None:
    if s.n == 0:
        return
    ev = linalg.eigenvalues(s.A)
    tol = stab_tol(inf_norm(s.A))
    if np.any(np.abs(ev.real) <= tol):
        raise AxisPoleError("system has poles on (or too close to) the imaginary axis")


def linf_norm(s: StateSpaceSystem) -> float:
    """Peak singular value over the imaginary axis; poles may be unstable."""
    _check_no_axis_poles(s)
    return _peak_gain(s)


def hinf_norm(s: StateSpaceSystem) -> float:
    """H-infinity norm of a stable system."""
    if s.n and linalg.spectral_abscissa(s.A) >= -stab_tol(inf_norm(s.A)):
        raise StabilityError(
            "H-infinity norm requires a stable system; use linf_norm for "
            "unstable systems without imaginary-axis poles"
        )
    return _peak_gain(s)


def l2_norm(s: StateSpaceSystem) -> float:
    """L2 norm of a strictly proper system without imaginary-axis poles.

    The system is split additively into stable and antistable parts; the
    antistable part is reflected into a stable system with the same
    singular values on the axis, and the two H2 contributions combine in
    quadrature.
    """
    if np.any(s.D):
        raise UnsupportedError("L2 norm requires a strictly proper system (D = 0)")
    _check_no_axis_poles(s)
    from . import decompose  # local import to avoid a module cycle
    from .statespace import mirror

    split = decompose.split_stable_unstable(s)
    stable_sq = h2_norm(split.stable_part) ** 2 if split.stable_part.n else 0.0
    anti = split.unstable_part
    anti_sq = h2_norm(mirror(anti)) ** 2 if anti.n else 0.0
    return float(np.sqrt(stable_sq + anti_sq))
