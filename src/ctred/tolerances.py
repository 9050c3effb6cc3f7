"""Numerical tolerances used across the package.

All defaults are scale-invariant.  The half-plane classification tolerance
can be overridden globally through the ``CTRED_TOL_STAB`` environment
variable (an absolute value), which is read on every call so test runs can
toggle it.
"""

import os

import numpy as np

# Residual acceptance thresholds (relative).
SCHUR_RESID = 1e-10
LYAP_RESID = 1e-9
SYLV_RESID = 1e-9
CARE_RESID = 1e-8

# Relative spectral-separation floor for Sylvester decoupling.
SEP_REL = 1e-6

# Hankel singular value thresholds (relative to the largest value).
HSV_MINIMAL = 1e-10   # below this, balance() refuses: not minimal
HSV_TIE = 1e-9        # minimum gap between sigma_r and sigma_{r+1}
MINREAL_TOL = 1e-9    # states below this are discarded by minimal_realization

# Numerical-rank threshold for controllability/observability tests.
RANK_REL = 1e-9

# Relative pole/zero matching tolerance for exact-degree cancellation.
PZ_CANCEL = 1e-7

# Default eigenvalue clustering tolerance for modal decomposition.
CLUSTER_TOL = 1e-6

# Peak-gain level-set iteration: termination, iteration cap and
# axis-detection tolerances.  The iteration stops once the level
# (1 + 2 HINF_REL) times the best lower bound found has no axis crossings and
# returns the midpoint, so the result is within HINF_REL of the peak.
# Termination is tighter than the 1e-8 acceptance floor so that
# near-equality norm properties (slack 1e-9) hold for the computed values.
# The axis test tolerance is thin on purpose: near a tangent peak the
# Hamiltonian eigenvalues leave the axis like sqrt(gamma - gamma*), so a
# fat tolerance inflates the result quadratically while eigenvalue
# rounding maps only to O(machine-eps^2) gamma error.
HINF_REL = 1e-10
HINF_MAX_ITER = 200
HAM_AXIS = 1e-12


def stab_tol(scale: float = 1.0) -> float:
    """Half-plane classification tolerance for a matrix of given inf-norm scale.

    Defaults to ``1e-8 * max(1, scale)``; ``CTRED_TOL_STAB`` overrides it
    with an absolute value.
    """
    env = os.environ.get("CTRED_TOL_STAB")
    if env is not None:
        return float(env)
    return 1e-8 * max(1.0, float(scale))


def inf_norm(a: np.ndarray) -> float:
    """Matrix infinity norm (maximum absolute row sum); 0 for empty matrices."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, np.inf))
