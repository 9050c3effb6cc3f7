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
HSV_MINIMAL = 1e-10   # balance() refuses a value below it, truncation keeps none
HSV_TIE = 1e-9        # minimum gap between sigma_r and sigma_{r+1}
MINREAL_TOL = 1e-9    # states below this are discarded by minimal_realization

# Numerical-rank threshold for controllability/observability tests.
RANK_REL = 1e-9

# Relative pole/zero matching tolerance for exact-degree cancellation.
PZ_CANCEL = 1e-7

# Default eigenvalue clustering tolerance for modal decomposition.
CLUSTER_TOL = 1e-6

# Peak-gain level-set iteration: termination, iteration cap and the
# tolerance of candidate axis crossings.  Hamiltonian eigenvalues within
# HAM_CANDIDATE ||H||_inf of the imaginary axis are candidate crossings; the
# gains at the midpoints between them are evaluated, and a level whose
# midpoints all stay at or below it is the upper bound.  The lower bound is
# always an evaluated gain, and the iteration stops once the upper bound is
# within (1 + 2 HINF_REL) of it and returns the midpoint, within HINF_REL of
# an attained gain.  A candidate that is no crossing costs one evaluation and
# never raises the result, so the tolerance can be wide enough to catch the
# crossings rounding pushes off the axis (a 1e-12 tolerance missed them and
# returned results up to 1.4e-5 low).  Measured: over the 1984 peak gains of
# the stability_batch and bound_batch pools at seeds 11 and 401 none lies
# more than 8.5e-11 below a dense direct-LU reference, and on 200 random
# stable systems of order 2-7 none lies more than 2 HINF_REL below
# tests/conftest.py::grid_peak_oracle.
# Termination is tighter than the 1e-8 acceptance floor so that
# near-equality norm properties (slack 1e-9) hold for the computed values.
HINF_REL = 1e-10
HINF_MAX_ITER = 200
HAM_CANDIDATE = 1e-6


def stab_override() -> str | None:
    """The ``CTRED_TOL_STAB`` override in force, or ``None``."""
    return os.environ.get("CTRED_TOL_STAB")


def stab_tol(scale: float = 1.0) -> float:
    """Half-plane classification tolerance for a matrix of given inf-norm scale.

    Defaults to ``1e-8 * max(1, scale)``; ``CTRED_TOL_STAB`` overrides it
    with an absolute value.  The package reads it through
    :func:`ctred.linalg.half_plane_tol` only.
    """
    env = stab_override()
    if env is not None:
        return float(env)
    return 1e-8 * max(1.0, float(scale))


def inf_norm(a: np.ndarray) -> float:
    """Matrix infinity norm (maximum absolute row sum); 0 for empty matrices."""
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=1).max())
