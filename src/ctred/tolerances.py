"""Numerical tolerances used across the package.

All defaults are scale-invariant.  The half-plane classification tolerance
can be overridden globally through the ``CTRED_TOL_STAB`` environment
variable (an absolute value), which is read on every call so test runs can
toggle it.
"""

import os

import numpy as np

# Residual acceptance of every computed solution (ctred.linalg._check_residual):
# the terms of its equation should sum to zero, and the solve is refused when
# ||sum of terms|| > RESID_REL * sum of ||term|| (Frobenius norms), a normwise
# backward error that scales with ||A|| ||X||, not with the right-hand side
# alone.  Measured over a Tier-1 run and the three benchmark pools at seeds
# 11 and 401 (tens of thousands of solves): accurate solves stay at or below
# 1.9e-12 for Lyapunov (||X|| up to 8e10), 1.1e-12 for Riccati, 1.7e-15 for
# Sylvester and 2.5e-15 for the Schur reconstruction.  At seeds 12-16 and
# 21-25 a few Gramians of reduce_sweep's LQG costs reach 4.1e-11, and their
# costs agree with an independent solve.  The planted faults of the test
# suite (a 1e-6 error in a triangular solve or a Schur factor) sit at 2.3e-6
# (Lyapunov), 1.4e-7 (Sylvester) and 7.6e-8 (Schur).  Riccati solves of the
# random generator's draws with antistable modes spread continuously from
# 1e-13 to 3e-3, so this tolerance splits them where it falls.
RESID_REL = 1e-10

# Relative spectral-separation floor for Sylvester decoupling.
SEP_REL = 1e-6

# Relative asymmetry ||W - W^T|| / max(1, ||W||) above which solve_lyapunov
# (W = Q) and solve_care (W = Q or R) refuse a weight as not symmetric.
SYMMETRY_REL = 1e-8

# Relative size of the imaginary parts of polynomial coefficients below
# which poly_roots treats the polynomial as real.
REAL_COEFF_REL = 1e-8

# Hankel singular value thresholds (relative to the largest value).
HSV_MINIMAL = 1e-10   # balance() refuses a value below it, truncation keeps none
HSV_TIE = 1e-9        # minimum gap between sigma_r and sigma_{r+1}
MINREAL_TOL = 1e-9    # states below this are discarded by minimal_realization

# Gramian factors (ctred.reduce._gramian_factor) drop the eigen-directions of
# a Gramian at or below GRAMIAN_CUT of its largest eigenvalue.
GRAMIAN_CUT = 1e-14

# The rounding floor of the Hankel values of one part is GRAMIAN_FLOOR eps
# times the norms of its two Gramian factors; Gramian rounding noise was
# observed up to ~1e3 eps times those scales.
GRAMIAN_FLOOR = 1e4

# An antistable part is rounding noise (reduce._Split.anti_negligible) when
# its Hankel bound is at most ANTI_NEGLIGIBLE times the stable part's gain
# scale, or at most the rounding floor.
ANTI_NEGLIGIBLE = 1e-6

# minimal_realization refuses its result when its frequency response at
# three probe frequencies moves by more than MINREAL_CHECK of the input's
# largest response entry (and more than ten rounding floors).
MINREAL_CHECK = 1e-6

# The command line's cor1 accepts a given reduced controller only when its
# frequency response stays within COR1_MATCH max(1, largest entry) of that
# of the balanced truncation it recomputes at that order.
COR1_MATCH = 1e-6

# Numerical-rank threshold for controllability/observability tests.
RANK_REL = 1e-9

# Relative tolerances of the one rule for coinciding roots or eigenvalues,
# ctred.linalg._coincide: |a - b| <= tol (1 + max(|a|, |b|)).
# PZ_CANCEL governs the polynomial roots: the pole/zero pairs to_rational
# cancels (linalg._match_roots), the repeated roots partial_fractions groups
# (linalg._root_groups) and whether a point is a pole in
# residue_factorization and small_block_cancellation_probe.
PZ_CANCEL = 1e-7

# mode_importance refuses to rank a block whose eigenvalue lies within
# ZERO_MODE max(1, |lambda|) of the origin.
ZERO_MODE = 1e-8

# residue_factorization refuses a factorization ``gap * r`` that misses the
# residue by more than RESIDUE_REL of its size.
RESIDUE_REL = 1e-8

# polezero reports a complex value z as real when
# |Im z| <= REALIFY_REL max(1, |Re z|).
REALIFY_REL = 1e-12

# CLUSTER_TOL governs the eigenvalues: the clusters modal_form keeps in one
# block (linalg._root_groups) and thm3's pairing of the unstable error
# poles with the structural zeros of 1 - X*delta (linalg._match_roots).
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

# A realization whose coupling ||B|| ||C|| exceeds CANCEL_RATIO times its
# largest sampled gain cancels order-one terms beyond the Hamiltonian test's
# double-precision reach, and its peak gain comes from the grid fallback
# (ctred.norms._refined_grid_peak); the same test decides first whether the
# whole grid is evaluated.
CANCEL_RATIO = 1e7

# The grid fallback refines each bracket until it is narrower than
# BRACKET_REL of its centre frequency.
BRACKET_REL = 1e-13

# Lowest frequency of the initial peak-gain grid (rad/s).
GRID_FLOOR = 1e-8


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
