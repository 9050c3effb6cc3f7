"""Dense linear-algebra kernels.

Eigenvalues, ordered real Schur decomposition, Lyapunov/Sylvester solvers
(Bartels-Stewart, via LAPACK) and a continuous algebraic Riccati solver
built on the ordered Schur form of the Hamiltonian.  All functions accept
and return plain ``numpy`` arrays of float64 and validate their inputs.

Every eigenvalue classification of the package (stable, antistable or on
the imaginary axis) reads one tolerance, :func:`half_plane_tol`, and
:func:`is_stable` is the package's one stability test of a state matrix.

:func:`ordered_real_schur` reorders with one LAPACK ``trsen`` call, after
an unsorted Hessenberg-QR sweep for an input not yet in real Schur
canonical form (``gees`` with sorting is the same two steps).  Inputs
already in that form skip the sweep, and :func:`solve_sylvester` only
back-substitutes on them (``trsyl``), as in Bavely and Stewart's block
diagonalization, where every reduction after the first starts from a
Schur form.

Both are boundary validation around two checked steps, which
:mod:`ctred.decompose` also calls directly on the Schur blocks and spectra
it carries: ``_reorder_schur`` (the ``trsen`` info, the reconstruction
residual and the partition of the reordered spectrum) and
``_solve_sylvester`` (the spectral gap, the ``trsyl`` info and scale, and
the residual).  Every check of a reordering or a Sylvester solve lives in
one of them.

Every Lyapunov solve of the package goes through one checked kernel,
``_gramians``: all Gramians of one state matrix from one real Schur form
(Bartels-Stewart), which is the matrix itself, or its negated transpose,
when the stable/antistable split left it in that form.  Its stability
test reads the Schur diagonal, so no separate eigen-solve runs.
:func:`solve_lyapunov` is boundary validation around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConvergenceError,
    DimensionError,
    NoStabilizingSolutionError,
    NonFiniteError,
    ReorderingError,
    SeparationError,
    StabilityError,
)
from .tolerances import (
    CARE_RESID,
    LYAP_RESID,
    SCHUR_RESID,
    SEP_REL,
    SYLV_RESID,
    inf_norm,
    stab_tol,
)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D float64 array with finite entries."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise NonFiniteError(f"{name} contains NaN or infinite entries")
    return m


def _require_square(a: np.ndarray, name: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square matrix, sorted by (real, imag) parts.

    Complex eigenvalues of a real matrix appear in conjugate pairs.
    """
    m = as_matrix(a, "A")
    _require_square(m, "A")
    if m.shape[0] == 0:
        return np.array([], dtype=complex)
    ev = np.linalg.eigvals(m)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def spectral_abscissa(a) -> float:
    """Largest real part over the spectrum; -inf for an empty matrix."""
    ev = eigenvalues(a)
    if ev.size == 0:
        return -np.inf
    return float(ev.real.max())


def half_plane_tol(a: np.ndarray) -> float:
    """Distance from the imaginary axis below which an eigenvalue of ``a``
    counts as on it: :func:`~ctred.tolerances.stab_tol` at the scale of
    ``a``'s infinity norm (``CTRED_TOL_STAB`` overrides it)."""
    return stab_tol(inf_norm(a))


def _stability(a: np.ndarray, ev: np.ndarray | None = None) -> tuple[bool, float]:
    """``(stable, spectral abscissa)`` of ``a``: stable when every eigenvalue
    lies more than :func:`half_plane_tol` left of the imaginary axis.  ``ev``
    is the spectrum of ``a`` when the caller has it already."""
    ev = eigenvalues(a) if ev is None else ev
    alpha = float(ev.real.max()) if ev.size else -np.inf
    return alpha < -half_plane_tol(a), alpha


def is_stable(a: np.ndarray) -> bool:
    """Every eigenvalue of ``a`` lies more than :func:`half_plane_tol` left
    of the imaginary axis; True for an empty matrix."""
    return a.size == 0 or _stability(a)[0]


@dataclass(frozen=True)
class SchurForm:
    """Real Schur decomposition ``A = Z T Z^T`` with selected eigenvalues leading.

    ``eigenvalues`` lists the spectrum in diagonal-block order and
    ``n_selected`` is the size of the leading invariant subspace.
    """

    T: np.ndarray
    Z: np.ndarray
    eigenvalues: np.ndarray
    n_selected: int


def _block_eigenvalues(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a quasi-triangular matrix in diagonal-block order."""
    n = t.shape[0]
    ev = []
    i = 0
    while i < n:
        if i + 1 < n and t[i + 1, i] != 0.0:
            ev.extend(np.linalg.eigvals(t[i : i + 2, i : i + 2]))
            i += 2
        else:
            ev.append(complex(t[i, i]))
            i += 1
    return np.array(ev, dtype=complex)


def _is_real_schur(t: np.ndarray) -> bool:
    """True when ``t`` is in real Schur canonical form, by exact zero tests.

    Upper quasi-triangular, with standardized 2x2 diagonal blocks (equal
    diagonal entries, off-diagonal entries of opposite sign), as LAPACK's
    ``gees`` and ``trsen`` return it.  A plain loop: the matrices are small,
    and a general matrix fails on its first column.
    """
    rows = t.tolist()
    n = len(rows)
    closes_block = False  # row j is the second row of a 2x2 block
    for j in range(n - 1):
        if any(rows[i][j] for i in range(j + 2, n)):
            return False
        sub = rows[j + 1][j]
        if sub:
            if (closes_block or rows[j][j] != rows[j + 1][j + 1]
                    or not rows[j][j + 1] * sub < 0.0):
                return False
        closes_block = bool(sub)
    return True


def _real_schur(m: np.ndarray):
    """Real Schur form ``(T, Z, ev)`` of a square matrix, ``m = Z T Z^T``,
    with ``ev`` the spectrum of ``T``'s diagonal blocks.

    A matrix already in real Schur canonical form is its own ``T``; any
    other takes an unsorted Hessenberg-QR sweep (``gees``).
    """
    t, z = (m, np.eye(m.shape[0])) if _is_real_schur(m) else sla.schur(m, output="real")
    return t, z, _block_eigenvalues(t)


def _reorder_schur(m: np.ndarray, t: np.ndarray, z: np.ndarray, ev: np.ndarray,
                   rule: Callable[[np.ndarray], np.ndarray]) -> SchurForm:
    """Move the eigenvalues that ``rule`` selects to the front of the real
    Schur form ``m = z t z^T`` with one ``trsen`` call, and check the result.

    ``ev`` is the diagonal spectrum of ``t``; ``rule`` maps an array of
    eigenvalues to a boolean mask.  Raises :class:`ReorderingError` when
    ``trsen`` fails, when ``Z T Z^T`` misses ``m`` by more than
    ``SCHUR_RESID``, or when the reordered spectrum does not split cleanly
    under ``rule`` (selected eigenvalues first, the others after).
    """
    chosen = rule(ev).astype(np.int32)
    t, z, _, _, sdim, _, _, info = sla.lapack.dtrsen(chosen, t, z, job="N")
    if info != 0:
        raise ReorderingError(f"Schur reordering failed (trsen info {info})")

    resid = np.linalg.norm(z @ t @ z.T - m)
    if resid > SCHUR_RESID * max(1.0, np.linalg.norm(m)):
        raise ReorderingError(
            f"Schur reconstruction residual {resid:.2e} exceeds tolerance"
        )
    ev = _block_eigenvalues(t)
    flags = rule(ev)
    if flags.sum() != sdim or not flags[:sdim].all() or flags[sdim:].any():
        raise ReorderingError(
            "eigenvalue partition is inconsistent after reordering "
            "(nearly identical eigenvalues across the split?)"
        )
    return SchurForm(t, z, ev, int(sdim))


def ordered_real_schur(a, select: Callable[[complex], bool]) -> SchurForm:
    """Real Schur form with eigenvalues satisfying ``select`` moved to the front.

    ``select`` takes a complex eigenvalue and returns True when it belongs
    to the leading block.  Conjugate pairs are kept together, so ``select``
    must be conjugation-symmetric (half-plane predicates are).  A general
    matrix is first reduced by an unsorted Hessenberg-QR sweep; one already
    in real Schur canonical form is only reordered.
    """
    m = as_matrix(a, "A")
    _require_square(m, "A")
    if m.shape[0] == 0:
        return SchurForm(m.copy(), np.eye(0), np.array([], dtype=complex), 0)

    def rule(ev):
        return np.array([bool(select(v)) for v in ev], dtype=bool)

    return _reorder_schur(m, *_real_schur(m), rule)


def _gramians(a: np.ndarray, controllability: Sequence[np.ndarray],
              observability: Sequence[np.ndarray] = ()) -> list[np.ndarray]:
    """Solutions of ``A X + X A^T + Q = 0`` for each ``Q`` in
    ``controllability``, then of ``A^T X + X A + Q = 0`` for each ``Q`` in
    ``observability``, all from one real Schur form ``A = Z T Z^T``
    (Bartels and Stewart 1972: one Schur form, then a triangular ``trsyl``
    solve per equation).

    ``a`` is a validated square matrix and every ``Q`` a symmetric matrix
    of its shape.  ``T`` is ``A`` itself when it is in real Schur canonical
    form, ``-A^T`` (solved with the transposed ``trsyl`` operations) when
    that is, as for the mirror of an antistable part, and one ``gees``
    otherwise.  The diagonal of ``T`` holds the real parts of the
    eigenvalues.  Raises :class:`StabilityError` unless they all lie more
    than :func:`half_plane_tol` of ``A`` left of the imaginary axis, and
    :class:`ConvergenceError` when ``trsyl`` fails (info or scale) or a
    residual exceeds ``LYAP_RESID`` relative to ``max(1, ||Q||)``.
    """
    if not a.shape[0]:
        return [np.zeros((0, 0)) for _ in (*controllability, *observability)]
    z, sign = None, 1.0
    if _is_real_schur(a):
        t = a
    elif _is_real_schur(-a.T):
        t, sign = -a.T, -1.0
    else:
        t, z = sla.schur(a, output="real")
    if not (sign * t.diagonal()).max() < -half_plane_tol(a):
        raise StabilityError("A must have all eigenvalues strictly in the left half-plane")

    solutions = []
    for q, adjoint in [(q, False) for q in controllability] + [(q, True) for q in observability]:
        q = 0.5 * (q + q.T)
        # A X + X A^T = -Q is T Y + Y T^T = -Z^T Q Z with X = Z Y Z^T; the
        # adjoint equation and the mirror T = -A^T each transpose the
        # triangular operations (the mirror also flips the sign)
        f = -sign * q if z is None else z.T @ (-q @ z)
        trana, tranb = ("T", "N") if adjoint != (sign < 0.0) else ("N", "T")
        y, scale, info = sla.lapack.dtrsyl(t, t, f, trana=trana, tranb=tranb)
        if info != 0 or scale != 1.0:
            raise ConvergenceError(
                f"triangular Lyapunov solve failed (trsyl info {info}, scale {scale:.2e})"
            )
        x = y if z is None else z @ y @ z.T
        x = 0.5 * (x + x.T)
        op = a.T if adjoint else a
        resid = np.linalg.norm(op @ x + x @ op.T + q)
        if resid > LYAP_RESID * max(1.0, np.linalg.norm(q)):
            raise ConvergenceError(f"Lyapunov residual {resid:.2e} exceeds tolerance")
        solutions.append(x)
    return solutions


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve ``A X + X A^T + Q = 0`` for stable ``A`` and symmetric ``Q``."""
    am = as_matrix(a, "A")
    qm = as_matrix(q, "Q")
    _require_square(am, "A")
    _require_square(qm, "Q")
    if am.shape != qm.shape:
        raise DimensionError(f"A {am.shape} and Q {qm.shape} must match")
    if qm.size and np.linalg.norm(qm - qm.T) > 1e-8 * max(1.0, np.linalg.norm(qm)):
        raise DimensionError("Q must be symmetric")
    return _gramians(am, (qm,))[0]


def _solve_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                     ea: np.ndarray, eb: np.ndarray, schur_pair: bool) -> np.ndarray:
    """Solve ``A X + X B + C = 0`` for validated matrices with spectra
    ``ea`` and ``eb``, and check the result.

    Raises :class:`SeparationError` when an eigenvalue of ``A`` lies within
    ``SEP_REL`` (relative) of one of ``-B``, and :class:`ConvergenceError`
    when the solve fails or its residual exceeds ``SYLV_RESID``.  A
    ``schur_pair`` (both in real Schur canonical form) is only
    back-substituted (``trsyl``); other pairs go through Bartels-Stewart.
    """
    gap = np.abs(ea[:, None] + eb[None, :]).min()
    tol_sep = SEP_REL * max(inf_norm(a), inf_norm(b))
    if gap <= tol_sep:
        raise SeparationError(
            f"spectral gap {gap:.2e} between A and -B is below tolerance {tol_sep:.2e}"
        )
    if schur_pair:
        x, scale, info = sla.lapack.dtrsyl(a, b, -c)
        if info != 0 or scale != 1.0:
            raise ConvergenceError(
                f"triangular Sylvester solve failed (trsyl info {info}, scale {scale:.2e})"
            )
    else:
        x = sla.solve_sylvester(a, b, -c)
    resid = np.linalg.norm(a @ x + x @ b + c)
    if resid > SYLV_RESID * max(1.0, np.linalg.norm(c)):
        raise ConvergenceError(f"Sylvester residual {resid:.2e} exceeds tolerance")
    return x


def solve_sylvester(a, b, c) -> np.ndarray:
    """Solve ``A X + X B + C = 0``; spectra of A and -B must be separated.

    When A and B are both in real Schur canonical form, the triangular
    solve runs on them directly.
    """
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    cm = as_matrix(c, "C")
    _require_square(am, "A")
    _require_square(bm, "B")
    if cm.shape != (am.shape[0], bm.shape[0]):
        raise DimensionError(
            f"C must be {am.shape[0]}x{bm.shape[0]}, got {cm.shape}"
        )
    if am.shape[0] == 0 or bm.shape[0] == 0:
        return np.zeros(cm.shape)
    schur_pair = _is_real_schur(am) and _is_real_schur(bm)
    spectrum = _block_eigenvalues if schur_pair else eigenvalues
    return _solve_sylvester(am, bm, cm, spectrum(am), spectrum(bm), schur_pair)


def solve_care(a, b, q, r) -> np.ndarray:
    """Stabilizing solution of ``A^T P + P A - P B R^{-1} B^T P + Q = 0``.

    Computed from the ordered real Schur form of the 2n x 2n Hamiltonian,
    selecting its stable invariant subspace.  The closed loop
    ``A - B R^{-1} B^T P`` is verified stable before returning.
    """
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    qm = as_matrix(q, "Q")
    rm = as_matrix(r, "R")
    _require_square(am, "A")
    _require_square(qm, "Q")
    _require_square(rm, "R")
    n = am.shape[0]
    if bm.shape[0] != n:
        raise DimensionError(f"B must have {n} rows, got {bm.shape[0]}")
    if qm.shape[0] != n:
        raise DimensionError(f"Q must be {n}x{n}")
    if rm.shape[0] != bm.shape[1]:
        raise DimensionError("R must match the number of columns of B")
    try:
        rinv_bt = sla.solve(rm, bm.T, assume_a="pos")
    except sla.LinAlgError as exc:
        raise DimensionError("R must be symmetric positive definite") from exc

    ham = np.block([[am, -bm @ rinv_bt], [-qm, -am.T]])
    tol = half_plane_tol(ham)
    ev = eigenvalues(ham)
    if np.any(np.abs(ev.real) <= tol):
        raise NoStabilizingSolutionError(
            "Hamiltonian has eigenvalues on the imaginary axis"
        )
    form = ordered_real_schur(ham, lambda lam: lam.real < 0.0)
    if form.n_selected != n:
        raise NoStabilizingSolutionError(
            f"stable invariant subspace has dimension {form.n_selected}, expected {n}"
        )
    u1 = form.Z[:n, :n]
    u2 = form.Z[n:, :n]
    try:
        p = sla.solve(u1.T, u2.T).T
    except sla.LinAlgError as exc:
        raise NoStabilizingSolutionError("stable subspace is not a graph") from exc
    p = 0.5 * (p + p.T)
    resid = np.linalg.norm(am.T @ p + p @ am - p @ bm @ rinv_bt @ p + qm)
    if resid > CARE_RESID * max(1.0, np.linalg.norm(qm)):
        raise ConvergenceError(f"Riccati residual {resid:.2e} exceeds tolerance")
    if spectral_abscissa(am - bm @ rinv_bt @ p) >= 0.0:
        raise NoStabilizingSolutionError("computed solution is not stabilizing")
    return p


def companion_matrix(coeffs: Sequence[float]) -> np.ndarray:
    """Companion matrix of a polynomial given by ascending coefficients.

    The leading (highest-degree) coefficient must be nonzero.
    """
    c = np.asarray(coeffs, dtype=complex if np.iscomplexobj(coeffs) else float)
    if c.ndim != 1 or c.size < 2:
        raise DimensionError("need a polynomial of degree >= 1")
    if c[-1] == 0:
        raise DimensionError("leading coefficient must be nonzero")
    monic = c / c[-1]
    n = c.size - 1
    m = np.zeros((n, n), dtype=monic.dtype)
    m[1:, :-1] = np.eye(n - 1)
    m[:, -1] = -monic[:-1]
    return m


def poly_roots(coeffs: Sequence[float]) -> np.ndarray:
    """Roots of a polynomial (ascending coefficients) via its companion matrix."""
    c = np.asarray(coeffs, dtype=complex)
    # strip trailing (highest-degree) zeros
    nz = np.nonzero(np.abs(c) > 0)[0]
    if nz.size == 0:
        raise DimensionError("zero polynomial has no defined roots")
    c = c[: nz[-1] + 1]
    if c.size == 1:
        return np.array([], dtype=complex)
    # imaginary parts at rounding level relative to the coefficients are dropped
    real = np.max(np.abs(c.imag)) <= 1e-8 * np.max(np.abs(c))
    comp = companion_matrix(c.real if real else c)
    ev = np.linalg.eigvals(comp)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]
