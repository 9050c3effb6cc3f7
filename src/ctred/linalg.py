"""Dense linear-algebra kernels.

Eigenvalues, ordered real Schur forms, and Lyapunov, Sylvester and
continuous algebraic Riccati solvers.  All functions accept and return
plain ``numpy`` arrays of float64 and validate their inputs.

Every eigenvalue classification of the package (stable, antistable or on
the imaginary axis) reads one tolerance, :func:`half_plane_tol`, and
:func:`is_stable` is the package's one stability test of a state matrix.

Every matrix equation is solved after Bartels and Stewart (1972): one real
Schur form per operand (``_real_schur``: a matrix in real Schur canonical
form is its own, any other takes one unsorted Hessenberg-QR sweep), then
one checked triangular step, ``_trsyl`` (LAPACK ``trsyl``, its info and
scale), and one acceptance rule, ``_check_residual`` (below).  Every
Lyapunov solve is ``_gramians``: all Gramians of one state matrix from one
Schur form, the matrix itself or its negated transpose when the
stable/antistable split left it in that form.  ``_solve_sylvester`` serves
:func:`solve_sylvester` and :mod:`ctred.decompose`, which hands it the
blocks of one Schur form.  No scipy Lyapunov or Sylvester solver runs.

The single-matrix factorizations of the hot path are direct LAPACK
calls, each made and checked in one private driver: ``_gees`` (real
Schur form), ``_geev`` (eigenvalues), ``_posv`` (positive definite
solve), ``_syevd`` (symmetric eigen-decomposition), ``_gesdd`` (economy
SVD) and ``_gesv`` (general solve).  At the orders ctred serves, the
numpy and scipy wrappers cost more than the routines inside them.  Each
driver makes the LAPACK call of the wrapper it stands for and returns
what that returns, refuses non-finite input where that wrapper does,
with the same exception type, and raises ``numpy.linalg.LinAlgError``
when LAPACK reports a nonzero ``info``.  The numbers agree bit for bit
where numpy and scipy link the same LAPACK.  Their wheels bundle separate
OpenBLAS builds: with numpy 2.4.6 and scipy 1.17.1, on random draws of
orders 1-39, ``gesv`` rounds apart from order 6 and ``gesdd`` from order
33, and the other four agree.

Reordering is one LAPACK ``trsen`` call, checked in ``_reorder_schur``
(its info, the reconstruction residual and the partition of the reordered
spectrum); :func:`solve_care` reorders the one Schur form of its
Hamiltonian, whose spectrum its axis test reads.

Every computed solution, of a Lyapunov, Sylvester or Riccati equation or
of a Schur reconstruction, is judged by one rule, ``_check_residual``: the
terms of its equation should sum to zero, and the solve is refused when
``||sum of terms|| > RESID_REL * sum of ||term||`` (Frobenius norms), a
normwise backward error (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 16).  The scale includes ``||A|| ||X||``, so an
accurate solve of an ill-conditioned equation is accepted however large
its solution, and a solution that misses its equation is refused.

Whether two roots or eigenvalues are one value is decided by one rule,
``_coincide``: ``|a - b| <= tol (1 + max(|a|, |b|))``.  ``_root_groups``
groups values joined by chains of coinciding pairs (modal clusters,
repeated polynomial roots), and ``_match_roots`` pairs two sets nearest
first (pole/zero cancellation, structural zeros).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla
from numpy.polynomial import polynomial as npoly

from .errors import (
    ConvergenceError,
    CtredError,
    DimensionError,
    NoStabilizingSolutionError,
    NonFiniteError,
    ReorderingError,
    SeparationError,
    StabilityError,
)
from .tolerances import (REAL_COEFF_REL, RESID_REL, SEP_REL, SYMMETRY_REL, inf_norm,
                         stab_tol)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D float64 array with finite entries: a
    fresh C-ordered copy, never ``a`` itself."""
    m = np.array(a, dtype=float, order="C", ndmin=2)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    return _finite_matrix(m, name)


def _finite_matrix(m: np.ndarray, name: str) -> np.ndarray:
    """``m`` itself; :class:`NonFiniteError` unless every entry is finite."""
    if not _finite(m):
        raise NonFiniteError(f"{name} contains NaN or infinite entries")
    return m


def _block_diag(blocks: Sequence[np.ndarray], couplings: dict | None = None) -> np.ndarray:
    """The block-diagonal matrix of ``blocks`` (any shapes; each starts
    below and right of the one before), with ``couplings[i, j]`` in the rows
    of block ``i`` and the columns of block ``j``, and zero elsewhere.  The
    package's one block assembly: slice writes into one zero array."""
    rows, cols = [0], [0]
    for b in blocks:
        rows.append(rows[-1] + b.shape[0])
        cols.append(cols[-1] + b.shape[1])
    out = np.zeros((rows[-1], cols[-1]))
    for i, b in enumerate(blocks):
        out[rows[i]:rows[i + 1], cols[i]:cols[i + 1]] = b
    for (i, j), b in (couplings or {}).items():
        out[rows[i]:rows[i + 1], cols[j]:cols[j + 1]] = b
    return out


def _require_square(a: np.ndarray, name: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")


def _lapack_ok(info: int, routine: str) -> None:
    """Raise ``numpy.linalg.LinAlgError`` unless LAPACK ``routine`` reported
    ``info`` 0."""
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed (info {info})")


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite (counted: an ``all`` reduction
    costs more than the count at these sizes)."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _no_sort(re: float, im: float) -> None:
    """``gees``'s selection callback, never called: the form is unsorted."""


def _gees(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur form ``(T, Z)`` of a square matrix, ``a = Z T Z^T``: one
    unsorted ``gees`` call with its default workspace, as
    ``scipy.linalg.schur(a, output="real")`` returns it.  Raises
    ``ValueError`` on a non-finite entry, as that does."""
    if not _finite(a):
        raise ValueError("array must not contain infs or NaNs")
    t, _, _, _, z, _, info = sla.lapack.dgees(_no_sort, a)
    _lapack_ok(info, "gees")
    return t, z


def _geev(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix in LAPACK's order: one ``geev`` call
    without eigenvectors, as ``np.linalg.eigvals(a)`` returns them (a real
    array when every imaginary part is zero).  Raises ``LinAlgError`` on a
    non-finite entry, as that does."""
    if not _finite(a):
        raise np.linalg.LinAlgError("array must not contain infs or NaNs")
    wr, wi, _, _, info = sla.lapack.dgeev(a, compute_vl=0, compute_vr=0)
    _lapack_ok(info, "geev")
    if not np.count_nonzero(wi):
        return wr
    ev = wr.astype(complex)  # wr + 1j * wi could flip the sign of a zero real part
    ev.imag = wi
    return ev


def _posv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``X`` with ``A X = B`` for a symmetric positive definite ``A``, as
    ``scipy.linalg.solve(a, b, assume_a="pos")`` returns it: a 1x1 ``A``
    divides (refusing only an exact zero, so a negative ``A`` passes), any
    larger one takes one Cholesky ``posv`` call, which refuses a matrix
    that is not positive definite.  Raises ``ValueError`` on a non-finite
    entry, as scipy does."""
    if not (_finite(a) and _finite(b)):
        raise ValueError("array must not contain infs or NaNs")
    if a.shape == (1, 1):
        if a[0, 0] == 0.0:
            raise np.linalg.LinAlgError("singular 1x1 matrix")
        return b / a
    _, x, info = sla.lapack.dposv(a, b)
    _lapack_ok(info, "posv")
    return x


def _syevd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric
    matrix, read from its lower triangle: one divide-and-conquer ``syevd``
    call, as ``np.linalg.eigh(a)`` returns them."""
    w, v, info = sla.lapack.dsyevd(a, lower=1)
    _lapack_ok(info, "syevd")
    return w, v


def _gesdd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD ``a = U diag(s) V^T`` (``s`` descending): one
    divide-and-conquer ``gesdd`` call, as
    ``np.linalg.svd(a, full_matrices=False)`` returns it."""
    u, s, vt, info = sla.lapack.dgesdd(a, full_matrices=0)
    _lapack_ok(info, "gesdd")
    return u, s, vt


def _gesv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``X`` with ``A X = B`` for a square ``A``: one LU ``gesv`` call, as
    ``np.linalg.solve(a, b)`` returns it; an exactly singular ``A`` is
    refused."""
    _, _, x, info = sla.lapack.dgesv(a, b)
    _lapack_ok(info, "gesv")
    return x


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square matrix, sorted by (real, imag) parts.

    Complex eigenvalues of a real matrix appear in conjugate pairs.
    """
    m = as_matrix(a, "A")
    _require_square(m, "A")
    if m.shape[0] == 0:
        return np.array([], dtype=complex)
    ev = _geev(m)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def spectral_abscissa(a) -> float:
    """Largest real part over the spectrum; -inf for an empty matrix."""
    return _stability(as_matrix(a, "A"))[1]


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
    """Eigenvalues of a quasi-triangular matrix in diagonal-block order.

    A 1x1 block is its diagonal entry; every 2x2 block (a nonzero
    subdiagonal entry starts one, read top down) takes one ``_geev``."""
    ev = t.diagonal().astype(complex)
    free = 0
    for i in np.flatnonzero(t.diagonal(-1)).tolist():
        if i >= free:  # not the second row of the block above
            ev[i:i + 2] = _geev(t[i:i + 2, i:i + 2])
            free = i + 2
    return ev


def _is_real_schur(t: np.ndarray) -> bool:
    """True when ``t`` is in real Schur canonical form, by exact zero tests.

    Upper quasi-triangular, with standardized 2x2 diagonal blocks (equal
    diagonal entries, off-diagonal entries of opposite sign), as LAPACK's
    ``gees`` and ``trsen`` return it.  A general matrix fails on its first
    column, tested before the whole matrix is converted for a plain loop.
    """
    n = t.shape[0]
    if n > 2 and any(t[2:, 0].tolist()):
        return False
    rows = t.tolist()
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

    A matrix already in real Schur canonical form is its own ``T``, with
    ``Z`` ``None`` for the identity; any other takes an unsorted
    Hessenberg-QR sweep (``gees``).
    """
    t, z = (m, None) if _is_real_schur(m) else _gees(m)
    return t, z, _block_eigenvalues(t)


def _reorder_schur(m: np.ndarray, t: np.ndarray, z: np.ndarray, ev: np.ndarray,
                   rule: Callable[[np.ndarray], np.ndarray]) -> SchurForm:
    """Move the eigenvalues that ``rule`` selects to the front of the real
    Schur form ``m = z t z^T`` with one ``trsen`` call, and check the result.

    ``z`` is ``None`` when ``m`` is its own Schur form ``t``, ``ev`` is the
    diagonal spectrum of ``t``, and ``rule`` maps an array of
    eigenvalues to a boolean mask.  Raises :class:`ReorderingError` when
    ``trsen`` fails, when ``_check_residual`` refuses the reconstruction
    terms ``Z T Z^T`` and ``-m``, or when the reordered spectrum does not
    split cleanly under ``rule`` (selected eigenvalues first, the others
    after).  A rule that selects all eigenvalues or none moves nothing
    (``trsen`` would return ``t`` and ``z`` as they are), so the form is
    returned unchanged.
    """
    if m.shape[0] == 0:
        return SchurForm(m.copy(), np.eye(0), ev, 0)
    chosen = rule(ev).astype(np.int32)
    z = np.eye(m.shape[0]) if z is None else z
    if chosen.all() or not chosen.any():
        return SchurForm(t.copy(), z, ev, int(chosen.sum()))
    t, z, _, _, sdim, _, _, info = sla.lapack.dtrsen(chosen, t, z, job="N")
    if info != 0:
        raise ReorderingError(f"Schur reordering failed (trsen info {info})")
    _check_residual((z @ t @ z.T, -m), "Schur reconstruction", ReorderingError)
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

    def rule(ev):
        return np.array([bool(select(v)) for v in ev], dtype=bool)

    return _reorder_schur(m, *_real_schur(m), rule)


def _trsyl(a: np.ndarray, b: np.ndarray, f: np.ndarray, equation: str,
           trana: str = "N", tranb: str = "N") -> np.ndarray:
    """``Y`` with ``op(A) Y + Y op(B) = F`` for ``A``, ``B`` in real Schur form;
    raises :class:`ConvergenceError` unless ``trsyl`` succeeds unscaled."""
    y, scale, info = sla.lapack.dtrsyl(a, b, f, trana=trana, tranb=tranb)
    if info != 0 or scale != 1.0:
        raise ConvergenceError(
            f"triangular {equation} solve failed (trsyl info {info}, scale {scale:.2e})"
        )
    return y


def _check_residual(terms: Sequence[np.ndarray], equation: str,
                    error: type[CtredError] = ConvergenceError) -> None:
    """Raise ``error`` unless the ``terms`` of an equation, which should sum
    to zero, leave a residual of at most ``RESID_REL`` times the sum of
    their norms (the normwise backward error of the computed solution);
    a non-finite residual is refused too.  Frobenius norms, from ``vdot``:
    ``np.linalg.norm``'s dispatch would cost more than the products."""
    total = sum(terms[1:], terms[0])
    resid = math.sqrt(np.vdot(total, total))
    if not resid <= RESID_REL * sum(math.sqrt(np.vdot(t, t)) for t in terms):
        raise error(f"{equation} residual {resid:.2e} exceeds tolerance")


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
    :class:`ConvergenceError` from ``_trsyl`` or from ``_check_residual``
    on the terms ``op X``, ``X op^T`` and ``Q`` (``op`` is ``A`` or
    ``A^T``; ``X`` is symmetric, so ``X op^T = (op X)^T`` costs no second
    product).
    """
    if not a.shape[0]:
        return [np.zeros((0, 0)) for _ in (*controllability, *observability)]
    z, sign = None, 1.0
    if _is_real_schur(a):
        t = a
    elif _is_real_schur(-a.T):
        t, sign = -a.T, -1.0
    else:
        t, z = _gees(a)
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
        y = _trsyl(t, t, f, "Lyapunov", trana, tranb)
        x = y if z is None else z @ y @ z.T
        x = 0.5 * (x + x.T)
        ax = (a.T if adjoint else a) @ x
        _check_residual((ax, ax.T, q), "Lyapunov")
        solutions.append(x)
    return solutions


def _check_weight(w: np.ndarray, n: int, name: str) -> None:
    """Refuse (:class:`DimensionError`) an equation's weight unless it is
    ``n x n`` and ``||W - W^T|| <= SYMMETRY_REL max(1, ||W||)``."""
    if w.shape != (n, n):
        raise DimensionError(f"{name} must be {n}x{n}, got shape {w.shape}")
    if w.size and np.linalg.norm(w - w.T) > SYMMETRY_REL * max(1.0, np.linalg.norm(w)):
        raise DimensionError(f"{name} must be symmetric")


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve ``A X + X A^T + Q = 0`` for stable ``A`` and symmetric ``Q``."""
    am = as_matrix(a, "A")
    qm = as_matrix(q, "Q")
    _require_square(am, "A")
    _check_weight(qm, am.shape[0], "Q")
    return _gramians(am, (qm,))[0]


def _solve_sylvester(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                     schur_a: tuple, schur_b: tuple) -> np.ndarray:
    """Solve ``A X + X B + C = 0`` for validated ``A`` and ``B`` from their
    real Schur forms ``(T, Z, ev)`` (``_real_schur``; ``Z`` is ``None`` for
    a matrix that is its own ``T``), and check the result.

    Raises :class:`SeparationError` when an eigenvalue of ``A`` lies within
    ``SEP_REL`` (relative) of one of ``-B``, and :class:`ConvergenceError`
    from ``_trsyl`` or from ``_check_residual`` on the terms ``A X``,
    ``X B`` and ``C``.
    """
    (ta, za, ea), (tb, zb, eb) = schur_a, schur_b
    gap = np.abs(ea[:, None] + eb[None, :]).min()
    tol_sep = SEP_REL * max(inf_norm(a), inf_norm(b))
    if gap <= tol_sep:
        raise SeparationError(
            f"spectral gap {gap:.2e} between A and -B is below tolerance {tol_sep:.2e}"
        )
    # A X + X B = -C is Ta Y + Y Tb = -Za^T C Zb with X = Za Y Zb^T
    f = -c if za is None else za.T @ -c
    x = _trsyl(ta, tb, f if zb is None else f @ zb, "Sylvester")
    x = x if za is None else za @ x
    x = x if zb is None else x @ zb.T
    _check_residual((a @ x, x @ b, c), "Sylvester")
    return x


def solve_sylvester(a, b, c) -> np.ndarray:
    """Solve ``A X + X B + C = 0``; spectra of A and -B must be separated.

    An operand already in real Schur canonical form is its own Schur form;
    any other takes one unsorted Hessenberg-QR sweep first.
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
    return _solve_sylvester(am, bm, cm, _real_schur(am), _real_schur(bm))


def solve_care(a, b, q, r) -> np.ndarray:
    """Stabilizing solution of ``A^T P + P A - P B R^{-1} B^T P + Q = 0``.

    Computed from one real Schur form of the 2n x 2n Hamiltonian, reordered
    to lead with its stable invariant subspace.  The solution is refused
    (:class:`ConvergenceError`) when ``_check_residual`` refuses the terms
    ``A^T P``, ``P A``, ``-P B R^{-1} B^T P`` and ``Q`` (``P`` is symmetric,
    so ``A^T P = (P A)^T``), and the closed loop ``A - B R^{-1} B^T P`` is
    verified stable before returning.  ``Q`` and ``R`` pass ``_check_weight``
    and ``R`` must be positive definite (:class:`DimensionError`).
    """
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    qm = as_matrix(q, "Q")
    rm = as_matrix(r, "R")
    _require_square(am, "A")
    n = am.shape[0]
    if bm.shape[0] != n:
        raise DimensionError(f"B must have {n} rows, got {bm.shape[0]}")
    _check_weight(qm, n, "Q")
    _check_weight(rm, bm.shape[1], "R")
    if rm.size and not np.linalg.eigvalsh(rm)[0] > 0.0:
        raise DimensionError("R must be symmetric positive definite")
    try:
        rinv_bt = sla.solve(rm, bm.T, assume_a="pos")
    except sla.LinAlgError as exc:
        raise DimensionError("R must be symmetric positive definite") from exc

    ham = _block_diag([am, -am.T], {(0, 1): -bm @ rinv_bt, (1, 0): -qm})
    t, z, ev = _real_schur(ham)
    if np.any(np.abs(ev.real) <= half_plane_tol(ham)):
        raise NoStabilizingSolutionError("Hamiltonian has eigenvalues on the imaginary axis")
    form = _reorder_schur(ham, t, z, ev, lambda ev: ev.real < 0.0)
    if form.n_selected != n:
        raise NoStabilizingSolutionError(
            f"stable invariant subspace has dimension {form.n_selected}, expected {n}"
        )
    u1 = form.Z[:n, :n]
    u2 = form.Z[n:, :n]
    # a u1 below numpy's default numerical rank leaves the stable subspace
    # no graph over the first n coordinates: the solve would return noise
    if n and np.linalg.matrix_rank(u1) < n:
        raise NoStabilizingSolutionError("stable subspace is not a graph")
    p = sla.solve(u1.T, u2.T).T
    p = 0.5 * (p + p.T)
    pa = p @ am
    _check_residual((pa.T, pa, -(p @ bm @ rinv_bt @ p), qm), "Riccati")
    if not is_stable(am - bm @ rinv_bt @ p):
        raise NoStabilizingSolutionError("computed solution is not stabilizing")
    return p


def poly_roots(coeffs: Sequence[float]) -> np.ndarray:
    """Roots of a polynomial (ascending coefficients), sorted by (real, imag)
    parts: the eigenvalues of its companion matrix
    (``numpy.polynomial.polynomial.polyroots``)."""
    c = np.asarray(coeffs, dtype=complex)
    if not np.any(c):
        raise DimensionError("zero polynomial has no defined roots")
    c = npoly.polytrim(c)  # strip trailing (highest-degree) zeros
    if c.size == 1:
        return np.array([], dtype=complex)
    # imaginary parts at rounding level relative to the coefficients are dropped
    real = np.max(np.abs(c.imag)) <= REAL_COEFF_REL * np.max(np.abs(c))
    return npoly.polyroots(c.real if real else c)


def _coincide(a, b, tol: float):
    """Whether roots or eigenvalues ``a`` and ``b`` are one value within the
    relative tolerance ``tol``: ``|a - b| <= tol (1 + max(|a|, |b|))``.
    Broadcasts over arrays.  The package's one rule for coinciding values."""
    return np.abs(a - b) <= tol * (1.0 + np.maximum(np.abs(a), np.abs(b)))


def _root_groups(values: np.ndarray, tol: float) -> np.ndarray:
    """One label per value (0, 1, ... in order of first appearance); values
    joined by a chain of coinciding pairs (:func:`_coincide`) share one."""
    n = values.size
    near = _coincide(values[:, None], values[None, :], tol)
    labels = np.arange(n)
    while True:  # each value takes the least label of the values it coincides with
        least = np.where(near, labels, n).min(axis=1, initial=n)
        if (least == labels).all():
            break
        labels = least
    first = labels == np.arange(n)  # the least index of each group
    return (np.cumsum(first) - 1)[labels]


def _match_roots(targets: np.ndarray, pool: np.ndarray, tol: float):
    """Pair each target, in turn, with its nearest unpaired ``pool`` value
    when the two coincide (:func:`_coincide`).  Returns the indices of the
    unpaired targets and of the unpaired pool values."""
    free = np.ones(pool.size, dtype=bool)
    lost = []
    for i, t in enumerate(targets):
        j = int(np.where(free, np.abs(pool - t), np.inf).argmin()) if free.any() else None
        if j is None or not _coincide(t, pool[j], tol):
            lost.append(i)
        else:
            free[j] = False
    return np.array(lost, dtype=int), np.flatnonzero(free)
