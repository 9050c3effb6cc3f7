"""Continuous-time state-space systems and their interconnections.

A :class:`StateSpaceSystem` is an immutable ``(A, B, C, D)`` quadruple.
This module provides construction/validation, parallel and series
interconnection, the plant/controller closed loop, the two-input
two-output closed-loop map, the sensitivity pair and minimality tests.

A system owns its real Schur form and its poles (``_schur``, ``_poles``:
the Schur diagonal's spectrum when ``A`` is in real Schur form, else one
eigen-solve), each made once; one built on a known form is created
holding both (the loop on its Schur form and its blocks, the parts of a
block diagonalization, a negation, the sum of two Schur forms).

Every system the package builds from arrays it computed, or from another
system's read-only arrays, is made by one private path, ``_system``: it
takes those arrays over (copying only one that is not C-contiguous
float64), keeps the shape checks and one finiteness count per array (an
overflowing product is still refused), and holds only the derived data
it is handed.  ``_on_schur_form`` and ``_on_state_of`` are that path for
a system built on a known form.  The public constructor and
:func:`make_system` copy and check the caller's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DimensionError, NotStabilizingError, UnsupportedError
from .tolerances import RANK_REL


@dataclass(frozen=True, eq=False)
class StateSpaceSystem:
    """State-space realization ``y = C x + D u``, ``x' = A x + B u``.

    Construction converts each matrix once, by :func:`~ctred.linalg.as_matrix`
    (a fresh C-ordered float64 copy with finite entries), checks the shapes
    against each other and stores that copy read-only; an omitted ``D`` is
    the zero matrix.  A system constructed so therefore never shares its
    arrays with the caller, so nothing outside it can change it.  Systems
    the package builds itself (the interconnections, splits, reductions)
    may share read-only arrays with other systems.  Systems compare and hash
    by identity: a system can key a cache (the certificates' loop
    analyses), and equal matrices built anew make a distinct key.  Raises
    :class:`DimensionError` or :class:`NonFiniteError`.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray | None = None

    def __post_init__(self):
        a = linalg.as_matrix(self.A, "A")
        b = linalg.as_matrix(self.B, "B")
        c = linalg.as_matrix(self.C, "C")
        if self.D is None:
            d = np.zeros((c.shape[0], b.shape[1]))
        else:
            d = linalg.as_matrix(self.D, "D")
        self._own(a, b, c, d, {})

    def _own(self, a, b, c, d, held: dict) -> None:
        """Check the shapes of ``(a, b, c, d)``, then store them read-only
        and ``held`` (the derived data: form, poles and split)."""
        n = a.shape[0]
        if a.shape[1] != n:
            raise DimensionError(f"A must be square, got {a.shape}")
        if b.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {b.shape}")
        if c.shape[1] != n:
            raise DimensionError(f"C must have {n} columns, got {c.shape}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionError(
                f"D must be {c.shape[0]}x{b.shape[1]}, got {d.shape}"
            )
        for name, m in zip("ABCD", (a, b, c, d)):
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        # _schur, _poles and the split once made: a dict, as cached
        # properties slow attribute reads
        object.__setattr__(self, "_held", held)

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def m(self) -> int:
        """Input dimension."""
        return self.B.shape[1]

    @property
    def p(self) -> int:
        """Output dimension."""
        return self.C.shape[0]

    @property
    def _schur(self) -> tuple:
        """``linalg._real_schur(A)``, held once made (a race may make it twice)."""
        form = self._held.get("schur")
        if form is None:
            t, z, ev = form = linalg._real_schur(self.A)
            for a in (ev,) if z is None else form:  # a T that is A is read-only
                a.setflags(write=False)
            self._held["schur"] = form
        return form

    @property
    def _poles(self) -> np.ndarray:
        """The eigenvalues of ``A`` by the module's rule, held, read-only."""
        ev = self._held.get("poles")
        if ev is None:
            ev = (linalg._block_eigenvalues(self.A) if linalg._is_real_schur(self.A)
                  else linalg.eigenvalues(self.A))
            ev.setflags(write=False)
            self._held["poles"] = ev
        return ev

    @property
    def is_siso(self) -> bool:
        return self.m == 1 and self.p == 1

    @property
    def strictly_proper(self) -> bool:
        return not np.any(self.D)

    def __add__(self, other: "StateSpaceSystem") -> "StateSpaceSystem":
        return add(self, other)

    def __sub__(self, other: "StateSpaceSystem") -> "StateSpaceSystem":
        return add(self, negate(other))

    def __neg__(self) -> "StateSpaceSystem":
        return negate(self)

    def eval(self, s: complex) -> np.ndarray:
        """Transfer function value ``C (sI - A)^{-1} B + D`` at a point."""
        if self.n == 0:
            return self.D.astype(complex)
        resolvent = np.linalg.solve(s * np.eye(self.n) - self.A, self.B)
        return self.C @ resolvent + self.D

    def __repr__(self) -> str:  # compact, avoids dumping matrices
        return f"StateSpaceSystem(n={self.n}, m={self.m}, p={self.p})"


def _system(a, b, c, d=None, held: dict | None = None) -> StateSpaceSystem:
    """The system on 2-D arrays the package computed or another system's
    read-only arrays, taken over without the public constructor's copies:
    an array is copied only when it is not C-contiguous float64, and each
    is made read-only.  The shapes are checked (:class:`DimensionError`),
    and so is each array's finiteness (:class:`NonFiniteError`: a product
    of finite arrays can overflow).  ``d`` defaults to the zero matrix, and
    the system holds ``held`` (a dict of its own) and nothing else."""
    if d is None:
        d = np.zeros((c.shape[0], b.shape[1]))
    s = object.__new__(StateSpaceSystem)
    s._own(_owned(a, "A"), _owned(b, "B"), _owned(c, "C"), _owned(d, "D"),
           {} if held is None else held)
    return s


def _owned(m: np.ndarray, name: str) -> np.ndarray:
    """``m``, or its C-contiguous float64 copy, with finite entries."""
    return linalg._finite_matrix(np.ascontiguousarray(m, dtype=float), name)


def _on_schur_form(t, b, c, ev: np.ndarray, d=None) -> StateSpaceSystem:
    """The system ``(t, b, c, d)`` on its own real Schur form ``t``, holding
    that form and its poles ``ev``, ``linalg._block_eigenvalues(t)``, made read-only."""
    s = _system(t, b, c, d)
    ev.setflags(write=False)
    s._held.update(schur=(s.A, None, ev), poles=ev)
    return s


def _on_state_of(s: StateSpaceSystem, b, c, d=None) -> StateSpaceSystem:
    """The system ``(s.A, b, c, d)``, holding the form and poles ``s`` holds
    (not its split: that belongs to ``s``'s transfer function)."""
    held = s._held
    return _system(s.A, b, c, d, {name: held[name] for name in ("schur", "poles")
                                  if name in held})


def make_system(a, b, c, d=None) -> StateSpaceSystem:
    """Validated system construction; ``d`` defaults to the zero matrix."""
    return StateSpaceSystem(a, b, c, d)


def zero_system(p: int, m: int) -> StateSpaceSystem:
    """The identically-zero p x m system of order 0."""
    return _system(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)))


def add(s1: StateSpaceSystem, s2: StateSpaceSystem) -> StateSpaceSystem:
    """Parallel interconnection: transfer functions add, orders add."""
    if s1.m != s2.m or s1.p != s2.p:
        raise DimensionError(
            f"parallel sum needs matching dimensions, got "
            f"{s1.p}x{s1.m} and {s2.p}x{s2.m}"
        )
    a = linalg._block_diag([s1.A, s2.A])
    b = np.vstack([s1.B, s2.B])
    c = np.hstack([s1.C, s2.C])
    f1, f2 = s1._held.get("schur"), s2._held.get("schur")
    if f1 and f2 and f1[1] is None and f2[1] is None:  # two Schur forms make one
        return _on_schur_form(a, b, c, np.concatenate([f1[2], f2[2]]), s1.D + s2.D)
    return _system(a, b, c, s1.D + s2.D)


def negate(s: StateSpaceSystem) -> StateSpaceSystem:
    return _on_state_of(s, s.B, -s.C, -s.D)


def series(s2: StateSpaceSystem, s1: StateSpaceSystem) -> StateSpaceSystem:
    """Realization of the product ``s2(s) * s1(s)`` (input enters ``s1``)."""
    if s1.p != s2.m:
        raise DimensionError(
            f"series needs s2 inputs ({s2.m}) == s1 outputs ({s1.p})"
        )
    a = linalg._block_diag([s1.A, s2.A], {(1, 0): s2.B @ s1.C})
    b = np.vstack([s1.B, s2.B @ s1.D])
    c = np.hstack([s2.D @ s1.C, s2.C])
    return _system(a, b, c, s2.D @ s1.D)


def mirror(s: StateSpaceSystem) -> StateSpaceSystem:
    """Realization of ``s(-s)^T``: stable for an antistable input system.

    Singular values on the imaginary axis are preserved pointwise, so all
    frequency-domain norms agree with those of the input system.
    """
    return _system(-s.A.T, s.C.T, s.B.T, s.D.T)


# Complex entries of the ``(chunk, n, n)`` work array of one stacked solve
# in frequency_response (1 MiB): a 201-point sweep is one solve up to n = 18.
_RESPONSE_BUDGET = 1 << 16


def frequency_response(s: StateSpaceSystem, omegas) -> np.ndarray:
    """Transfer function values at ``j*omega`` for an array of frequencies.

    Returns an array of shape ``(len(omegas), p, m)``.  The resolvents are
    computed by one stacked solve per chunk of frequencies; each chunk
    holds as many frequencies as fit ``_RESPONSE_BUDGET`` complex entries
    of the ``(chunk, n, n)`` work array (at least one).
    """
    ws = np.atleast_1d(np.asarray(omegas, dtype=float))
    out = np.empty((ws.size, s.p, s.m), dtype=complex)
    if s.n == 0:
        out[:] = s.D
        return out
    diag = np.arange(s.n)
    step = max(1, _RESPONSE_BUDGET // (s.n * s.n))
    for start in range(0, ws.size, step):
        chunk = ws[start:start + step]
        # built in place: one (chunk, n, n) array instead of two temporaries
        pencils = np.empty((chunk.size, s.n, s.n), dtype=complex)
        pencils[:] = -s.A
        pencils[:, diag, diag] += 1j * chunk[:, None]
        out[start:start + chunk.size] = s.C @ np.linalg.solve(pencils, s.B) + s.D
    return out


def _check_loop_dims(g: StateSpaceSystem, k: StateSpaceSystem) -> None:
    if not g.strictly_proper or not k.strictly_proper:
        raise DimensionError("plant and controller must be strictly proper (D = 0)")
    if k.m != g.p or k.p != g.m:
        raise DimensionError(
            f"controller must map {g.p} plant outputs to {g.m} plant inputs, "
            f"got {k.m} inputs / {k.p} outputs"
        )


def closed_loop_matrix(g: StateSpaceSystem, k: StateSpaceSystem) -> np.ndarray:
    """Closed-loop state matrix ``[[A, B C_K], [B_K C, A_K]]``."""
    _check_loop_dims(g, k)
    return linalg._block_diag([g.A, k.A], {(0, 1): g.B @ k.C, (1, 0): k.B @ g.C})


def _loop_stability(acl: np.ndarray, ev: np.ndarray | None = None) -> tuple[bool, float]:
    """``(stable, spectral_abscissa)`` of a loop's state matrix, on its Schur
    diagonal ``ev`` if held, else one eigen-solve (verdicts differ in rounding)."""
    return linalg._stability(acl, ev)


def is_internally_stable(g: StateSpaceSystem, k: StateSpaceSystem):
    """Internal stability of the loop; returns ``(stable, spectral_abscissa)``."""
    return _loop_stability(closed_loop_matrix(g, k))


@dataclass(frozen=True)
class FourBlockMap:
    """Closed-loop map from (state noise, measurement noise) to (output, input).

    Realized once on the shared closed-loop state of dimension
    ``n_G + n_K``.  Row block sizes are ``(p, m)`` and column block sizes
    ``(m, p)`` where the plant is p x m.  Each block is built on first
    access and kept, holding the Schur form and poles the map holds.
    """

    system: StateSpaceSystem
    p: int
    m: int

    @property
    def row_blocks(self) -> tuple[slice, slice]:
        """Output rows of blocks 0 (plant output) and 1 (control input)."""
        return slice(0, self.p), slice(self.p, self.p + self.m)

    @property
    def col_blocks(self) -> tuple[slice, slice]:
        """Input columns of blocks 0 (state noise) and 1 (measurement noise)."""
        return slice(0, self.m), slice(self.m, self.m + self.p)

    def block(self, i: int, j: int) -> StateSpaceSystem:
        """Subsystem for output block ``i`` and input block ``j`` (0-based)."""
        if i not in (0, 1) or j not in (0, 1):
            raise DimensionError("block indices must be 0 or 1")
        rows, cols = self.row_blocks[i], self.col_blocks[j]
        s = self.system
        return _on_state_of(s, s.B[:, cols], s.C[rows, :], s.D[rows, cols])

    @cached_property
    def x(self) -> StateSpaceSystem:
        """Block (1,1): ``(I - G K)^{-1} G``."""
        return self.block(0, 0)

    @cached_property
    def xk(self) -> StateSpaceSystem:
        """Block (1,2): ``(I - G K)^{-1} G K``."""
        return self.block(0, 1)

    @cached_property
    def kx(self) -> StateSpaceSystem:
        """Block (2,1): ``K (I - G K)^{-1} G``."""
        return self.block(1, 0)

    @cached_property
    def ky(self) -> StateSpaceSystem:
        """Block (2,2): ``K (I - G K)^{-1}``."""
        return self.block(1, 1)

    @cached_property
    def y(self) -> StateSpaceSystem:
        """Output sensitivity ``Y = (I - G K)^{-1} = I + X K``."""
        xk = self.xk
        return _on_state_of(xk, xk.B, xk.C, np.eye(self.p))


def four_block(g: StateSpaceSystem, k: StateSpaceSystem) -> FourBlockMap:
    """Shared-state realization of the two-by-two closed-loop transfer matrix."""
    a = closed_loop_matrix(g, k)
    b = linalg._block_diag([g.B, k.B])
    c = linalg._block_diag([g.C, k.C])
    return FourBlockMap(_system(a, b, c), p=g.p, m=g.m)


def _require_stabilizing(acl: np.ndarray, ev: np.ndarray | None = None) -> None:
    """Raise :class:`NotStabilizingError` unless ``_loop_stability(acl, ev)``."""
    stable, alpha = _loop_stability(acl, ev)
    if not stable:
        raise NotStabilizingError(
            f"controller does not internally stabilize the plant "
            f"(closed-loop abscissa {alpha:.3e})"
        )


def _stabilizing_four_block(g: StateSpaceSystem, k: StateSpaceSystem) -> FourBlockMap:
    """``four_block(g, k)`` on the real Schur form ``A = Z T Z^T`` of its
    state matrix: ``(T, Z^T B, C Z)``, holding that form, whose diagonal the
    stability test reads (:class:`NotStabilizingError` unless ``k``
    internally stabilizes ``g``).  The orthogonal change of coordinates
    moves no transfer function, norm or Hankel singular value beyond
    rounding, and makes every Gramian a triangular solve: one ``gees``, no
    ``geev``."""
    fb = four_block(g, k)
    s = fb.system
    t, z, ev = s._schur
    _require_stabilizing(s.A, ev)
    if z is not None:
        fb = FourBlockMap(_on_schur_form(t, z.T @ s.B, s.C @ z, ev), p=fb.p, m=fb.m)
    return fb


def sensitivity_pair(g: StateSpaceSystem, k: StateSpaceSystem):
    """Stable realizations of ``Y = (I - G K)^{-1}`` and ``X = (I - G K)^{-1} G``.

    Both live on the shared closed-loop state; ``Y`` carries an identity
    feedthrough, ``X`` none.  Requires an internally stabilizing loop.
    """
    fb = four_block(g, k)
    _require_stabilizing(fb.system.A)
    return fb.y, fb.x


@dataclass(frozen=True)
class MinimalityResult:
    minimal: bool
    controllability_rank: int
    observability_rank: int

    def __bool__(self) -> bool:
        return self.minimal


def _numeric_rank(m: np.ndarray) -> int:
    """Number of singular values above ``RANK_REL`` times the largest."""
    return int(np.linalg.matrix_rank(m, rtol=RANK_REL)) if m.size else 0


def check_minimal(s: StateSpaceSystem) -> MinimalityResult:
    """Controllability/observability ranks from the n-block Krylov matrices."""
    n = s.n
    if n == 0:
        return MinimalityResult(True, 0, 0)
    ctrb_blocks = [s.B]
    obsv_blocks = [s.C]
    for _ in range(n - 1):
        ctrb_blocks.append(s.A @ ctrb_blocks[-1])
        obsv_blocks.append(obsv_blocks[-1] @ s.A)
    rc = _numeric_rank(np.hstack(ctrb_blocks))
    ro = _numeric_rank(np.vstack(obsv_blocks))
    return MinimalityResult(rc == n and ro == n, rc, ro)


def poles(s: StateSpaceSystem) -> np.ndarray:
    """System poles: eigenvalues of the state matrix of a minimal realization.

    Falls back to the raw spectrum when the stable/antistable reduction is
    ill-posed (poles on the imaginary axis).
    """
    from . import reduce as _reduce
    from .errors import AxisPoleError

    try:
        s_min = _reduce.minimal_realization(s)
    except AxisPoleError:
        return linalg.eigenvalues(s.A)
    return linalg.eigenvalues(s_min.A)


def zeros(s: StateSpaceSystem) -> np.ndarray:
    """Transmission zeros of a SISO system (roots of the numerator)."""
    if not s.is_siso:
        raise UnsupportedError("zeros are only computed for SISO systems")
    from .rational import to_rational

    return to_rational(s).zeros()
