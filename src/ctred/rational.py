"""SISO rational transfer functions and conversion from state space.

Coefficient arrays are stored in ascending degree order.  Roots come from
:func:`~ctred.linalg.poly_roots`, and a pole/zero pair cancels when
:mod:`ctred.linalg`'s nearest-first pairing matches them at ``PZ_CANCEL``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import linalg
from .errors import DimensionError, NonFiniteError, UnsupportedError
from .statespace import StateSpaceSystem
from .tolerances import PZ_CANCEL


@dataclass(frozen=True)
class RationalTransferFunction:
    """Proper SISO rational function ``num(s) / den(s)``.

    Coefficients ascend in degree; the denominator is normalized monic.
    """

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = np.atleast_1d(np.asarray(self.num, dtype=float))
        den = np.atleast_1d(np.asarray(self.den, dtype=float))
        if num.ndim != 1 or den.ndim != 1:
            raise DimensionError("coefficient arrays must be 1-D")
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
            raise NonFiniteError("coefficients must be finite")
        if num.size == 0:
            raise DimensionError("numerator must have at least one coefficient")
        if not np.any(den):
            raise DimensionError("denominator must be nonzero")
        # drop trailing (highest-degree) coefficients that are exactly zero
        den = npoly.polytrim(den)
        num = npoly.polytrim(num)
        if num.size > den.size:
            raise DimensionError("transfer function must be proper")
        lead = den[-1]
        num = num / lead
        den = den / lead
        num.flags.writeable = False
        den.flags.writeable = False
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def degree(self) -> int:
        return self.den.size - 1

    def __call__(self, s) -> complex:
        return npoly.polyval(s, self.num) / npoly.polyval(s, self.den)

    def poles(self) -> np.ndarray:
        if self.degree == 0:
            return np.array([], dtype=complex)
        return linalg.poly_roots(self.den)

    def zeros(self) -> np.ndarray:
        if self.num.size <= 1:
            return np.array([], dtype=complex)
        return linalg.poly_roots(self.num)

    @property
    def strictly_proper(self) -> bool:
        return self.num.size < self.den.size or self.degree == 0 and self.num[0] == 0

    def to_statespace(self) -> StateSpaceSystem:
        """Controllable companion realization."""
        n = self.degree
        if n == 0:
            return StateSpaceSystem(
                np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                np.array([[self.num[0]]]),
            )
        num = np.zeros(n + 1)
        num[: self.num.size] = self.num
        d = num[-1]                      # direct feedthrough for biproper input
        rem = num[:-1] - d * self.den[:-1]
        a = np.zeros((n, n))
        a[:-1, 1:] = np.eye(n - 1)
        a[-1, :] = -self.den[:-1]
        b = np.zeros((n, 1))
        b[-1, 0] = 1.0
        c = rem[np.newaxis, :]
        return StateSpaceSystem(a, b, c, np.array([[d]]))


def to_rational(s: StateSpaceSystem) -> RationalTransferFunction:
    """Exact SISO transfer function of a state-space realization.

    The denominator is the characteristic polynomial of ``A``; a pole/zero
    pair is cancelled only when the roots coincide within ``PZ_CANCEL``
    (exact-degree GCD by root matching, :func:`~ctred.linalg._match_roots`).
    """
    if not s.is_siso:
        raise UnsupportedError("to_rational requires a SISO system")
    n = s.n
    d = float(s.D[0, 0])
    if n == 0:
        return RationalTransferFunction(np.array([d]), np.array([1.0]))
    den_desc = np.poly(s.A)  # descending, monic
    # det(sI - A + B C) = det(sI - A) * (1 + C (sI-A)^{-1} B), so the strictly
    # proper numerator is the difference of the two characteristic polynomials.
    pert_desc = np.poly(s.A - s.B @ s.C)
    num_desc = np.polysub(pert_desc, den_desc)
    num = num_desc[::-1].copy()
    den = den_desc[::-1].copy()
    num = np.concatenate([num, np.zeros(den.size - num.size)])
    num = num + d * den
    num = npoly.polytrim(num)
    if num.size == 1 and num[0] == 0.0:
        return RationalTransferFunction(np.array([0.0]), np.array([1.0]))
    zs = linalg.poly_roots(num) if num.size > 1 else np.array([], dtype=complex)
    ps = linalg.poly_roots(den)
    kept_z, kept_p = linalg._match_roots(zs, ps, PZ_CANCEL)
    if kept_z.size != zs.size:
        # real monic polynomials of the kept, conjugate-closed roots
        num = num[-1] * np.real(npoly.polyfromroots(zs[kept_z]))
        den = np.real(npoly.polyfromroots(ps[kept_p]))
    return RationalTransferFunction(num, den)
