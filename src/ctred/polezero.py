"""SISO pole-zero analysis: partial fractions, residue factorization and
the shrinking-coefficient cancellation probe.

All polynomial arithmetic is done on ascending coefficient arrays; roots
come from :func:`~ctred.linalg.poly_roots`, and whether two roots are one
root is decided by :mod:`ctred.linalg`'s coincidence rule at ``PZ_CANCEL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import linalg
from .errors import ConvergenceError, DimensionError, RadiusError, UnsupportedError
from .rational import RationalTransferFunction
from .tolerances import PZ_CANCEL, REALIFY_REL, RESIDUE_REL


@dataclass(frozen=True)
class PartialFraction:
    """Terms ``alpha / (s - p)^j`` plus an (empty, strictly proper) polynomial part."""

    terms: tuple[tuple[complex, int, complex], ...]
    polynomial_part: tuple[float, ...] = ()

    def poles(self) -> list[complex]:
        return sorted({t[0] for t in self.terms}, key=lambda z: (z.real, z.imag))

    def __call__(self, s: complex) -> complex:
        val = complex(npoly.polyval(s, self.polynomial_part)) if self.polynomial_part else 0.0
        for p, j, alpha in self.terms:
            val += alpha / (s - p) ** j
        return val

    def reconstruct(self) -> RationalTransferFunction:
        """Common-denominator rational form of the term sum."""
        num, den = _terms_to_rational(self.terms)
        return RationalTransferFunction(np.real(num), np.real(den))


def _cluster_roots(roots: np.ndarray):
    """Group numerically repeated roots (:func:`~ctred.linalg._root_groups`);
    returns ``[(center, multiplicity)]`` sorted by the center's (real, imag)
    parts, a center within rounding of the real axis taken as real."""
    labels = linalg._root_groups(roots, PZ_CANCEL)
    size = np.bincount(labels)
    center = (np.bincount(labels, roots.real) + 1j * np.bincount(labels, roots.imag)) / size
    center.imag[linalg._coincide(center, center.real, PZ_CANCEL)] = 0.0
    return [(complex(center[g]), int(size[g]))
            for g in np.lexsort((center.imag, center.real))]


def _taylor(coeffs, p: complex, order: int) -> np.ndarray:
    """First ``order+1`` Taylor coefficients of the polynomial around ``p``."""
    c = np.asarray(coeffs, dtype=complex)
    out = np.zeros(order + 1, dtype=complex)
    for k in range(order + 1):
        acc = 0.0 + 0.0j
        for i in range(k, c.size):
            acc += math.comb(i, k) * c[i] * p ** (i - k)
        out[k] = acc
    return out


def _series_div(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Leading coefficients of the power series ``a / b`` (b[0] != 0)."""
    h = np.zeros(order + 1, dtype=complex)
    for k in range(order + 1):
        acc = a[k] if k < a.size else 0.0
        for i in range(1, k + 1):
            if i < b.size:
                acc -= b[i] * h[k - i]
        h[k] = acc / b[0]
    return h


def _terms_to_rational(terms):
    """Numerator/denominator (ascending, complex) of a sum of simple terms."""
    poles: dict[complex, int] = {}
    for p, j, _ in terms:
        poles[p] = max(poles.get(p, 0), j)
    den = np.array([1.0 + 0.0j])
    for p, m in poles.items():
        den = npoly.polymul(den, npoly.polypow(np.array([-p, 1.0]), m))
    num = np.zeros(1, dtype=complex)
    for p, j, alpha in terms:
        rest = np.array([1.0 + 0.0j])
        for q, m in poles.items():
            mm = m - j if q == p else m
            if mm:
                rest = npoly.polymul(rest, npoly.polypow(np.array([-q, 1.0]), mm))
        num = npoly.polyadd(num, alpha * rest)
    return num, den


def partial_fractions(f: RationalTransferFunction) -> PartialFraction:
    """Partial fraction expansion of a strictly proper rational function.

    Denominator roots are clustered into multiplicities; the coefficients
    at each pole come from the Taylor expansion of the deflated function.
    Conjugate poles carry conjugate coefficients.
    """
    if f.num.size >= f.den.size:
        raise UnsupportedError("partial fractions require a strictly proper function")
    roots = linalg.poly_roots(f.den)
    clusters = _cluster_roots(roots)
    terms: list[tuple[complex, int, complex]] = []
    done: set[complex] = set()
    for p, m in clusters:
        if p in done:
            continue
        conj = complex(p.real, -p.imag)
        # deflated denominator: product over the other clusters
        dt = np.array([1.0 + 0.0j])
        for q, mq in clusters:
            if q == p:
                continue
            dt = npoly.polymul(dt, npoly.polypow(np.array([-q, 1.0]), mq))
        a_taylor = _taylor(f.num.astype(complex), p, m - 1)
        b_taylor = _taylor(dt, p, m - 1)
        coeffs = _series_div(a_taylor, b_taylor, m - 1)
        for j in range(1, m + 1):
            alpha = coeffs[m - j]
            if p.imag == 0.0:
                alpha = complex(alpha.real, 0.0)
            terms.append((p, j, alpha))
            if p.imag != 0.0:
                terms.append((conj, j, alpha.conjugate()))
        done.add(p)
        done.add(conj)
    terms.sort(key=lambda t: (t[0].real, t[0].imag, t[1]))
    return PartialFraction(tuple(terms))


def nearest_zero_gap(f: RationalTransferFunction, p: complex) -> float:
    """Distance from a pole to the nearest zero; infinite when there are none."""
    zs = f.zeros()
    if zs.size == 0:
        return math.inf
    return float(np.min(np.abs(zs - p)))


def residue_factorization(f: RationalTransferFunction, p: float):
    """Factor the residue at a simple real pole into gap times remainder.

    Writes ``f = ((s - q)/(s - p)) * (n(s)/d(s))`` with ``q`` the zero
    nearest to ``p``; the residue of ``f`` at ``p`` then equals
    ``(p - q) * r`` with ``r = n(p)/d(p)``.  Returns
    ``(residue, p - q, r)``.  When ``f`` has no zeros the gap is infinite
    and the residue is returned with ``r = nan``.
    """
    roots = linalg.poly_roots(f.den)
    at_p = np.flatnonzero(linalg._coincide(roots, p, PZ_CANCEL))
    if not at_p.size:
        raise DimensionError(f"{p} is not a pole of the function")
    if at_p.size > 1:
        raise UnsupportedError(f"pole {p} is not simple")
    pole = complex(roots[at_p[0]])
    d = npoly.polydiv(f.den, [-pole, 1.0])[0]
    den_at = complex(npoly.polyval(pole, d))
    num_at = complex(npoly.polyval(pole, f.num.astype(complex)))
    residue = num_at / den_at
    zs = f.zeros()
    if zs.size == 0:
        return _realify(residue), math.inf, math.nan
    q = complex(zs[int(np.argmin(np.abs(zs - pole)))])
    n_poly = npoly.polydiv(f.num, [-q, 1.0])[0]
    r = complex(npoly.polyval(pole, n_poly)) / den_at
    gap = pole - q
    check = gap * r
    if abs(check - residue) > RESIDUE_REL * max(abs(residue), 1e-300):
        raise ConvergenceError(
            f"residue factorization inconsistent: {check:.3e} vs {residue:.3e}"
        )
    return _realify(residue), _realify(gap), _realify(r)


def _realify(z: complex):
    if isinstance(z, complex) and abs(z.imag) <= REALIFY_REL * max(1.0, abs(z.real)):
        return float(z.real)
    return z


def small_block_cancellation_probe(
    pf: PartialFraction, p: complex, scale: float, epsilon: float
):
    """Scale the coefficients at one pole and look for zeros collapsing onto it.

    Rebuilds the rational function with every coefficient at pole ``p``
    multiplied by ``scale`` and reports whether exactly ``n_p`` numerator
    zeros (the pole's multiplicity) lie in the closed epsilon-ball around
    ``p``, together with those zeros.  ``epsilon`` must stay below the
    distance from ``p`` to every root of the remainder numerator.
    """
    p = complex(p)
    at_p = [t for t in pf.terms if linalg._coincide(t[0], p, PZ_CANCEL)]
    if not at_p:
        raise DimensionError(f"{p} is not a pole of the expansion")
    rest = [t for t in pf.terms if t not in at_p]
    n_p = max(j for _, j, _ in at_p)
    if rest:
        u, d = _terms_to_rational(rest)
        u_roots = linalg.poly_roots(u) if u.size > 1 else np.array([], dtype=complex)
    else:
        u = np.array([0.0 + 0.0j])
        d = np.array([1.0 + 0.0j])
        u_roots = np.array([], dtype=complex)
    if u_roots.size:
        min_dist = float(np.min(np.abs(u_roots - p)))
        if epsilon >= min_dist:
            raise RadiusError(
                f"epsilon {epsilon:.3e} is not below the nearest remainder root "
                f"distance {min_dist:.3e}"
            )
    # numerator of scale*sum_j alpha_j/(s-p)^j + u/d over the common denominator
    sp = npoly.polypow(np.array([-p, 1.0]), n_p)
    acc = np.zeros(1, dtype=complex)
    for _, j, alpha in at_p:
        acc = npoly.polyadd(acc, scale * alpha * npoly.polypow(np.array([-p, 1.0]), n_p - j))
    numerator = npoly.polyadd(npoly.polymul(acc, d), npoly.polymul(u, sp))
    if not np.any(np.abs(numerator) > 0):
        raise DimensionError("scaled function is identically zero; probe undefined")
    if numerator.size > 1:
        zs = linalg.poly_roots(numerator)
    else:
        zs = np.array([], dtype=complex)
    inside = zs[np.abs(zs - p) <= epsilon]
    return inside.size == n_p, zs
