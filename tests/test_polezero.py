import math

import numpy as np
import pytest

from ctred.benchmarks import bench_unstable_pair
from ctred.decompose import modal_form
from ctred.errors import DimensionError, RadiusError, UnsupportedError
from ctred.polezero import (
    PartialFraction,
    nearest_zero_gap,
    partial_fractions,
    residue_factorization,
    small_block_cancellation_probe,
)
from ctred.rational import RationalTransferFunction, to_rational


def rtf(num, den):
    return RationalTransferFunction(np.array(num, float), np.array(den, float))


def test_partial_fractions_textbook():
    f = rtf([1.0], [2.0, 3.0, 1.0])  # 1/((s+1)(s+2))
    pf = partial_fractions(f)
    terms = {(round(t[0].real, 9), t[1]): t[2] for t in pf.terms}
    assert terms[(-1.0, 1)] == pytest.approx(1.0)
    assert terms[(-2.0, 1)] == pytest.approx(-1.0)


def test_partial_fractions_repeated_pole():
    f = rtf([1.0], [1.0, 2.0, 1.0])  # 1/(s+1)^2
    pf = partial_fractions(f)
    by_order = {t[1]: t[2] for t in pf.terms}
    assert by_order[2] == pytest.approx(1.0)
    assert abs(by_order[1]) < 1e-9


def test_partial_fractions_match_modal_blocks():
    # cross-check against the state-space modal decomposition
    _, k = bench_unstable_pair()
    f = to_rational(k)
    pf = partial_fractions(f)
    md = modal_form(k)
    modal = {
        round(b.eigenvalue.real, 6): float((b.C @ b.B)[0, 0]) for b in md.blocks
    }
    for pole, order, alpha in pf.terms:
        assert order == 1
        assert alpha.real == pytest.approx(modal[round(pole.real, 6)], rel=1e-6)
    assert modal[0.34] == pytest.approx(-0.0628)


def test_partial_fractions_rejects_improper():
    with pytest.raises(UnsupportedError):
        partial_fractions(rtf([1.0, 1.0], [1.0, 1.0]))


def test_partial_fractions_reconstruction(rng):
    for _ in range(10):
        poles = rng.uniform(-4.0, -0.3, 4) + 1j * np.round(rng.uniform(-1, 1, 4), 12)
        poles[:2] = poles[:2].real  # keep two real poles
        poles[3] = poles[2].conjugate()
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        num = rng.uniform(-1, 1, 3)
        f = RationalTransferFunction(num, den)
        pf = partial_fractions(f)
        grid = np.linspace(-3.0, 3.0, 1000)
        for x in grid[::37]:
            s = 1j * x + 0.5
            assert abs(pf(s) - f(s)) <= 1e-7 * max(1.0, abs(f(s)))
        back = pf.reconstruct()
        for x in (0.0, 1.3, -2.2):
            s = 1j * x + 0.25
            assert abs(back(s) - f(s)) <= 1e-7 * max(1.0, abs(f(s)))


def test_residue_factorization_example():
    # (s - 0.9)/((s - 1)(s + 2))
    f = rtf([-0.9, 1.0], [-2.0, 1.0, 1.0])
    residue, gap, r = residue_factorization(f, 1.0)
    assert residue == pytest.approx(0.1 / 3.0)
    assert gap == pytest.approx(0.1)
    assert r == pytest.approx(1.0 / 3.0)


def test_residue_factorization_exact_cancellation():
    # (s - 1)/((s - 1)(s + 1)): residue at the cancelled pole is zero
    f = rtf([-1.0, 1.0], [-1.0, -1.0, 1.0, 1.0])
    residue, gap, r = residue_factorization(f, 1.0)
    assert abs(residue) < 1e-12
    assert abs(gap) < 1e-9


def test_residue_factorization_no_zeros():
    f = rtf([1.0], [2.0, 3.0, 1.0])
    residue, gap, r = residue_factorization(f, -1.0)
    assert residue == pytest.approx(1.0)
    assert math.isinf(gap)
    assert math.isnan(r)


def test_residue_factorization_rejects_repeated_pole():
    f = rtf([1.0], [1.0, 2.0, 1.0])
    with pytest.raises(UnsupportedError):
        residue_factorization(f, -1.0)


def _synthetic_division(coeffs, root):
    """Quotient of the ascending polynomial ``coeffs`` by ``(s - root)``,
    one Horner step per coefficient."""
    c = np.asarray(coeffs, dtype=complex)
    out = np.zeros(c.size - 1, dtype=complex)
    acc = c[-1]
    for i in range(c.size - 2, -1, -1):
        out[i] = acc
        acc = c[i] + acc * root
    return out


def test_residue_factorization_matches_synthetic_division(rng):
    # the deflations by the computed pole and by the nearest zero, real or
    # complex, agree with a Horner loop up to the rounding of its products
    poly = np.polynomial.polynomial
    eps = np.finfo(float).eps
    for draw in range(60):
        poles = np.array([-4.0, -1.5, 0.5, 2.0, 3.5])[: 3 + draw % 3]
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(0.1, 2.0) * (draw % 2))
        zeros = [z, z.conjugate()] if z.imag else [z.real]
        f = RationalTransferFunction(np.real(poly.polyfromroots(zeros)),
                                     poly.polyfromroots(poles))
        residue, _, r = residue_factorization(f, float(poles[draw % poles.size]))
        roots, zs = f.poles(), f.zeros()
        pole = roots[np.abs(roots - poles[draw % poles.size]).argmin()]
        q = zs[np.abs(zs - pole).argmin()]
        den_at = poly.polyval(pole, _synthetic_division(f.den, pole))
        ref_residue = poly.polyval(pole, f.num) / den_at
        ref_r = poly.polyval(pole, _synthetic_division(f.num, q)) / den_at
        assert abs(residue - ref_residue) <= 8 * eps * abs(ref_residue)
        assert abs(r - ref_r) <= 8 * eps * abs(ref_r)


def test_residue_scales_linearly_with_gap():
    # residue at p scales linearly in the pole-zero gap gamma
    p = 2.0
    vals = {}
    for gamma in (1e-1, 1e-3):
        q = p + gamma
        num = np.real(np.polynomial.polynomial.polyfromroots([q, -3.0]))
        den = np.real(np.polynomial.polynomial.polyfromroots([p, -1.0, -2.0]))
        f = RationalTransferFunction(num, den)
        residue, gap, r = residue_factorization(f, p)
        vals[gamma] = residue / (-gamma)  # gap = p - q = -gamma
    assert vals[1e-1] == pytest.approx(vals[1e-3], rel=2e-2)
    # and the remainder r converges as gamma -> 0 (linearity check)
    assert abs(vals[1e-3]) > 0


def test_lemma_identity_random(rng):
    checked = 0
    while checked < 30:
        poles = np.sort(rng.uniform(-5.0, 5.0, 4))
        if np.min(np.diff(poles)) < 0.3:
            continue
        zeros = rng.uniform(-5.0, 5.0, 2)
        p = float(poles[rng.integers(0, 4)])
        if np.min(np.abs(zeros - p)) < 1e-3:
            continue
        num = np.real(np.polynomial.polynomial.polyfromroots(zeros)) * rng.uniform(0.5, 2.0)
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        f = RationalTransferFunction(num, den)
        residue, gap, r = residue_factorization(f, p)
        assert residue == pytest.approx(gap * r, rel=1e-8)
        checked += 1


def test_nearest_zero_gap_examples():
    f = rtf([-0.9, 1.0], [-2.0, 1.0, 1.0])
    assert nearest_zero_gap(f, 1.0) == pytest.approx(0.1)
    f2 = rtf([1.0], [1.0, 1.0])
    assert math.isinf(nearest_zero_gap(f2, -1.0))


def test_nearest_zero_gap_benchmark_plant():
    from ctred.benchmarks import bench_balanced_vs_modal_pair

    g, _ = bench_balanced_vs_modal_pair()
    f = to_rational(g)
    zs = f.zeros()
    ps = f.poles()
    # oracle: direct root computation on the printed polynomials
    zs_ref = np.roots([-1.74, -7.63, -8.37])
    p0 = ps[0]
    expected = float(np.min(np.abs(zs_ref - p0)))
    assert nearest_zero_gap(f, p0) == pytest.approx(expected, rel=1e-9)


def test_probe_zero_scale_collapses_zeros():
    pf = PartialFraction(((complex(1.0), 1, complex(0.3)),
                          (complex(-2.0), 1, complex(1.0))))
    ok, zs = small_block_cancellation_probe(pf, 1.0, 0.0, 0.5)
    assert ok
    assert np.min(np.abs(zs - 1.0)) < 1e-12


def test_probe_small_scale_zero_approaches_pole():
    pf = PartialFraction(((complex(1.0), 1, complex(0.3)),
                          (complex(-2.0), 1, complex(1.0))))
    last = np.inf
    for scale in (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        ok, zs = small_block_cancellation_probe(pf, 1.0, scale, 2.9)
        dist = float(np.min(np.abs(zs - 1.0)))
        assert dist <= last + 1e-12
        last = dist
    # closed form: the zero of 0.3 s/(s-1)... sits at scale-dependent spot
    ok, zs = small_block_cancellation_probe(pf, 1.0, 1e-6, 0.5)
    assert ok


def test_probe_radius_error():
    # remainder 1/(s+2) + 1/(s+3) has a numerator root at -2.5, so the
    # probe radius around the pole at 1 must stay below 3.5
    pf = PartialFraction(((complex(1.0), 1, complex(0.3)),
                          (complex(-2.0), 1, complex(1.0)),
                          (complex(-3.0), 1, complex(1.0))))
    with pytest.raises(RadiusError):
        small_block_cancellation_probe(pf, 1.0, 0.5, 10.0)
    ok, _ = small_block_cancellation_probe(pf, 1.0, 0.5, 3.0)  # inside: fine


def test_probe_rejects_unknown_pole():
    pf = PartialFraction(((complex(-2.0), 1, complex(1.0)),))
    with pytest.raises(DimensionError):
        small_block_cancellation_probe(pf, 3.0, 0.5, 0.1)


def test_probe_bisection_finds_threshold(rng):
    # shrinking the coefficients far enough always collapses the zeros
    for trial in range(5):
        poles = [-1.0 - trial, -3.5, 1.5 + 0.2 * trial]
        den = np.real(np.polynomial.polynomial.polyfromroots(poles))
        num = rng.uniform(0.5, 1.5, 2)
        f = RationalTransferFunction(num, den)
        pf = partial_fractions(f)
        p = poles[0]
        rest = [t for t in pf.terms if abs(t[0] - p) > 1e-6]
        u_roots = []
        from ctred.polezero import _terms_to_rational
        from ctred import linalg

        u, _ = _terms_to_rational(rest)
        if u.size > 1:
            u_roots = linalg.poly_roots(u)
        dmin = min((abs(p - z) for z in np.atleast_1d(u_roots)), default=np.inf)
        eps = min(0.3, 0.5 * dmin)
        scale = 1.0
        for _ in range(60):
            ok, _zs = small_block_cancellation_probe(pf, p, scale, eps)
            if ok:
                break
            scale *= 0.5
        else:
            pytest.fail("no collapsing scale found")
