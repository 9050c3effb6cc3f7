import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as sla

from ctred.benchmarks import bench_balanced_vs_modal_pair, bench_unstable_pair
from ctred.errors import AxisPoleError, StabilityError, UnsupportedError
from ctred.gen import random_stable_minimal
from ctred.norms import _initial_grid, h2_norm, hinf_norm, l2_norm, linf_norm
from ctred.statespace import (
    StateSpaceSystem,
    four_block,
    frequency_response,
    make_system,
    series,
    zero_system,
)
from ctred.tolerances import HAM_AXIS, HINF_MAX_ITER, HINF_REL
from ctred import linalg


def lag(pole, gain=1.0):
    return make_system([[pole]], [[1.0]], [[gain]])


from conftest import grid_peak_oracle as grid_peak


def test_h2_first_order():
    assert abs(h2_norm(lag(-1.0)) - 1.0 / np.sqrt(2.0)) < 1e-12


def test_h2_zero_system():
    assert h2_norm(zero_system(1, 1)) == 0.0
    assert h2_norm(make_system([[-1.0]], [[1.0]], [[0.0]])) == 0.0


def test_h2_benchmark_cost():
    g, k = bench_balanced_vs_modal_pair()
    j = h2_norm(four_block(g, k).system) ** 2
    assert abs(j - 8.0552) <= 0.01 * 8.0552


def test_h2_rejects_feedthrough_and_unstable():
    with pytest.raises(UnsupportedError):
        h2_norm(make_system([[-1.0]], [[1.0]], [[1.0]], [[1.0]]))
    with pytest.raises(StabilityError):
        h2_norm(lag(1.0))


def test_h2_gramian_symmetry(rng):
    # trace(C Wc C') == trace(B' Wo B)
    for _ in range(10):
        s = random_stable_minimal(rng, int(rng.integers(2, 7)))
        wc = linalg.solve_lyapunov(s.A, s.B @ s.B.T)
        wo = linalg.solve_lyapunov(s.A.T, s.C.T @ s.C)
        v1 = float(np.trace(s.C @ wc @ s.C.T))
        v2 = float(np.trace(s.B.T @ wo @ s.B))
        assert abs(v1 - v2) <= 1e-9 * max(1.0, abs(v1))


def test_hinf_first_order():
    assert abs(hinf_norm(lag(-1.0)) - 1.0) < 1e-7


def test_hinf_static_gain():
    s = make_system(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.0]])
    assert abs(hinf_norm(s) - 2.0) < 1e-12
    s2 = make_system([[-1.0]], [[1.0]], [[0.0]], [[2.0]])
    assert abs(hinf_norm(s2) - 2.0) < 1e-8


def test_hinf_benchmark_modal_error():
    from ctred.decompose import split_stable_unstable
    from ctred.reduce import modal_truncate

    g, k = bench_balanced_vs_modal_pair()
    split = split_stable_unstable(k)
    mt = modal_truncate(split.stable_part, 1)
    val = hinf_norm(mt.delta)
    assert abs(val - 0.0580) <= 0.05 * 0.0580


def test_hinf_unstable_guidance():
    with pytest.raises(StabilityError, match="linf"):
        hinf_norm(lag(1.0))


def test_linf_unstable_first_order():
    assert abs(linf_norm(lag(1.0)) - 1.0) < 1e-7


def test_linf_matches_hinf_for_stable():
    s = lag(-1.0, 2.0)
    assert abs(linf_norm(s) - hinf_norm(s)) < 1e-9


def test_linf_removed_block():
    _, k = bench_unstable_pair()
    block = make_system(k.A[2:, 2:], k.B[2:], k.C[:, 2:])
    assert abs(linf_norm(block) - 0.0628 / 0.34) < 1e-6


def test_linf_rejects_axis_pole():
    with pytest.raises(AxisPoleError):
        linf_norm(make_system([[0.0]], [[1.0]], [[1.0]]))


def test_l2_stable_equals_h2(rng):
    s = random_stable_minimal(rng, 4)
    assert abs(l2_norm(s) - h2_norm(s)) < 1e-10


def test_l2_mirror_first_order():
    assert abs(l2_norm(lag(1.0)) - 1.0 / np.sqrt(2.0)) < 1e-10


def test_l2_removed_block():
    _, k = bench_unstable_pair()
    block = make_system(k.A[2:, 2:], k.B[2:], k.C[:, 2:])
    assert abs(l2_norm(block) - 0.0628 / np.sqrt(2 * 0.34)) < 1e-9


def test_hinf_grid_oracle_agreement(rng):
    for _ in range(15):
        s = random_stable_minimal(rng, int(rng.integers(2, 9)))
        val = hinf_norm(s)
        ref = grid_peak(s)
        assert abs(val - ref) <= 1e-6 * ref


def test_h2_quadrature_oracle_agreement(rng):
    for _ in range(8):
        s = random_stable_minimal(rng, int(rng.integers(2, 7)))
        val = h2_norm(s) ** 2

        def integrand(w):
            m = s.eval(1j * w)
            return float(np.trace(m.conj().T @ m).real)

        ref, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=400)
        ref /= np.pi
        assert abs(val - ref) <= 1e-4 * ref


def test_submultiplicative_properties(rng):
    for _ in range(10):
        g1 = random_stable_minimal(rng, 3)
        g2 = random_stable_minimal(rng, 3)
        prod = series(g1, g2)
        assert hinf_norm(prod) <= hinf_norm(g1) * hinf_norm(g2) + 1e-9
        assert h2_norm(prod) <= hinf_norm(g1) * h2_norm(g2) + 1e-9


def test_small_gain_bound(rng):
    for _ in range(10):
        g1 = random_stable_minimal(rng, 3)
        g2 = random_stable_minimal(rng, 2)
        n1, n2 = hinf_norm(g1), hinf_norm(g2)
        scale = 0.5 / (n1 * n2)
        g1s = make_system(g1.A, g1.B, scale * g1.C)
        prod = series(g1s, g2)
        # (I - G1 G2)^{-1} realized through feedback of the product
        a_fb = prod.A + prod.B @ prod.C
        inv = make_system(a_fb, prod.B, prod.C, [[1.0]])
        lhs = hinf_norm(inv)
        rhs = 1.0 / (1.0 - hinf_norm(g1s) * hinf_norm(g2))
        assert lhs <= rhs + 1e-9


def test_triangle_inequality(rng):
    from ctred.statespace import add

    for _ in range(10):
        g1 = random_stable_minimal(rng, 3)
        g2 = random_stable_minimal(rng, 4)
        s = add(g1, g2)
        assert hinf_norm(s) <= hinf_norm(g1) + hinf_norm(g2) + 1e-9
        assert h2_norm(s) <= h2_norm(g1) + h2_norm(g2) + 1e-9


def test_hinf_lightly_damped_resonances(monkeypatch):
    # peaks of width zeta * w0 fall between the points of the initial grid
    from ctred import norms

    solves = []
    axis_crossings = norms._gamma_is_upper_bound

    def counted(s, gamma):
        solves.append(gamma)
        return axis_crossings(s, gamma)

    monkeypatch.setattr(norms, "_gamma_is_upper_bound", counted)
    checked = 0
    for w0 in (0.37, 3.1, 450.0):
        for zeta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            s = make_system([[0.0, 1.0], [-w0**2, -2.0 * zeta * w0]],
                            [[0.0], [1.0]], [[w0**2, 0.0]])
            solves.clear()
            try:
                val = hinf_norm(s)
            except StabilityError:
                continue  # too close to the axis for the stability tolerance
            ref = grid_peak(s)
            assert abs(val - ref) <= 1e-8 * ref, (w0, zeta, val, ref)
            # quadratic convergence: a handful of Hamiltonian eigen-solves
            assert len(solves) <= 10, (w0, zeta, len(solves))
            checked += 1
    assert checked >= 12


def _bisection_upper_bound(s: StateSpaceSystem, gamma: float) -> bool:
    a, b, c, d = s.A, s.B, s.C, s.D
    r = gamma**2 * np.eye(s.m) - d.T @ d
    try:
        rinv_bt = sla.solve(r, b.T, assume_a="pos")
        rinv_dt = sla.solve(r, d.T, assume_a="pos")
    except sla.LinAlgError:
        return False
    acl = a + b @ rinv_dt @ c
    ham = np.block(
        [
            [acl, gamma * (b @ rinv_bt)],
            [-(c.T @ (np.eye(s.p) + d @ rinv_dt) @ c) / gamma, -acl.T],
        ]
    )
    ev = np.linalg.eigvals(ham)
    axis_tol = HAM_AXIS * max(np.linalg.norm(ham, np.inf), 1e-300)
    return not np.any(np.abs(ev.real) <= axis_tol)


def _bisection_peak_gain(s: StateSpaceSystem) -> float:
    """Frozen reference: grid estimate, then doubling and Hamiltonian bisection."""
    d_gain = float(np.linalg.svd(s.D, compute_uv=False)[0])
    grid_gains = np.linalg.svd(frequency_response(s, _initial_grid(s)), compute_uv=False)
    estimate = max(float(grid_gains[:, 0].max()), d_gain)
    beta = float(np.linalg.norm(s.B))
    xi = float(np.linalg.norm(s.C))
    assert beta * xi <= 1e7 * estimate  # no grid fallback on these systems
    target = np.sqrt(beta * xi / estimate)
    sn = StateSpaceSystem(
        s.A, s.B * (target / beta), s.C * (target / xi), s.D / estimate
    )
    lo, hi = 1.0, 2.0
    for _ in range(HINF_MAX_ITER):
        if _bisection_upper_bound(sn, hi):
            break
        hi *= 2.0
    for _ in range(HINF_MAX_ITER):
        if hi - lo <= HINF_REL * lo:
            break
        mid = 0.5 * (lo + hi)
        if _bisection_upper_bound(sn, mid):
            hi = mid
        else:
            lo = mid
    return estimate * 0.5 * (lo + hi)


def test_hinf_matches_bisection_reference(rng):
    for _ in range(200):
        m, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        s = random_stable_minimal(rng, int(rng.integers(2, 9)), m=m, p=p)
        s = StateSpaceSystem(s.A, s.B, s.C, rng.uniform(-1.0, 1.0, (p, m)))
        val = hinf_norm(s)
        ref = _bisection_peak_gain(s)
        assert abs(val - ref) <= 1e-7 * ref
