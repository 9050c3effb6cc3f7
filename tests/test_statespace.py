import numpy as np
import pytest
import scipy.linalg as sla

from conftest import criterion_07_triples, transfer_close
from ctred import linalg
from ctred.benchmarks import bench_balanced_vs_modal_pair, bench_unstable_pair
from ctred.decompose import split_stable_unstable
from ctred.errors import DimensionError, NonFiniteError, NotStabilizingError
from ctred.statespace import (
    StateSpaceSystem,
    _stabilizing_four_block,
    add,
    check_minimal,
    closed_loop_matrix,
    four_block,
    frequency_response,
    is_internally_stable,
    make_system,
    negate,
    poles,
    sensitivity_pair,
    series,
    zero_system,
    zeros,
)
from ctred.tolerances import inf_norm

FIRST_ORDER = make_system([[-1.0]], [[1.0]], [[1.0]])


def lag(pole: float, gain: float = 1.0) -> StateSpaceSystem:
    return make_system([[pole]], [[1.0]], [[gain]])


def test_make_system_first_order():
    s = make_system([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    assert (s.n, s.m, s.p) == (1, 1, 1) and s.is_siso


def test_make_system_benchmark_plant():
    g, _ = bench_balanced_vs_modal_pair()
    assert (g.n, g.m, g.p) == (3, 1, 1)
    assert g.strictly_proper


def test_make_system_copies_the_caller_arrays():
    # a system owns its arrays: the caller's stay writeable, and writing
    # to them leaves the system unchanged
    a = np.array([[-1.0, 0.5], [0.0, -2.0]])
    b, c = np.array([[1.0], [1.0]]), np.array([[1.0, 0.0]])
    for s in (make_system(a, b, c), StateSpaceSystem(a, b, c, np.zeros((1, 1)))):
        assert a.flags.writeable and b.flags.writeable and c.flags.writeable
        assert not s.A.flags.writeable
        a[0, 0], b[1, 0], c[0, 1] = -5.0, 3.0, 2.0
        assert (s.A[0, 0], s.B[1, 0], s.C[0, 1]) == (-1.0, 1.0, 0.0)
        a[0, 0], b[1, 0], c[0, 1] = -1.0, 1.0, 0.0


def test_make_system_converts_each_matrix_once(monkeypatch):
    # the omitted D is built by the system from its converted B and C
    calls = []
    as_matrix = linalg.as_matrix

    def counting(a, name="matrix"):
        calls.append(name)
        return as_matrix(a, name)

    monkeypatch.setattr(linalg, "as_matrix", counting)
    s = make_system([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]], [[1.0, 0.0]])
    assert calls == ["A", "B", "C"]
    assert s.D.shape == (1, 1) and not s.D.any() and not s.D.flags.writeable


def test_systems_compare_and_hash_by_identity():
    # equal matrices built anew make a distinct system; every system can
    # key a dict, as the certificates' caches key their analyses
    g, k = bench_balanced_vs_modal_pair()
    s, t = lag(-1.0), lag(-1.0)
    assert s != t and s == s and g != k
    assert {s: 0, t: 1, g: 2, k: 3}[t] == 1
    assert len({s, t, g, k, s}) == 4


@pytest.mark.parametrize("build", [
    lambda: StateSpaceSystem(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 3))),
    lambda: StateSpaceSystem(-np.eye(2), np.ones((2, 1)), np.ones((1, 3))),
    lambda: StateSpaceSystem(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((2, 1))),
    lambda: series(lag(-1.0), make_system(-np.eye(1), np.ones((1, 1)), np.ones((2, 1)))),
    lambda: four_block(lag(-1.0), lag(-2.0)).block(2, 0),
], ids=["non-square A", "C width", "D shape", "series mismatch", "four-block index"])
def test_construction_and_interconnection_refuse_mismatched_shapes(build):
    with pytest.raises(DimensionError):
        build()


def test_make_system_rejects_mismatched_b():
    with pytest.raises(DimensionError):
        make_system([[-1.0]], [[1.0], [2.0]], [[1.0]])


def test_make_system_rejects_nan():
    with pytest.raises(NonFiniteError):
        make_system([[np.nan]], [[1.0]], [[1.0]])


def test_add_zero_identity():
    s = FIRST_ORDER
    assert transfer_close(add(s, zero_system(1, 1)), s)


def test_add_split_reassembles_benchmark_controller():
    from ctred.decompose import split_stable_unstable

    _, k = bench_balanced_vs_modal_pair()
    split = split_stable_unstable(k)
    assert transfer_close(add(split.stable_part, split.unstable_part), k, 1e-8)


def test_add_partial_fractions():
    s = add(lag(-1.0), lag(-2.0))
    # (2s+3)/((s+1)(s+2)) in companion form
    target = make_system([[0.0, 1.0], [-2.0, -3.0]], [[0.0], [1.0]], [[3.0, 2.0]])
    assert transfer_close(s, target)


def test_add_associative_commutative(rng):
    from ctred.gen import random_stable_minimal

    s1 = random_stable_minimal(rng, 2)
    s2 = random_stable_minimal(rng, 3)
    s3 = random_stable_minimal(rng, 2)
    assert transfer_close(add(s1, s2), add(s2, s1))
    assert transfer_close(add(add(s1, s2), s3), add(s1, add(s2, s3)))


def test_add_dimension_mismatch():
    with pytest.raises(DimensionError):
        add(FIRST_ORDER, zero_system(2, 1))


def test_closed_loop_matrix_first_order():
    g = lag(-1.0)
    k = lag(-2.0, -1.0)
    acl = closed_loop_matrix(g, k)
    assert np.allclose(acl, [[-1.0, -1.0], [1.0, -2.0]])
    ev = np.sort_complex(np.linalg.eigvals(acl))
    assert np.allclose(ev, [-1.5 - 0.8660254j, -1.5 + 0.8660254j], atol=1e-6)


def test_closed_loop_matrix_benchmark():
    g, k = bench_balanced_vs_modal_pair()
    ev = np.sort_complex(np.linalg.eigvals(closed_loop_matrix(g, k)))
    oracle = np.sort_complex(
        np.linalg.eigvals(np.block([[g.A, g.B @ k.C], [k.B @ g.C, k.A]]))
    )
    assert np.allclose(ev, oracle)


def test_closed_loop_zero_gain_controller():
    g, _ = bench_balanced_vs_modal_pair()
    k0 = make_system(np.diag([-3.0, -4.0]), [[1.0], [1.0]], [[0.0, 0.0]])
    ev = np.sort_complex(np.linalg.eigvals(closed_loop_matrix(g, k0)))
    expected = np.sort_complex(
        np.concatenate([np.linalg.eigvals(g.A), [-3.0, -4.0]])
    )
    assert np.allclose(ev, expected, atol=1e-10)


def test_is_internally_stable_benchmarks():
    g, k = bench_balanced_vs_modal_pair()
    stable, alpha = is_internally_stable(g, k)
    assert stable and alpha < 0
    g2, k2 = bench_unstable_pair()
    stable2, _ = is_internally_stable(g2, k2)
    assert stable2


def test_is_internally_stable_open_loop_unstable():
    g = lag(1.0)
    k0 = make_system([[-1.0]], [[1.0]], [[0.0]])  # zero-gain controller
    stable, alpha = is_internally_stable(g, k0)
    assert not stable and alpha > 0


def test_four_block_zero_controller():
    g, _ = bench_balanced_vs_modal_pair()
    k0 = make_system([[-1.0]], [[1.0]], [[0.0]])
    fb = four_block(g, k0)
    assert transfer_close(fb.x, g)
    for i, j in ((0, 1), (1, 0), (1, 1)):
        blk = fb.block(i, j)
        ws = np.logspace(-2, 2, 50)
        assert np.max(np.abs(frequency_response(blk, ws))) < 1e-12


def test_four_block_poles_inside_closed_loop():
    g, k = bench_balanced_vs_modal_pair()
    fb = four_block(g, k)
    acl_ev = np.sort_complex(np.linalg.eigvals(closed_loop_matrix(g, k)))
    fb_ev = np.sort_complex(np.linalg.eigvals(fb.system.A))
    assert np.allclose(acl_ev, fb_ev)
    assert linalg.spectral_abscissa(fb.system.A) < 0


def test_four_block_pointwise_oracle():
    # block (1,1) equals (I - G K)^{-1} G by direct complex arithmetic
    g, k = bench_balanced_vs_modal_pair()
    fb = four_block(g, k)
    ws = np.logspace(-3, 3, 1000)
    for w in ws[:: 25]:
        gv = g.eval(1j * w)
        kv = k.eval(1j * w)
        expected = np.linalg.solve(np.eye(1) - gv @ kv, gv)
        got = fb.x.eval(1j * w)
        assert np.max(np.abs(expected - got)) <= 1e-8 * max(1.0, abs(expected[0, 0]))


def test_sensitivity_pair_zero_controller():
    g, _ = bench_balanced_vs_modal_pair()
    k0 = make_system([[-1.0]], [[1.0]], [[0.0]])
    y, x = sensitivity_pair(g, k0)
    assert transfer_close(x, g)
    ws = np.logspace(-2, 2, 50)
    assert np.max(np.abs(frequency_response(y, ws) - 1.0)) < 1e-12


def test_sensitivity_pair_benchmark():
    from ctred.norms import hinf_norm

    g, k = bench_balanced_vs_modal_pair()
    y, x = sensitivity_pair(g, k)
    assert np.isfinite(hinf_norm(x))
    acl_ev = np.sort_complex(np.linalg.eigvals(closed_loop_matrix(g, k)))
    x_ev = np.sort_complex(np.linalg.eigvals(x.A))
    assert np.allclose(acl_ev, x_ev)


def test_sensitivity_identity_on_grid():
    g, k = bench_balanced_vs_modal_pair()
    y, x = sensitivity_pair(g, k)
    ws = np.concatenate([[0.0], np.logspace(-3, 3, 200)])
    for w in ws:
        lhs = y.eval(1j * w) - x.eval(1j * w) @ k.eval(1j * w)
        assert np.max(np.abs(lhs - np.eye(1))) <= 1e-8


def test_sensitivity_pair_requires_stabilizing():
    g = lag(1.0)
    k0 = make_system([[-1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NotStabilizingError):
        sensitivity_pair(g, k0)


def test_loop_stability_verdicts_differ_only_within_rounding(monkeypatch):
    # the certificates' loop test reads the spectrum off one Schur form of
    # the closed-loop matrix, is_internally_stable reads geev's; both
    # abscissas agree to rounding, so with the threshold a hair to either
    # side of the abscissa the two verdicts agree
    for g, k, _ in criterion_07_triples(20):
        acl = closed_loop_matrix(g, k)
        alpha = is_internally_stable(g, k)[1]
        band = 1e-10 * inf_norm(acl)
        assert abs(linalg._real_schur(acl)[2].real.max() - alpha) <= 1e-3 * band
        monkeypatch.setenv("CTRED_TOL_STAB", repr(-alpha - band))
        assert is_internally_stable(g, k)[0]
        _stabilizing_four_block(g, k)
        monkeypatch.setenv("CTRED_TOL_STAB", repr(-alpha + band))
        assert not is_internally_stable(g, k)[0]
        with pytest.raises(NotStabilizingError):
            _stabilizing_four_block(g, k)


def test_stabilizing_four_block_is_the_loop_on_its_schur_form():
    # (T, Z^T B, C Z) on one real Schur form of the closed-loop matrix: the
    # same four blocks up to rounding, the poles read off T
    for g, k in (bench_balanced_vs_modal_pair(), bench_unstable_pair()):
        fb = _stabilizing_four_block(g, k)
        ref = four_block(g, k)
        assert linalg._is_real_schur(fb.system.A)
        assert (fb.system._poles.tobytes()
                == linalg._block_eigenvalues(fb.system.A).tobytes())
        for i in (0, 1):
            for j in (0, 1):
                assert transfer_close(fb.block(i, j), ref.block(i, j))


def _same_array(x, y) -> bool:
    """Both ``None``, or the same dtype, shape and bytes."""
    if x is None or y is None:
        return x is y
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_poles_follow_one_rule_and_are_read_only(rng):
    # the spectrum of the Schur diagonal when A is in real Schur form, one
    # eigen-solve otherwise, bit for bit; the form and the poles a system
    # holds cannot be written
    blocks = 0
    for draw in range(130):
        n = draw % 13
        a = rng.standard_normal((n, n))
        on_form = draw % 2 == 1 or n < 2
        if draw % 2:
            a = sla.schur(a, output="real")[0]
            blocks += bool(np.any(np.diagonal(a, -1)))
        assert linalg._is_real_schur(a) == on_form
        s = StateSpaceSystem(a, rng.standard_normal((n, 2)), rng.standard_normal((1, n)))
        rule = linalg._block_eigenvalues if on_form else linalg.eigenvalues
        assert _same_array(s._poles, rule(a))
        t, z, ev = s._schur
        assert (z is None) == on_form
        if n:
            for held in (s._poles, t, z, ev):
                if held is not None:
                    with pytest.raises(ValueError):
                        held[0] = 1.0
    assert blocks > 20


def test_systems_created_holding_a_form_match_fresh_ones(rng):
    # the loop on its Schur form and its blocks, the parts of a split, a
    # negated system and the sum of two Schur forms are created holding a
    # form and poles: the arrays a fresh system on the same matrices derives
    held = []
    for g, k in (bench_balanced_vs_modal_pair(), bench_unstable_pair()):
        fb = _stabilizing_four_block(g, k)
        held += [fb.system, fb.x, fb.xk, fb.kx, fb.ky, fb.y]
        split = split_stable_unstable(k)
        stable, unstable = split.stable_part, split.unstable_part
        held += [stable, unstable, negate(unstable), add(stable, unstable)]
    dense = make_system(rng.standard_normal((5, 5)), rng.standard_normal((5, 2)),
                        rng.standard_normal((1, 5)))
    assert dense._schur[1] is not None  # its negation holds the gees form
    held.append(negate(dense))
    for s in held:
        fresh = StateSpaceSystem(s.A, s.B, s.C, s.D)
        names = [name for name in ("schur", "poles") if name in s._held]
        assert "schur" in names
        for name in names:
            mine, theirs = getattr(s, "_" + name), getattr(fresh, "_" + name)
            pairs = zip(mine, theirs) if name == "schur" else [(mine, theirs)]
            for x, y in pairs:
                assert _same_array(x, y)
                assert x is None or not x.flags.writeable


def test_check_minimal_benchmark_controller():
    _, k = bench_balanced_vs_modal_pair()
    assert check_minimal(k)


def test_check_minimal_constructed_defect():
    # duplicated mode with zero input row: uncontrollable
    s = make_system(np.diag([-1.0, -1.0]), [[1.0], [0.0]], [[1.0, 1.0]])
    result = check_minimal(s)
    assert not result.minimal
    assert result.controllability_rank == 1


def test_check_minimal_random_canonical(rng):
    den = np.array([1.0, 5.0, 9.0, 7.0, 3.0, 0.5])  # stable-ish, any works
    n = 5
    a = np.zeros((n, n))
    a[:-1, 1:] = np.eye(n - 1)
    a[-1, :] = -den[::-1][:-1]
    b = np.zeros((n, 1))
    b[-1, 0] = 1.0
    c = rng.uniform(0.5, 1.5, (1, n))
    t = rng.standard_normal((n, n)) + 3 * np.eye(n)
    s = make_system(
        t @ a @ np.linalg.inv(t), t @ b, c @ np.linalg.inv(t)
    )
    assert check_minimal(s)


def test_poles_and_zeros():
    s = lag(-1.0)
    assert np.allclose(poles(s), [-1.0])
    assert zeros(s).size == 0
    # (s+1)/((s+2)(s+3))
    from ctred.rational import RationalTransferFunction

    f = RationalTransferFunction([1.0, 1.0], np.array([6.0, 5.0, 1.0]))
    s2 = f.to_statespace()
    assert np.allclose(np.sort(zeros(s2).real), [-1.0])


def test_benchmark_plant_poles_zeros():
    g, _ = bench_balanced_vs_modal_pair()
    ps = poles(g)
    assert ps.size == 3
    zs = zeros(g)
    # oracle: quadratic formula on the numerator coefficients
    expected = np.roots([-1.74, -7.63, -8.37])
    assert np.allclose(np.sort_complex(zs), np.sort_complex(expected), atol=1e-8)


def test_series_realization():
    s1 = lag(-1.0)
    s2 = lag(-2.0)
    prod = series(s2, s1)
    ws = np.logspace(-2, 2, 50)
    for w in ws:
        expected = s2.eval(1j * w) @ s1.eval(1j * w)
        assert np.max(np.abs(prod.eval(1j * w) - expected)) < 1e-12


def test_four_block_random_pole_subset(rng):
    from ctred.gen import generate_instance

    for seed in (11, 12, 13):
        g, k = generate_instance(4, 1, seed)
        fb = four_block(g, k)
        acl = np.sort_complex(np.linalg.eigvals(closed_loop_matrix(g, k)))
        fbe = np.sort_complex(np.linalg.eigvals(fb.system.A))
        assert np.max(np.abs(acl - fbe)) < 1e-8


def test_frequency_response_matches_pointwise_eval(rng, monkeypatch):
    from ctred import statespace
    from ctred.gen import random_stable_minimal

    mimo = random_stable_minimal(rng, 6, m=2, p=3)
    mimo = StateSpaceSystem(mimo.A, mimo.B, mimo.C, rng.uniform(-1.0, 1.0, (3, 2)))
    static = make_system(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)),
                         rng.uniform(-1.0, 1.0, (3, 2)))
    # a work-array budget of 32 frequencies of the 6-state system, plus a
    # remainder that the chunk size rounds away: the long sweep spans four
    # stacked solves, the last one partial
    monkeypatch.setattr(statespace, "_RESPONSE_BUDGET", 32 * 6 * 6 + 7)
    short = np.array([0.0, 0.3, 7.0])
    long = np.concatenate([[0.0], np.logspace(-3, 3, 3 * 32 + 5)])
    cases = [
        (static, short),
        (random_stable_minimal(rng, 4), short),
        (mimo, short),
        (mimo, long),
    ]
    solve = np.linalg.solve
    for s, ws in cases:
        batches = []

        def counted(a, b):
            batches.append(a.shape[0])
            return solve(a, b)

        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "solve", counted)
            got = frequency_response(s, ws)
        ref = np.array([s.eval(1j * w) for w in ws])
        assert got.shape == (ws.size, s.p, s.m)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        if s is mimo and ws is long:
            assert batches == [32, 32, 32, 6]


def _random_system(rng, n, p, m, proper=False):
    """Random realization of order ``n`` (stability does not matter here)."""
    d = np.zeros((p, m)) if proper else rng.uniform(-1.0, 1.0, (p, m))
    return StateSpaceSystem(rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-1.0, 1.0, (n, m)),
                            rng.uniform(-1.0, 1.0, (p, n)), d)


def _assert_held(s, a, b, c, d):
    """``s`` is exactly ``(a, b, c, d)`` and owns read-only arrays."""
    for got, want in zip((s.A, s.B, s.C, s.D), (a, b, c, d)):
        assert got.shape == want.shape and np.array_equal(got, want)
        assert not got.flags.writeable


@pytest.mark.parametrize("n1, n2, zero", [(3, 0, False), (0, 2, False), (0, 0, False),
                                           (0, 0, True)])
def test_interconnections_with_order_zero_sides_match_np_block(rng, n1, n2, zero):
    # np.block is the reference; the package assembles the same matrices
    # by slice writes into one zero array.  ``zero`` builds every system
    # with zero_system (order 0, zero D)
    def system(n, p, m, proper=False):
        return zero_system(p, m) if zero else _random_system(rng, n, p, m, proper)

    z12, z21 = np.zeros((n1, n2)), np.zeros((n2, n1))
    s1, s2 = system(n1, 2, 2), system(n2, 2, 2)
    _assert_held(add(s1, s2), np.block([[s1.A, z12], [z21, s2.A]]),
                 np.vstack([s1.B, s2.B]), np.hstack([s1.C, s2.C]), s1.D + s2.D)
    _assert_held(series(s2, s1), np.block([[s1.A, z12], [s2.B @ s1.C, s2.A]]),
                 np.vstack([s1.B, s2.B @ s1.D]), np.hstack([s2.D @ s1.C, s2.C]),
                 s2.D @ s1.D)

    # plant 2 x 1 of order n1, controller 1 x 2 of order n2
    g, k = system(n1, 2, 1, proper=True), system(n2, 1, 2, proper=True)
    acl = np.block([[g.A, g.B @ k.C], [k.B @ g.C, k.A]])
    assert np.array_equal(closed_loop_matrix(g, k), acl)
    fb = four_block(g, k)
    _assert_held(fb.system, acl,
                 np.block([[g.B, np.zeros((n1, 2))], [np.zeros((n2, 1)), k.B]]),
                 np.block([[g.C, np.zeros((2, n2))], [np.zeros((1, n1)), k.C]]),
                 np.zeros((3, 3)))


def test_four_block_map_holds_its_blocks():
    g, k = bench_balanced_vs_modal_pair()
    fb = four_block(g, k)
    for name in ("x", "xk", "kx", "ky", "y"):
        assert getattr(fb, name) is getattr(fb, name)
