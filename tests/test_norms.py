import contextlib

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as sla

from ctred.benchmarks import bench_balanced_vs_modal_pair, bench_unstable_pair
from ctred.errors import (
    AxisPoleError,
    MinimalityError,
    PartitionTieError,
    StabilityError,
    UnsupportedError,
)
from ctred.gen import random_stable_minimal, synthesize_stabilizing_plant
from ctred.norms import _initial_grid, h2_norm, hinf_norm, l2_norm, linf_norm
from ctred.reduce import balance, balanced_truncate, balanced_truncate_unstable
from ctred.statespace import (
    StateSpaceSystem,
    add,
    four_block,
    frequency_response,
    make_system,
    negate,
    series,
    zero_system,
)
from ctred.tolerances import HINF_MAX_ITER, HINF_REL
from ctred import linalg, norms


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


def _counted(mp, owner, name) -> list:
    """Patch ``owner.name`` to record its calls; returns the record."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    mp.setattr(owner, name, counted)
    return calls


def test_h2_row_blocks_share_one_gramian(rng, monkeypatch):
    # each row block's norm equals h2_norm of that block bit for bit; the
    # Gramian kernel runs once, for one right-hand side
    s = random_stable_minimal(rng, 5, m=2, p=3)
    rows = (slice(0, 1), slice(1, 3), slice(None))
    with monkeypatch.context() as mp:
        solves = _counted(mp, linalg, "_gramians")
        [got] = norms._h2_norms(s, [(slice(None), rows)])
    assert [len(args[1]) for args in solves] == [1]
    for r, value in zip(rows, got):
        assert value == h2_norm(StateSpaceSystem(s.A, s.B, s.C[r], s.D[r]))
    assert norms._h2_norms(zero_system(3, 2), [(slice(None), rows)]) == [[0.0, 0.0, 0.0]]


def _svd_sigma_max(s, ws):
    return np.linalg.svd(frequency_response(s, ws), compute_uv=False)[:, 0]


def test_sigma_max_of_vectors_matches_the_svd(rng, monkeypatch):
    # one row or one column: the 2-norm, without an SVD and without
    # overflow or underflow at extreme magnitudes
    ws = np.concatenate([[0.0], np.logspace(-3, 3, 60)])
    for p, m in ((1, 1), (1, 3), (3, 1)):
        base = random_stable_minimal(rng, 4, m=m, p=p)
        for scale in (1e-200, 1.0, 1e200):
            s = StateSpaceSystem(base.A, base.B, base.C * scale,
                                 rng.uniform(-1.0, 1.0, (p, m)) * scale)
            ref = _svd_sigma_max(s, ws)
            with monkeypatch.context() as mp:
                svd_calls = _counted(mp, np.linalg, "svd")
                got = norms._sigma_max(s, ws)
            assert not svd_calls
            assert np.all(np.isfinite(got)) and np.all(got > 0.0)
            assert np.max(np.abs(got - ref) / ref) <= 1e-15, (p, m, scale)


def test_sigma_max_of_mimo_responses_uses_the_svd(rng, monkeypatch):
    s = random_stable_minimal(rng, 4, m=2, p=2)
    ws = np.logspace(-2, 2, 20)
    with monkeypatch.context() as mp:
        svd_calls = _counted(mp, np.linalg, "svd")
        got = norms._sigma_max(s, ws)
    assert svd_calls
    assert np.array_equal(got, _svd_sigma_max(s, ws))


def test_level_at_or_below_the_feedthrough_is_never_an_upper_bound():
    # 1/(s+1) + 2 peaks at 3 (w = 0); with ||D|| = 2 a level of 1.0 or 1.9
    # has R = gamma^2 I - D^T D indefinite, so it bounds nothing
    siso = make_system([[-1.0]], [[1.0]], [[1.0]], [[2.0]])
    row = make_system([[-1.0]], [[0.6, 0.8]], [[1.0]], [[1.2, 1.6]])
    for s in (siso, row):
        for gamma in (1.0, 1.9, 2.0):
            assert np.array_equal(norms._gamma_is_upper_bound(s, gamma), [np.inf]), (s, gamma)
        assert norms._gamma_is_upper_bound(s, 2.5).size  # between ||D|| and the peak
        assert not norms._gamma_is_upper_bound(s, 3.5).size
        assert hinf_norm(s) == pytest.approx(3.0, rel=1e-8)


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
    val = hinf_norm(add(mt.reduced, negate(split.stable_part)))
    assert abs(val - 0.0580) <= 0.05 * 0.0580


def test_hinf_within_tolerance_of_a_two_state_peak():
    # the 40-digit mpmath maximisation of this system's peak gain is
    # 13.13699137070; grid_peak_oracle agrees
    s = make_system(
        [[-1.1345993450454142, 1.8958807964153308],
         [-4.791118286674378, -1.1345993450454142]],
        [[9.052398218966147, -2.0743522925518945],
         [-2.813084320093806, 1.1584232999415593]],
        [[3.608454124778282e-04, 1.7406552234719979],
         [0.97770503581460755, 0.54550959767634322]])
    assert hinf_norm(s) >= 13.13699137070 * (1 - HINF_REL)


def test_linf_of_a_nineteen_state_product_within_tolerance_of_its_peak():
    # X*delta of a criterion-07 triple (plant, controller with one
    # antistable mode, modal truncation of its stable part); a 40-digit
    # mpmath golden-section maximisation puts its peak gain at
    # 0.025082780890 (w = 0.2216)
    g = make_system(
        [[-3.36553413751557, -1.251100644914847, 0.4745105007021372,
          -0.4276768101664607, -1.304982749313335],
         [-1.2611872055847142, -2.859571023844326, -1.090985820515136,
          -0.6799556311822609, 0.026038076777636383],
         [0.4574699116500673, -1.0533004906226067, -2.593119303450277,
          -0.13081405904853247, -0.9993931706169286],
         [-0.4442963310964172, -0.6474419196256074, -0.15191057799339644,
          -3.7095315497470702, -1.130114354832972],
         [2.926717625915135, -1.3457174589592604, -0.7978415697946697,
          -0.885342057161258, -2.107858130677716]],
        [[0.12108749866848273], [-0.07628138643223603], [2.294352937758987e-05],
         [-0.02619428838590951], [-3.3395631428335353]],
        [[-0.08588042555735542, 0.03745588984893736, -0.07520467503942749,
          -0.059766775464014474, -1.6039048795303632]])
    k = make_system(
        [[-3.184707828577752, -1.3324774525540286, 0.5110030299462236,
          -0.40778644925285157, 0.0],
         [-1.3324774525540288, -2.826896504173643, -1.0766489013116238,
          -0.6628220997446618, 0.0],
         [0.5110030299462238, -1.076648901311624, -2.5462639479470908,
          -0.09357882492771842, 0.0],
         [-0.4077864492528515, -0.6628220997446614, -0.09357882492771843,
          -3.6612031008804644, 0.0],
         [0.0, 0.0, 0.0, 0.0, 0.3816268822896546]],
        [[0.835636102086359], [-0.030098276639535904], [0.6231041950258602],
         [0.6998410587740724], [0.9451763400202584]],
        [[0.9006836054822127, -0.4135630382682436, -0.21762124541590588,
          -0.2481917183844915, -0.2915088074562435]])
    k_r = make_system(
        np.diag([-4.899149624551743, -3.275087889495606, -0.8532903639494465,
                 0.3816268822896546]),
        [[0.9263950147429524], [0.07160458791101479], [0.8273177729309424],
         [0.9451763400202584]],
        [[0.0697998578711426, -0.8582856561953066, 0.575374406753383,
          -0.2915088074562435]])
    product = series(four_block(g, k).x, add(k_r, negate(k)))
    assert product.n == 19
    assert linf_norm(product) == pytest.approx(0.025082780890, rel=HINF_REL)


def test_hinf_never_below_the_grid_peak():
    # the level-set search trusts only evaluated gains, so a rounded axis
    # test cannot stop it below the peak
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = random_stable_minimal(rng, int(rng.integers(2, 8)))
        assert hinf_norm(s) >= grid_peak(s, n=20000) * (1 - 2 * HINF_REL), s


def test_hinf_starts_at_the_pole_frequencies(rng, monkeypatch):
    # a well-separated system is searched from zero, its pole frequencies
    # and their grid neighbours: no call evaluates the 201-point grid
    sizes = []
    respond = norms.frequency_response

    def counting(s, ws):
        sizes.append(np.size(ws))
        return respond(s, ws)

    monkeypatch.setattr(norms, "frequency_response", counting)
    systems = [random_stable_minimal(rng, n, m=int(rng.integers(1, 3)),
                                     p=int(rng.integers(1, 3))) for n in range(2, 8)]
    systems += [add(_resonance(1.0, w0, zeta), _resonance(0.5, 3.0 * w0, zeta))
                for w0 in (0.37, 3.1, 47.0) for zeta in (0.3, 1e-2, 1e-4)]
    for s in systems:
        sizes.clear()
        val = hinf_norm(s)
        assert sizes and max(sizes) <= 1 + 6 * s.n, (s, sizes)
        assert abs(val - grid_peak(s)) <= 1e-8 * val, s


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


@pytest.mark.parametrize("s, error", [
    (make_system([[-1.0]], [[1.0]], [[1.0]], [[0.5]]), UnsupportedError),
    (make_system([[0.0, 2.0], [-2.0, 0.0]], [[1.0], [0.0]], [[1.0, 0.0]]), AxisPoleError),
], ids=["biproper", "axis pole"])
def test_l2_refuses_feedthrough_and_axis_poles(s, error):
    with pytest.raises(error):
        l2_norm(s)


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
    solves = []
    axis_crossings = norms._gamma_is_upper_bound

    def counted(s, gamma):
        solves.append(gamma)
        return axis_crossings(s, gamma)

    monkeypatch.setattr(norms, "_gamma_is_upper_bound", counted)
    checked = 0
    for w0 in (0.37, 3.1, 450.0):
        channels = (  # SISO, and two inputs with a feedthrough
            ([[0.0], [1.0]], [[w0**2, 0.0]], None),
            ([[0.0, 0.0], [1.0, 0.5]], [[w0**2, 0.0]], [[0.0, 0.3]]),
        )
        for zeta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            for b, c, d in channels:
                s = make_system([[0.0, 1.0], [-w0**2, -2.0 * zeta * w0]], b, c, d)
                solves.clear()
                try:
                    val = hinf_norm(s)
                except StabilityError:
                    continue  # too close to the axis for the stability tolerance
                ref = grid_peak(s)
                assert abs(val - ref) <= 1e-8 * ref, (w0, zeta, s, val, ref)
                # quadratic convergence: a handful of Hamiltonian eigen-solves,
                # each level through the counted probe
                assert 1 <= len(solves) <= 10, (w0, zeta, s, len(solves))
                checked += 1
    assert checked >= 24


_REFERENCE_AXIS_TOL = 1e-12  # the thin axis test the bisection reference is frozen with


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
    axis_tol = _REFERENCE_AXIS_TOL * max(np.linalg.norm(ham, np.inf), 1e-300)
    return not np.any(np.abs(ev.real) <= axis_tol)


def _bisection_peak_gain(s: StateSpaceSystem) -> float:
    """Frozen reference: grid estimate, then doubling and Hamiltonian bisection."""
    d_gain = float(np.linalg.svd(s.D, compute_uv=False)[0])
    grid_gains = np.linalg.svd(frequency_response(s, _initial_grid(s, linalg.eigenvalues(s.A))), compute_uv=False)
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


# -- grid fallback for realizations that nearly cancel ----------------------

FALLBACK_BUDGET = 3000  # frequencies per fallback call; the dense sweep took 11,625


@contextlib.contextmanager
def _recorded_fallback():
    """Record every grid-fallback call as (system, value, frequencies evaluated)."""
    calls = []
    evaluated = []
    refine, respond = norms._refined_grid_peak, norms.frequency_response

    def counting(s, ws):
        evaluated.append(np.size(ws))
        return respond(s, ws)

    def recording(s, ws, gains, ev):
        evaluated.clear()
        value = refine(s, ws, gains, ev)
        calls.append((s, value, sum(evaluated)))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "frequency_response", counting)
        mp.setattr(norms, "_refined_grid_peak", recording)
        yield calls


def _dense_grid_peak_reference(s: StateSpaceSystem) -> float:
    """Frozen reference: the fallback's former dense sweep, 2001 points
    refined 8 times around its three largest gains (11,625 frequencies)."""

    def gains(ws):
        return np.linalg.svd(frequency_response(s, ws), compute_uv=False)[:, 0]

    coarse = _initial_grid(s, linalg.eigenvalues(s.A), points=2000)
    vals = gains(coarse)
    best = float(vals.max())
    for idx in np.argsort(vals)[::-1][:3]:
        w0 = coarse[idx]
        span = max(w0 * 0.1, coarse[1] if w0 == 0.0 else w0 * 0.01)
        for _ in range(8):
            local = np.linspace(max(w0 - span, 0.0), w0 + span, 401)
            lv = gains(local)
            j = int(np.argmax(lv))
            best = max(best, float(lv[j]))
            w0 = local[j]
            span /= 25.0
    return best


@pytest.fixture(scope="module")
def fallback_calls():
    """Fallback calls on criterion-04 balanced error systems and on the
    X*delta series of order-3 controllers whose truncation to order 2
    nearly cancels (Hankel tail below 1e-6)."""
    rng = np.random.default_rng(40401)
    found = {}
    with _recorded_fallback() as calls:
        for _ in range(1000):
            if len(calls) >= 50:
                break
            n = int(rng.integers(4, 9))
            s = random_stable_minimal(rng, n)
            r = int(rng.integers(1, n))
            try:
                balance(s)  # minimal balanced realizations only
                reduced = balanced_truncate(s, r).reduced
            except (MinimalityError, PartitionTieError):
                continue
            hinf_norm(add(reduced, negate(s)))
        found["delta"] = calls[:]
        calls.clear()
        for _ in range(1000):
            if len(calls) >= 50:
                break
            k = random_stable_minimal(rng, 3)
            try:
                bt = balanced_truncate_unstable(k, 2)
            except (MinimalityError, PartitionTieError):
                continue
            if bt.truncated_tail[0] > 1e-6:
                continue  # not nearly cancelling
            x = four_block(synthesize_stabilizing_plant(k), k).x
            linf_norm(series(x, add(bt.reduced, negate(k))))
        found["x_delta"] = calls[:]
    return found


def test_fallback_matches_dense_reference(fallback_calls):
    for family, calls in fallback_calls.items():
        assert len(calls) >= 50, family  # the switch fired on enough systems
        for s, value, _ in calls:
            ref = _dense_grid_peak_reference(s)
            assert abs(value - ref) <= 1e-5 * ref, (family, s, value, ref)


def test_fallback_frequency_budget(fallback_calls):
    # a fallback that regresses to a dense sweep fails here, not only in
    # the benchmark
    for family, calls in fallback_calls.items():
        assert calls, family
        for s, _, evaluated in calls:
            assert evaluated <= FALLBACK_BUDGET, (family, s, evaluated)


def _resonance(eps, w0, zeta):
    """eps*w0^2/(s^2 + 2 zeta w0 s + w0^2) in real modal form."""
    wd = w0 * np.sqrt(1.0 - zeta**2)
    g = w0 * np.sqrt(eps / wd)
    return make_system([[-zeta * w0, wd], [-wd, -zeta * w0]], [[0.0], [g]], [[g, 0.0]])


def _behind_cancellation(rng, w0, core):
    """``core`` plus H - H for an order-one H with poles near ``w0``, mixed by
    a random orthogonal similarity: a realization with order-one
    coefficients that reaches the small gain of ``core`` by cancellation."""
    h = w0 * np.array([[-0.4, 1.3], [-1.3, -0.4]])
    a = sla.block_diag(h, h, core.A)
    b = np.vstack([[[1.0], [0.5], [1.0], [0.5]], core.B])
    c = np.hstack([[[0.7, -1.0, -0.7, 1.0]], core.C])
    q, _ = np.linalg.qr(rng.standard_normal((a.shape[0], a.shape[0])))
    return make_system(q @ a @ q.T, q @ b, c @ q.T)


def test_fallback_hidden_resonance(rng):
    # a 6-state realization whose gain is a narrow peak of height
    # eps/(2 zeta sqrt(1 - zeta^2)), far below its coupling
    eps = 1e-9
    for w0 in (0.37, 3.1, 47.0):
        for zeta in (1e-2, 1e-3, 1e-4, 1e-5):
            s = _behind_cancellation(rng, w0, _resonance(eps, w0, zeta))
            with _recorded_fallback() as calls:
                val = hinf_norm(s)
            assert len(calls) == 1, (w0, zeta)
            assert calls[0][2] <= FALLBACK_BUDGET, (w0, zeta, calls[0][2])
            ref = eps / (2.0 * zeta * np.sqrt(1.0 - zeta**2))
            assert abs(val - ref) <= 1e-6 * ref, (w0, zeta, val, ref)


def test_fallback_resonance_beside_a_broad_gain(rng):
    # on the estimate grid the slope of a broad lag hides the resonance's
    # local maximum; the pole frequencies find it
    eps = 1e-12
    for w0 in (0.37, 3.1, 47.0):
        lag_pole = 0.1 * w0
        root = np.sqrt(3000.0 * eps * lag_pole)
        for zeta in (1e-3, 1e-4, 1e-5):
            core = add(_resonance(eps, w0, zeta),
                       make_system([[-lag_pole]], [[root]], [[root]]))
            with _recorded_fallback() as calls:
                val = hinf_norm(_behind_cancellation(rng, w0, core))
            assert len(calls) == 1, (w0, zeta)
            ref = grid_peak(core)
            assert abs(val - ref) <= 1e-5 * ref, (w0, zeta, val, ref)
