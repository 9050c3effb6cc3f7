import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import transfer_close
from ctred import linalg
from ctred.benchmarks import bench_balanced_vs_modal_pair, bench_unstable_pair
from ctred.decompose import ModalBlock, ModalDecomposition, modal_form, split_stable_unstable
from ctred.errors import (
    InfeasibleOrderError,
    MinimalityError,
    PartitionTieError,
    StabilityError,
    ZeroModeError,
)
from ctred.gen import random_antistable, random_stable_minimal
from ctred.norms import hinf_norm, linf_norm
from ctred.reduce import (
    _Split,
    _hankel_pass,
    balance,
    balanced_truncate,
    balanced_truncate_unstable,
    drop_negligible_antistable,
    minimal_realization,
    modal_truncate,
    modal_truncate_decomposition,
    mode_ranking,
    split_cancelled_unstable,
)
from ctred.statespace import add, check_minimal, make_system, mirror, negate, series
from ctred.tolerances import HSV_MINIMAL


def balanced_fixture(sigmas, b=None):
    """Directly balanced SISO system: Gramians equal diag(sigmas) exactly."""
    sigmas = np.asarray(sigmas, dtype=float)
    n = sigmas.size
    if b is None:
        b = np.ones(n)
    b = np.asarray(b, dtype=float)
    a = -np.outer(b, b) / (sigmas[:, None] + sigmas[None, :])
    return make_system(a, b[:, None], b[None, :])


def gramians(s):
    wc = linalg.solve_lyapunov(s.A, s.B @ s.B.T)
    wo = linalg.solve_lyapunov(s.A.T, s.C.T @ s.C)
    return wc, wo


def test_balance_scalar():
    s = make_system([[-1.0]], [[1.0]], [[1.0]])
    bal = balance(s)
    assert np.allclose(bal.hankel_singular_values, [0.5])
    assert abs(abs(bal.transform[0, 0]) - 1.0) < 1e-12


def test_balance_benchmark_stable_part():
    _, k = bench_balanced_vs_modal_pair()
    split = split_stable_unstable(k)
    bal = balance(split.stable_part)
    sig = bal.hankel_singular_values
    assert sig.size == 2 and sig[0] > sig[1] > 0
    wc, wo = gramians(bal.system)
    target = np.diag(sig)
    assert np.max(np.abs(wc - target)) <= 1e-7 * sig[0]
    assert np.max(np.abs(wo - target)) <= 1e-7 * sig[0]
    assert transfer_close(bal.system, split.stable_part, 1e-8)


def test_balance_random_gramian_invariant(rng):
    for _ in range(5):
        s = random_stable_minimal(rng, 5)
        bal = balance(s)
        wc, wo = gramians(bal.system)
        target = np.diag(bal.hankel_singular_values)
        scale = bal.hankel_singular_values[0]
        assert np.max(np.abs(wc - target)) <= 1e-7 * scale
        assert np.max(np.abs(wo - target)) <= 1e-7 * scale


def test_balance_requires_stability_and_minimality():
    with pytest.raises(StabilityError):
        balance(make_system([[1.0]], [[1.0]], [[1.0]]))
    dup = make_system(np.diag([-1.0, -1.0]), [[1.0], [0.0]], [[1.0, 1.0]])
    with pytest.raises(MinimalityError):
        balance(dup)


@pytest.mark.parametrize("reduce", [
    lambda: balance(make_system(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)))),
    lambda: modal_truncate_decomposition(modal_form(make_system(
        np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]])), 2),
    lambda: modal_truncate_decomposition(modal_form(make_system(
        np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]])), 0),
], ids=["balance order 0", "remove every block", "remove no block"])
def test_reductions_refuse_infeasible_orders(reduce):
    with pytest.raises(InfeasibleOrderError):
        reduce()


def test_modal_truncation_refuses_to_remove_an_unrankable_mode():
    # unrankable (NaN) modes are ranked last, so removing two of three
    # blocks reaches one of them
    one = np.ones((1, 1))
    blocks = (ModalBlock(-one, one, one, -1.0 + 0j, 1.0),
              ModalBlock(0 * one, one, one, 0j, np.nan),
              ModalBlock(0 * one, one, one, 0j, np.nan))
    md = ModalDecomposition(blocks, m=1, p=1)
    assert mode_ranking(md)[0] == 0
    with pytest.raises(ZeroModeError):
        modal_truncate_decomposition(md, 2)


def test_balance_sigma_matches_gramian_product(rng):
    s = random_stable_minimal(rng, 4)
    wc, wo = gramians(s)
    expected = np.sqrt(np.sort(np.real(np.linalg.eigvals(wc @ wo)))[::-1])
    got = balance(s).hankel_singular_values
    assert np.allclose(got, expected, rtol=1e-8)


def test_balanced_truncate_negligible_tail():
    s = balanced_fixture([1.0, 1e-5])
    res = balanced_truncate(s, 1)
    err = hinf_norm(add(res.reduced, negate(s)))
    assert err <= 2e-5 * (1 + 1e-6)
    assert res.truncated_tail == (pytest.approx(1e-5),)


def test_balanced_truncate_benchmark():
    _, k = bench_balanced_vs_modal_pair()
    split = split_stable_unstable(k)
    res = balanced_truncate(split.stable_part, 1)
    err = hinf_norm(add(res.reduced, negate(split.stable_part)))
    assert err <= 1e-5  # bundled reference: 2.6572e-6 at two-decimal precision
    assert err == pytest.approx(2.668e-6, rel=0.05)  # frozen from this implementation
    assert linalg.spectral_abscissa(res.reduced.A) < 0


def test_balanced_truncate_error_bound_random(rng):
    checked = 0
    while checked < 25:
        n = int(rng.integers(4, 9))
        s = random_stable_minimal(rng, n)
        try:
            bal = balance(s)
        except MinimalityError:
            continue
        sig = bal.hankel_singular_values
        r = int(rng.integers(1, n))
        if sig[r - 1] - sig[r] < 1e-9 * sig[0]:
            continue
        res = balanced_truncate(s, r)
        err = hinf_norm(add(res.reduced, negate(s)))
        bound = 2.0 * sum(res.truncated_tail)
        assert err <= bound + 1e-9 * sig[0]
        checked += 1


def test_balanced_truncate_tie_error():
    # skew coupling on top of a symmetric core gives an exactly twin
    # Hankel pair (both Gramians are the identity) without degeneracy
    b = np.array([[1.0], [1.0]])
    a = -0.5 * (b @ b.T) + np.array([[0.0, 2.0], [-2.0, 0.0]])
    s = make_system(a, b, b.T)
    sig = balance(s).hankel_singular_values
    assert abs(sig[0] - sig[1]) < 1e-9 * sig[0]
    with pytest.raises(PartitionTieError):
        balanced_truncate(s, 1)


def test_balanced_truncate_reads_the_stability_override(monkeypatch):
    # the order-1 truncation of poles -1 and -2 keeps a pole at -0.41:
    # stable by default, but inside an overridden half-plane tolerance of
    # 0.5, where the original system is still stable
    s = make_system([[-1.0, 2.0], [0.0, -2.0]], [[1.0], [-1.0]], [[1.0, 1.0]])
    assert balanced_truncate(s, 1).reduced.A[0, 0] == pytest.approx(-0.40859, abs=1e-5)
    monkeypatch.setenv("CTRED_TOL_STAB", "0.5")
    assert linalg.is_stable(s.A)
    with pytest.raises(StabilityError, match="lost stability"):
        balanced_truncate(s, 1)


def test_balanced_truncate_order_validation():
    s = balanced_fixture([1.0, 0.5])
    with pytest.raises(InfeasibleOrderError):
        balanced_truncate(s, 2)
    with pytest.raises(InfeasibleOrderError):
        balanced_truncate(s, 0)


def test_balance_recovers_known_hankel_values():
    # a directly balanced system with Hankel values down to 1e-9, moved out
    # of balanced coordinates by similarities of condition 10: squaring the
    # values (an eigen-solve of Wc Wo) loses the small ones, the SVD of the
    # Gramian factors keeps them
    sigma = np.array([1.0, 0.3, 1e-2, 1e-4, 1e-6, 1e-8, 1e-9])
    n = sigma.size
    s = balanced_fixture(sigma, b=np.sqrt(sigma) * np.linspace(1.0, 3.0, n))
    for seed in range(20):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        t = q @ np.diag(np.logspace(0.0, 1.0, n))
        t_inv = np.linalg.inv(t)
        moved = make_system(t @ s.A @ t_inv, t @ s.B, s.C @ t_inv)
        got = balance(moved).hankel_singular_values
        np.testing.assert_allclose(got, sigma, rtol=2e-5, err_msg=f"seed {seed}")


def test_balance_preserves_transfer_function(rng):
    s = random_stable_minimal(rng, 5)
    assert transfer_close(balance(s).system, s, 1e-9)


def test_balanced_truncate_unstable_benchmark():
    g, k = bench_balanced_vs_modal_pair()
    res = balanced_truncate_unstable(k, 2)
    assert res.reduced.n == 2
    # antistable mode preserved exactly
    ev = linalg.eigenvalues(res.reduced.A)
    assert np.min(np.abs(ev - 0.2)) < 1e-10
    # the error system is stable up to rounding-level antistable content
    assert drop_negligible_antistable(add(res.reduced, negate(k))) is not None


def test_balanced_truncate_unstable_stable_input_matches_plain(rng):
    s = random_stable_minimal(rng, 4)
    r1 = balanced_truncate(s, 2)
    r2 = balanced_truncate_unstable(s, 2)
    assert transfer_close(r1.reduced, r2.reduced, 1e-9)


def test_balanced_truncate_unstable_preserves_spectrum(rng):
    k = add(random_stable_minimal(rng, 4), random_antistable(rng, 1))
    res = balanced_truncate_unstable(k, k.n - 1)
    ev_k = linalg.eigenvalues(k.A)
    unstable_k = np.sort_complex(ev_k[ev_k.real > 0])
    ev_r = linalg.eigenvalues(res.reduced.A)
    unstable_r = np.sort_complex(ev_r[ev_r.real > 0])
    assert unstable_r.size == unstable_k.size
    assert np.max(np.abs(unstable_r - unstable_k)) < 1e-10


def test_balanced_truncate_unstable_infeasible_order():
    _, k = bench_balanced_vs_modal_pair()
    with pytest.raises(InfeasibleOrderError):
        balanced_truncate_unstable(k, 0)  # cannot drop the antistable part
    with pytest.raises(InfeasibleOrderError):
        balanced_truncate_unstable(k, 3)  # no reduction


def test_modal_truncate_zero_residue_block():
    # an exactly zero output column silences the mode at -2; removing the
    # silent block leaves the transfer function untouched
    from ctred.reduce import modal_truncate_decomposition

    s = make_system(np.diag([-1.0, -2.0, -3.0]),
                    [[1.0], [1.0], [1.0]], [[1.0, 0.0, 2.0]])
    for res in (modal_truncate_decomposition(modal_form(s), 1), modal_truncate(s, 1)):
        assert res.reduced.n == 2
        assert transfer_close(res.reduced, s, 1e-9)
        assert res.truncated_tail == (0.0,)


def test_modal_truncate_removes_planted_hidden_modes_first():
    # -3 is uncontrollable (zero input row), +2 unobservable (zero output column)
    k = make_system(np.diag([-1.0, -3.0, 2.0, -5.0]),
                    [[1.0], [0.0], [1.0], [0.5]], [[1.0, 1.0, 0.0, 2.0]])
    res = modal_truncate(k, 2)
    assert res.reduced.n == 2
    assert res.truncated_tail == (0.0, 0.0)
    assert transfer_close(res.reduced, k)


def test_modal_truncate_pbh_minimal_system_the_krylov_test_rejects(rng):
    # distinct poles and modal coefficients of at least 0.3 make every mode
    # controllable and observable (PBH); a rotated basis hides that from
    # the rank of the Krylov matrix at order 10
    n = 10
    lam = -np.sort(rng.uniform(0.2, 5.0, n))
    assert np.min(np.diff(-lam)) > 0.0
    mb = rng.choice([-1.0, 1.0], (n, 1)) * rng.uniform(0.3, 1.0, (n, 1))
    mc = rng.choice([-1.0, 1.0], (1, n)) * rng.uniform(0.3, 1.0, (1, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = make_system(q @ np.diag(lam) @ q.T, q @ mb, mc @ q.T)
    assert not check_minimal(s)
    res = modal_truncate(s, 1)
    assert res.reduced.n == n - 1
    err = hinf_norm(add(res.reduced, negate(s)))
    assert err == pytest.approx(res.truncated_tail[0], rel=1e-9)


def test_modal_truncate_benchmark_stable_part():
    _, k = bench_balanced_vs_modal_pair()
    split = split_stable_unstable(k)
    res = modal_truncate(split.stable_part, 1)
    err = hinf_norm(add(res.reduced, negate(split.stable_part)))
    assert err == pytest.approx(0.0582, rel=0.01)  # frozen from this implementation
    assert abs(err - 0.0580) <= 0.05 * 0.0580      # bundled reference at 5%


def test_modal_truncate_unstable_benchmark():
    _, k = bench_unstable_pair()
    res = modal_truncate(k, 1)
    assert res.reduced.n == 2
    ev = np.sort(linalg.eigenvalues(res.reduced.A).real)
    assert np.allclose(ev, [-0.37, 1.37], atol=1e-9)
    assert res.truncated_tail == (pytest.approx(0.0628 / 0.34),)


def test_modal_truncate_delta_consistency():
    _, k = bench_unstable_pair()
    res = modal_truncate(k, 1)
    # the reduced system plus the removed blocks reproduces the original
    md = modal_form(k)
    removed = md.rebuild(mode_ranking(md)[:1])
    assert transfer_close(add(res.reduced, removed), k, 1e-8)


def test_hankel_values_similarity_invariant(rng):
    s = random_stable_minimal(rng, 5)
    t = rng.standard_normal((5, 5)) + 2 * np.eye(5)
    s2 = make_system(t @ s.A @ np.linalg.inv(t), t @ s.B, s.C @ np.linalg.inv(t))
    sig1 = balance(s).hankel_singular_values
    sig2 = balance(s2).hankel_singular_values
    assert np.allclose(sig1, sig2, rtol=1e-7)


def test_hankel_norm_bound_bounds_the_peak_gain(rng):
    # 2 sum sigma is tight for one state; antistable parts count through
    # their mirror image and a feedthrough through its gain
    lag = make_system([[-2.0]], [[1.0]], [[3.0]])  # peak gain 1.5 at w = 0
    assert 1.5 <= _Split.of(lag).upper_bound <= 1.5 * (1 + 1e-11)
    for _ in range(20):
        s = add(random_stable_minimal(rng, 3), random_antistable(rng, 2))
        s = make_system(s.A, s.B, s.C, [[float(rng.uniform(-1.0, 1.0))]])
        assert _Split.of(s).upper_bound >= linf_norm(s) * (1 - 1e-9)


def test_drop_negligible_antistable_bounds_what_it_drops():
    # a 1e-9 antistable term beside an order-one stable gain is dropped, and
    # the returned bound covers its peak gain 1e-9; a 1e-3 term is kept
    stable = make_system([[-1.0]], [[1.0]], [[1.0]])
    for eps, dropped in ((1e-9, True), (1e-3, False)):
        anti = make_system([[2.0]], [[1.0]], [[2.0 * eps]])  # peak eps at w = 0
        out = drop_negligible_antistable(add(stable, anti))
        if not dropped:
            assert out is None
            continue
        part, bound = out
        assert transfer_close(part, stable)
        assert eps <= bound <= eps * (1 + 1e-6)


def test_split_cancelled_unstable_keeps_genuine_and_drops_cancelled_modes(rng):
    genuine = random_antistable(rng, 1)
    k = add(random_stable_minimal(rng, 3), genuine)
    h = random_antistable(rng, 1)
    # an exactly cancelled copy h - h adds two antistable states and no transfer
    for s in (k, add(k, add(h, negate(h)))):
        stable, anti = split_cancelled_unstable(s)
        assert transfer_close(add(stable, anti), s)
        assert stable.n == 3 and linalg.is_stable(stable.A)
        assert anti.n == 1
        np.testing.assert_allclose(linalg.eigenvalues(anti.A),
                                   linalg.eigenvalues(genuine.A), rtol=1e-8)


def test_minimal_realization_cancels_hidden_unstable_mode():
    # X * delta for the bundled unstable-truncation pair: the unstable
    # pole of delta cancels a structural zero of X
    from ctred.statespace import four_block

    g, k = bench_unstable_pair()
    fb = four_block(g, k)
    md = modal_form(k)
    prod = series(fb.x, negate(md.rebuild(mode_ranking(md)[:1])))
    assert linalg.spectral_abscissa(prod.A) > 0  # raw realization looks unstable
    prod_min = minimal_realization(prod)
    assert prod_min.n < prod.n
    assert linalg.spectral_abscissa(prod_min.A) < 0
    assert transfer_close(prod_min, prod, 1e-6)


def test_minimal_realization_drops_exact_duplicate(rng):
    s = random_stable_minimal(rng, 3)
    doubled = add(s, make_system(s.A, s.B, -s.C))
    m = minimal_realization(doubled)
    assert m.n == 0


def test_balanced_truncate_unstable_full_stable_removal(rng):
    # target order equal to the antistable order: the stable part is
    # dropped entirely and the error system is its negation
    k = add(random_stable_minimal(rng, 3), random_antistable(rng, 1))
    res = balanced_truncate_unstable(k, 1)
    assert res.reduced.n == 1
    assert linalg.spectral_abscissa(res.reduced.A) > 0
    assert len(res.truncated_tail) == 3
    assert drop_negligible_antistable(add(res.reduced, negate(k))) is not None


def test_stability_tolerance_env_override(monkeypatch):
    from ctred.statespace import is_internally_stable

    g = make_system([[-1.0]], [[1.0]], [[1.0]])
    k = make_system([[-1e-5]], [[1e-8]], [[1e-8]])  # barely stable loop
    stable, alpha = is_internally_stable(g, k)
    assert stable
    monkeypatch.setenv("CTRED_TOL_STAB", "1e-3")
    stable2, _ = is_internally_stable(g, k)
    assert not stable2


def test_split_born_hankel_pass_makes_no_eigen_solve(rng, monkeypatch):
    # the parts of the stable/antistable split are in real Schur form (the
    # antistable part's mirror is its negated transpose), so their Hankel
    # passes take triangular solves only: no gees and no geev
    for _ in range(20):
        n1, n2 = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        stable = rng.standard_normal((n1, n1)) - 2.5 * np.eye(n1)
        anti = rng.standard_normal((n2, n2)) + 2.5 * np.eye(n2)
        q, _ = np.linalg.qr(rng.standard_normal((n1 + n2, n1 + n2)))
        a = q @ sla.block_diag(stable, anti) @ q.T
        k = make_system(a, rng.standard_normal((n1 + n2, 2)), rng.standard_normal((2, n1 + n2)))
        split = split_stable_unstable(k)
        parts = (split.stable_part, mirror(split.unstable_part))
        calls = []
        with monkeypatch.context() as mp:
            for owner, name in ((linalg, "_gees"), (linalg, "_geev")):
                original = getattr(owner, name)
                mp.setattr(owner, name,
                           lambda *args, f=original, name=name, **kw: calls.append(name)
                           or f(*args, **kw))
            passes = [_hankel_pass(part) for part in parts]
        assert calls == []
        for part, hp in zip(parts, passes):
            wc = sla.solve_continuous_lyapunov(part.A, -part.B @ part.B.T)
            wo = sla.solve_continuous_lyapunov(part.A.T, -part.C.T @ part.C)
            ref = np.sqrt(np.sort(np.linalg.eigvals(wc @ wo).real)[::-1])
            np.testing.assert_allclose(hp.sigma, ref[:hp.sigma.size], rtol=1e-8)


def _planted_duplicate_mode():
    # the second copy of the pole -2 is uncontrollable: a non-minimal
    # order-3 realization of a minimal order-2 transfer function
    return make_system(np.diag([-1.0, -2.0, -2.0]), [[1.0], [1.0], [0.0]],
                       [[1.0, 1.0, 1.0]])


def test_balanced_truncate_of_a_planted_uncontrollable_mode():
    s = _planted_duplicate_mode()
    floor = _hankel_pass(s).floor
    # order 2 keeps the whole minimal part: the error is rounding
    assert hinf_norm(add(balanced_truncate(s, 2).reduced, negate(s))) <= 1e-14
    res = balanced_truncate(s, 1)
    err = hinf_norm(add(res.reduced, negate(s)))
    assert err <= 2.0 * sum(res.truncated_tail) + s.n * floor


def test_rank_deficient_gramian_records_missing_states_at_the_floor(rng):
    s = _planted_duplicate_mode()
    hp = _hankel_pass(s)
    assert hp.sigma.size == 2 and hp.floor > 0.0
    for r in (1, 2):
        tail = balanced_truncate(s, r).truncated_tail
        assert len(tail) == s.n - r
        assert tail[-1] == hp.floor
        assert tuple(tail[:-1]) == tuple(hp.sigma[r:])
    # the missing state's floor covers the rounding-level error of order 2
    res = balanced_truncate(s, 2)
    assert hinf_norm(add(res.reduced, negate(s))) <= 2.0 * sum(res.truncated_tail)
    # removing the whole stable part records one value per stable state
    k = add(s, random_antistable(rng, 1))
    tail = balanced_truncate_unstable(k, 1).truncated_tail
    assert len(tail) == 3 and tail[-1] > 0.0


def test_balanced_truncate_discards_an_exactly_zero_hankel_value():
    # the only observable directions are states 2 and 3, the controllable
    # ones 1 and 2: the pass has the values 0.25 and exactly 0, and the
    # discarded zero must not reach the transform as a division by zero
    s = make_system(np.diag([-1.0, -2.0, -3.0]), [[1.0], [1.0], [0.0]],
                    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    hp = _hankel_pass(s)
    assert hp.sigma[1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = balanced_truncate(s, 1)
    assert res.truncated_tail == (0.0, hp.floor)
    assert transfer_close(res.reduced, s, 1e-12)


def test_balanced_truncate_refuses_a_kept_value_below_hsv_minimal():
    sigma = np.array([1.0, 1e-11, 1e-13])
    s = balanced_fixture(sigma, b=np.sqrt(sigma) * np.array([1.0, 2.0, 3.0]))
    hp = _hankel_pass(s)
    # sigma_2 lies above the rounding floor but below HSV_MINIMAL sigma_1
    assert hp.floor < hp.sigma[1] < HSV_MINIMAL * hp.sigma[0]
    with pytest.raises(MinimalityError):
        balanced_truncate(s, 2)
    # sigma_n / sigma_1 = 1e-13, yet order 1 keeps a value clear of the floor
    res = balanced_truncate(s, 1)
    assert res.truncated_tail[0] == pytest.approx(sigma[1], rel=1e-6)
    err = hinf_norm(add(res.reduced, negate(s)))
    assert err <= 2.0 * sum(res.truncated_tail) + s.n * hp.floor


def test_balanced_truncation_makes_no_balance_and_no_krylov_test(monkeypatch, rng):
    import ast
    import inspect

    from ctred import reduce

    calls = []
    original = reduce.balance
    monkeypatch.setattr(reduce, "balance", lambda *a: calls.append("balance") or original(*a))
    _, k = bench_balanced_vs_modal_pair()
    for r in (1, 2):
        balanced_truncate_unstable(k, r)
    balanced_truncate_unstable(add(random_stable_minimal(rng, 4), random_antistable(rng, 1)), 3)
    assert calls == []
    # reduce.py names check_minimal nowhere
    tree = ast.parse(inspect.getsource(reduce))
    assert not any(isinstance(node, ast.Name) and node.id == "check_minimal"
                   or isinstance(node, ast.alias) and node.name == "check_minimal"
                   for node in ast.walk(tree))
