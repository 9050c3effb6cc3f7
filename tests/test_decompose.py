import numpy as np
import pytest
import scipy.linalg as sla

from conftest import criterion_07_triples, grid_peak_oracle, transfer_close
from ctred.benchmarks import bench_balanced_vs_modal_pair, bench_unstable_pair
from ctred.decompose import (
    ModalBlock,
    ModalDecomposition,
    _labels,
    _modal_block,
    _representative,
    mode_importance,
    modal_form,
    split_stable_unstable,
)
from ctred.errors import (
    AxisPoleError,
    SeparationError,
    StabilityError,
    ZeroModeError,
)
from ctred.gen import random_antistable, random_stable_minimal
from ctred.norms import hinf_norm, linf_norm
from ctred.statespace import (
    StateSpaceSystem,
    add,
    frequency_response,
    make_system,
    zero_system,
)
from ctred.tolerances import CLUSTER_TOL, HINF_REL
from ctred import decompose, linalg


def test_split_stable_system():
    s = make_system(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]])
    split = split_stable_unstable(s)
    assert split.unstable_part.n == 0
    assert split.stable_part.n == 2
    assert transfer_close(add(split.stable_part, split.unstable_part), s)


def test_split_benchmark_controller():
    _, k = bench_balanced_vs_modal_pair()
    split = split_stable_unstable(k)
    assert split.stable_part.n == 2 and split.unstable_part.n == 1
    up = split.unstable_part
    assert abs(up.A[0, 0] - 0.2) < 1e-12
    # the antistable mode is (0.2, 0.5, 0.5): transfer 0.25/(s-0.2)
    target = make_system([[0.2]], [[0.5]], [[0.5]])
    assert transfer_close(up, target, 1e-9)


def test_split_random_reconstruction(rng):
    for _ in range(5):
        k = add(random_stable_minimal(rng, 4), random_antistable(rng, 2))
        split = split_stable_unstable(k)
        assert split.stable_part.n == 4 and split.unstable_part.n == 2
        assert transfer_close(add(split.stable_part, split.unstable_part), k, 1e-7)
        assert linalg.spectral_abscissa(split.stable_part.A) < 0
        ev_u = linalg.eigenvalues(split.unstable_part.A)
        assert np.all(ev_u.real > 0)


def test_split_rejects_axis_pole():
    s = make_system(np.diag([-1.0, 0.0]), [[1.0], [1.0]], [[1.0, 1.0]])
    with pytest.raises(AxisPoleError):
        split_stable_unstable(s)


def test_split_refuses_poles_off_the_axis_but_within_the_separation_tolerance():
    # +-5e-7 lie beyond the half-plane tolerance (1e-8) but only 1e-6 apart,
    # within SEP_REL of the unit scale: the decoupling solve is refused
    s = make_system(np.diag([-5e-7, 5e-7, -1.0]), np.ones((3, 1)), np.ones((1, 3)))
    with pytest.raises(SeparationError, match="ill-conditioned stable/antistable split"):
        split_stable_unstable(s)


def test_split_spectrum_preserved(rng):
    k = add(random_stable_minimal(rng, 3), random_antistable(rng, 2))
    split = split_stable_unstable(k)
    ev = np.sort_complex(
        np.concatenate(
            [
                linalg.eigenvalues(split.stable_part.A),
                linalg.eigenvalues(split.unstable_part.A),
            ]
        )
    )
    assert np.max(np.abs(ev - linalg.eigenvalues(k.A))) < 1e-9


def test_modal_form_diagonal():
    s = make_system(np.diag([-1.0, -3.0, 2.0]), [[1.0], [1.0], [1.0]], [[1.0, 2.0, 3.0]])
    md = modal_form(s)
    assert len(md.blocks) == 3
    assert [b.order for b in md.blocks] == [1, 1, 1]
    assert [b.eigenvalue.real for b in md.blocks] == [-3.0, -1.0, 2.0]


def test_modal_form_benchmark_unstable_controller():
    _, k = bench_unstable_pair()
    md = modal_form(k)
    assert len(md.blocks) == 3
    eigs = [b.eigenvalue.real for b in md.blocks]
    assert np.allclose(eigs, [-0.37, 0.34, 1.37])
    assert transfer_close(md.rebuild(), k, 1e-7)


def test_modal_form_conjugate_pair():
    a = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    s = make_system(a, [[1.0], [0.0]], [[1.0, 1.0]])
    md = modal_form(s)
    assert len(md.blocks) == 1
    assert md.blocks[0].order == 2
    assert abs(md.blocks[0].eigenvalue - complex(-1.0, 2.0)) < 1e-9


def test_modal_form_mixed_random(rng):
    # mixed real and complex spectrum through a random similarity
    a = np.zeros((4, 4))
    a[0, 0] = -2.0
    a[1:3, 1:3] = [[-0.5, 3.0], [-3.0, -0.5]]
    a[3, 3] = 1.2
    t = rng.standard_normal((4, 4)) + 2 * np.eye(4)
    s = make_system(t @ a @ np.linalg.inv(t), t @ np.ones((4, 1)),
                    np.ones((1, 4)) @ np.linalg.inv(t))
    md = modal_form(s)
    assert [b.order for b in md.blocks] == [1, 2, 1]
    assert transfer_close(md.rebuild(), s, 1e-7)
    # the kept blocks fill a block-diagonal state matrix, in the given order
    for keep in (None, [2, 1], [1]):
        kept = md.blocks if keep is None else [md.blocks[i] for i in keep]
        assert np.array_equal(md.rebuild(keep).A, sla.block_diag(*[b.A for b in kept]))
    ev = np.sort_complex(np.concatenate([linalg.eigenvalues(b.A) for b in md.blocks]))
    assert np.max(np.abs(ev - linalg.eigenvalues(s.A))) < 1e-9


def test_modal_form_clustered_eigenvalues(monkeypatch):
    # two nearly identical eigenvalues form one block
    monkeypatch.setattr(decompose, "CLUSTER_TOL", 1e-6)
    s = make_system(np.diag([-1.0, -1.0 + 1e-9, -3.0]),
                    [[1.0], [1.0], [1.0]], [[1.0, 1.0, 1.0]])
    md = modal_form(s)
    # blocks are sorted by ascending real part: the single mode at -3 leads
    assert [b.order for b in md.blocks] == [1, 2]
    assert md.blocks[1].order == 2


def test_modal_form_gathers_a_repeated_pole_scattered_along_the_schur_form():
    # a triangular matrix is its own Schur form; its pole -1 sits on both
    # sides of -2, so the block diagonalization reorders it to one block
    s = make_system([[-1.0, 0.5, 0.3], [0.0, -2.0, 0.7], [0.0, 0.0, -1.0]],
                    [[1.0], [2.0], [3.0]], [[1.0, -1.0, 0.5]])
    md = modal_form(s)
    assert [(b.order, b.eigenvalue) for b in md.blocks] == [(1, -2.0), (2, -1.0)]
    assert transfer_close(md.rebuild(), s)


def test_modal_form_inseparable_error(monkeypatch):
    monkeypatch.setattr(decompose, "CLUSTER_TOL", 1e-12)
    s = make_system(np.diag([1.0, 1.0 + 1e-8]), [[1.0], [1.0]], [[1.0, 1.0]])
    with pytest.raises(SeparationError):
        modal_form(s)


def test_mode_importance_stable_scalar():
    blk = ModalBlock(np.array([[-2.0]]), np.array([[1.0]]), np.array([[1.0]]),
                     complex(-2.0), np.nan)
    assert abs(mode_importance(blk) - 0.5) < 1e-9


def test_mode_importance_unstable_scalar():
    blk = ModalBlock(np.array([[0.34]]), np.array([[0.04]]), np.array([[-1.57]]),
                     complex(0.34), np.nan)
    assert abs(mode_importance(blk) - abs(-1.57 * 0.04 / 0.34)) < 1e-12


def test_mode_importance_zero_output():
    blk = ModalBlock(np.array([[-1.0]]), np.array([[1.0]]), np.array([[0.0]]),
                     complex(-1.0), np.nan)
    assert mode_importance(blk) == 0.0


def test_mode_importance_rejects_zero_and_axis():
    blk0 = ModalBlock(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]),
                      complex(0.0), np.nan)
    with pytest.raises(ZeroModeError):
        mode_importance(blk0)
    blk_axis = ModalBlock(np.array([[0.0, 2.0], [-2.0, 0.0]]),
                          np.ones((2, 1)), np.ones((1, 2)), complex(0.0, 2.0), np.nan)
    with pytest.raises(AxisPoleError):
        mode_importance(blk_axis)


def test_mode_importance_first_order_mimo_is_the_peak_gain(rng):
    # a real pole's gain sigma_max(C B) / |j w - lambda| peaks at w = 0
    for sign in (-1.0, 1.0):
        for _ in range(3):
            lam = sign * rng.uniform(0.1, 10.0)
            blk = ModalBlock(np.array([[lam]]), rng.standard_normal((1, 3)),
                             rng.standard_normal((2, 1)), complex(lam), np.nan)
            imp = mode_importance(blk)
            peak = hinf_norm(blk.system()) if lam < 0 else linf_norm(blk.system())
            assert abs(imp - peak) <= 2 * HINF_REL * peak
            oracle = grid_peak_oracle(blk.system(), n=20000)
            assert abs(imp - oracle) <= 1e-8 * oracle


def test_mode_importance_first_order_keeps_the_stability_override(monkeypatch):
    # hinf_norm refuses a pole inside the overridden tolerance; the closed
    # form that replaced it for first-order blocks classifies the same pole
    # as on the axis, through the one half-plane tolerance
    blk = ModalBlock(np.array([[-0.5]]), np.ones((1, 3)), np.ones((2, 1)),
                     complex(-0.5), np.nan)
    monkeypatch.setenv("CTRED_TOL_STAB", "1.0")
    with pytest.raises(StabilityError):
        hinf_norm(blk.system())
    with pytest.raises(AxisPoleError):
        mode_importance(blk)
    monkeypatch.setenv("CTRED_TOL_STAB", "0.1")
    assert mode_importance(blk) == pytest.approx(np.sqrt(6.0) / 0.5, rel=2 * HINF_REL)


def test_modal_form_ranks_by_the_stability_override(monkeypatch):
    # poles -0.37, 0.34 and 1.37: under an override of 0.5 the first two
    # lie on the axis alike, whichever side they are on
    _, k = bench_unstable_pair()
    monkeypatch.setenv("CTRED_TOL_STAB", "0.5")
    md = modal_form(k)
    poles = [round(b.eigenvalue.real, 2) for b in md.blocks]
    assert poles == [-0.37, 0.34, 1.37]
    importance = [b.importance for b in md.blocks]
    assert np.isnan(importance[0]) and np.isnan(importance[1])
    assert importance[2] > 0.0


def _cluster_values(ev, cluster_tol=CLUSTER_TOL):
    """Conjugate-closed eigenvalue sets of the clusters of ``ev``
    (:func:`~ctred.linalg._root_groups`, a conjugate pair sharing one
    label), ordered by their mean (real, |imag|) parts."""
    labels = linalg._root_groups(ev.real + 1j * np.abs(ev.imag), cluster_tol)
    clusters = [ev[labels == g] for g in np.unique(labels)]
    return sorted(clusters, key=lambda v: (v.real.mean(), np.abs(v.imag).mean()))


def _reference_modal_form(k, cluster_tol=CLUSTER_TOL):
    """Modal form as computed before the one-pass Schur reduction.

    Each cluster is peeled off by a fresh ordered Schur decomposition of
    the remaining state matrix and a general Sylvester solve, and every
    stable block is ranked by ``hinf_norm``.
    """
    all_vals = _cluster_values(linalg.eigenvalues(k.A), cluster_tol)
    blocks = []
    a, b, c = k.A, k.B, k.C
    for idx in range(len(all_vals)):
        if idx < len(all_vals) - 1:
            def select(re, im, own=all_vals[idx]):
                lam = complex(re, im)
                return (np.abs(own - lam).min()
                        <= min(np.abs(v - lam).min() for v in all_vals))

            t, z, n1 = sla.schur(a, output="real", sort=select)
            bt, ct = z.T @ b, c @ z
            t11, t12, t22 = t[:n1, :n1], t[:n1, n1:], t[n1:, n1:]
            x = sla.solve_sylvester(t11, -t22, -t12)
            part = (t11, bt[:n1] - x @ bt[n1:], ct[:, :n1])
            a, b, c = t22, bt[n1:], ct[:, n1:] + ct[:, :n1] @ x
        else:
            part = (a, b, c)
        lam = _representative(linalg.eigenvalues(part[0]))
        blk = ModalBlock(*part, lam, np.nan)
        if lam.real < 0:
            imp = hinf_norm(blk.system())
        else:
            imp = mode_importance(blk)
        blocks.append(ModalBlock(*part, lam, imp))
    blocks.sort(key=lambda blk: (blk.eigenvalue.real, abs(blk.eigenvalue.imag)))
    return ModalDecomposition(tuple(blocks), m=k.m, p=k.p)


def _random_modal_system(rng, draw):
    """Real poles, complex pairs and antistable modes behind a random
    similarity; every 7th draw repeats a real pole 1e-9 apart."""
    diag = []
    for _ in range(int(rng.integers(1, 4))):
        diag.append(np.array([[rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0)]]))
    for _ in range(int(rng.integers(0, 3))):
        sigma = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        omega = rng.uniform(0.2, 5.0)
        diag.append(np.array([[sigma, omega], [-omega, sigma]]))
    if draw % 7 == 0:
        diag.append(diag[0] + 1e-9)
    a = sla.block_diag(*diag)
    n = a.shape[0]
    t = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    m, p = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    return make_system(t @ a @ np.linalg.inv(t), rng.standard_normal((n, m)),
                       rng.standard_normal((p, n)))


def test_modal_form_matches_the_sequential_reference(rng):
    ws = np.concatenate([[0.0], np.logspace(-3, 3, 299)])
    worst = 0.0
    for draw in range(300):
        k = _random_modal_system(rng, draw)
        got, ref = modal_form(k), _reference_modal_form(k)
        assert [b.order for b in got.blocks] == [b.order for b in ref.blocks]
        for bg, br in zip(got.blocks, ref.blocks):
            assert abs(bg.eigenvalue - br.eigenvalue) <= 1e-9
            # first-order blocks: closed form against the level-set search;
            # order-2 blocks run hinf_norm in both, on realizations that
            # differ in the last bits
            assert abs(bg.importance - br.importance) <= 2e-10 * br.importance
        r_got = frequency_response(got.rebuild(), ws)
        r_ref = frequency_response(ref.rebuild(), ws)
        rel = np.abs(r_got - r_ref).max() / np.abs(r_ref).max()
        worst = max(worst, rel)
    assert worst <= 1e-10


def _peel_per_cluster(sys_abc, select):
    """One peel step through the public ``ordered_real_schur`` and
    ``solve_sylvester``, which re-validate the matrices, re-detect the
    Schur form and recompute the spectra: a reference that reorders and
    decouples one cluster at a time."""
    a, b, c = sys_abc
    form = linalg.ordered_real_schur(a, select)
    k, n = form.n_selected, a.shape[0]
    t, bt, ct, ev = form.T, form.Z.T @ b, c @ form.Z, form.eigenvalues
    if k == 0 or k == n:
        return ((t, bt, ct, ev), None) if k == n else (None, (t, bt, ct, ev))
    t11, t12, t22 = t[:k, :k], t[:k, k:], t[k:, k:]
    x = linalg.solve_sylvester(t11, -t22, t12)
    return ((t11, bt[:k] - x @ bt[k:], ct[:, :k], ev[:k]),
            (t22, bt[k:], ct[:, k:] + ct[:, :k] @ x, ev[k:]))


def _per_cluster_modal_form(k):
    values = _cluster_values(linalg.eigenvalues(k.A))
    labels = np.repeat(np.arange(len(values)), [v.size for v in values])
    n_clusters, values = len(values), np.concatenate(values)
    blocks = []
    remaining = (k.A, k.B, k.C, linalg.eigenvalues(k.A))
    for idx in range(n_clusters - 1):
        part, remaining = _peel_per_cluster(
            remaining[:3], lambda lam, idx=idx: _labels(lam, values, labels) == idx)
        blocks.append(_modal_block(*part))
    blocks.append(_modal_block(*remaining))
    blocks.sort(key=lambda b: (b.eigenvalue.real, abs(b.eigenvalue.imag)))
    return blocks


def _per_cluster_split(k):
    part1, part2 = _peel_per_cluster((k.A, k.B, k.C), lambda lam: lam.real < 0.0)
    empty = zero_system(k.p, k.m)
    stable = empty if part1 is None else StateSpaceSystem(*part1[:3], k.D)
    unstable = empty if part2 is None else StateSpaceSystem(*part2[:3], empty.D)
    return stable, unstable


def _assert_same_as_per_cluster(k):
    """modal_form agrees with the per-cluster route within the tolerances
    of the sequential reference (the block diagonalization decouples every
    block column against one Schur form, so its blocks differ from the
    peeled ones by rounding), and split_stable_unstable equals it array
    for array."""
    got, ref = modal_form(k).blocks, _per_cluster_modal_form(k)
    assert [b.order for b in got] == [b.order for b in ref]
    for bg, br in zip(got, ref):
        assert abs(bg.eigenvalue - br.eigenvalue) <= 1e-9
        assert np.isclose(bg.importance, br.importance, rtol=2e-10, atol=0.0,
                          equal_nan=True)
    ws = np.concatenate([[0.0], np.logspace(-3, 3, 299)])
    r_got = frequency_response(ModalDecomposition(got, k.m, k.p).rebuild(), ws)
    r_ref = frequency_response(ModalDecomposition(tuple(ref), k.m, k.p).rebuild(), ws)
    assert np.abs(r_got - r_ref).max() <= 1e-10 * np.abs(r_ref).max()
    split = split_stable_unstable(k)
    for part, ref in zip((split.stable_part, split.unstable_part), _per_cluster_split(k)):
        for x, y in zip((part.A, part.B, part.C, part.D), (ref.A, ref.B, ref.C, ref.D)):
            assert np.array_equal(x, y)


def test_modal_form_and_split_match_the_per_cluster_route(rng):
    for draw in range(300):
        _assert_same_as_per_cluster(_random_modal_system(rng, draw))


def test_criterion_07_controllers_match_the_per_cluster_route():
    for _, k, k_r in criterion_07_triples(120):
        _assert_same_as_per_cluster(k)
        _assert_same_as_per_cluster(k_r)
