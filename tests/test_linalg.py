import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg as sla

from ctred import linalg, norms
from ctred.benchmarks import bench_balanced_vs_modal_pair
from ctred.decompose import _labels, modal_form
from ctred.gen import generate_instance
from ctred.statespace import make_system
from ctred.errors import (
    ConvergenceError,
    CtredError,
    DimensionError,
    NoStabilizingSolutionError,
    ReorderingError,
    SeparationError,
    StabilityError,
    SynthesisError,
)


def test_eigenvalues_rotation():
    ev = linalg.eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(sorted(ev, key=lambda z: z.imag), [-1j, 1j])


def test_eigenvalues_identity():
    ev = linalg.eigenvalues(np.eye(3))
    assert np.allclose(ev, [1.0, 1.0, 1.0])


def test_eigenvalues_closed_loop_benchmark():
    # oracle: direct dense eigensolve of the assembled closed-loop matrix
    g, k = bench_balanced_vs_modal_pair()
    acl = np.block([[g.A, g.B @ k.C], [k.B @ g.C, k.A]])
    expected = np.sort_complex(np.linalg.eigvals(acl))
    got = linalg.eigenvalues(acl)
    assert np.allclose(np.sort_complex(got), expected, atol=1e-12)
    # frozen values from the oracle (the nominal double poles split under
    # the two-decimal rounding of the plant coefficients)
    frozen = np.array(
        [-2.672866, -2.273098 - 0.069097j, -2.273098 + 0.069097j,
         -2.147316, -0.380412 - 0.017519j, -0.380412 + 0.017519j]
    )
    assert np.allclose(np.sort_complex(got), np.sort_complex(frozen), atol=1e-4)
    # the trace is consistent with three double poles near (-0.38,-2.53,-2.15)
    assert abs(got.real.sum() - 2 * (-0.38 - 2.53 - 2.15)) < 0.05


def test_eigenvalues_rejects_nonsquare():
    with pytest.raises(DimensionError):
        linalg.eigenvalues(np.ones((2, 3)))


def test_ordered_schur_block_diagonal():
    form = linalg.ordered_real_schur(np.diag([-1.0, 2.0]), lambda l: l.real < 0)
    assert form.n_selected == 1
    assert abs(form.eigenvalues[0] + 1.0) < 1e-12


def test_ordered_schur_swaps_and_residual():
    a = np.array([[2.0, 1.0], [0.0, -1.0]])
    form = linalg.ordered_real_schur(a, lambda l: l.real < 0)
    assert abs(form.eigenvalues[0] + 1.0) < 1e-12
    assert np.linalg.norm(form.Z @ form.T @ form.Z.T - a) <= 1e-12
    assert np.linalg.norm(form.Z @ form.Z.T - np.eye(2)) <= 1e-10


def test_ordered_schur_benchmark_controller():
    _, k = bench_balanced_vs_modal_pair()
    # oracle: eigenvalues of the decoupled stable block of the controller
    stable_block = k.A[:2, :2]
    expected = np.sort(np.linalg.eigvals(stable_block).real)
    form = linalg.ordered_real_schur(k.A, lambda l: l.real < 0)
    assert form.n_selected == 2
    lead = np.sort(np.array([v.real for v in form.eigenvalues[:2]]))
    assert np.allclose(lead, expected, atol=1e-10)
    assert np.allclose(expected, [-2.177686, -2.149514], atol=1e-5)
    assert abs(form.eigenvalues[2] - 0.2) < 1e-12


def test_schur_spectrum_invariant(rng):
    a = rng.standard_normal((7, 7))
    form = linalg.ordered_real_schur(a, lambda l: l.real < 0)
    ev_a = np.sort_complex(linalg.eigenvalues(a))
    ev_t = np.sort_complex(np.asarray(form.eigenvalues))
    assert np.max(np.abs(ev_a - ev_t)) < 1e-9


def test_lyapunov_scalar():
    x = linalg.solve_lyapunov(np.array([[-1.0]]), np.array([[1.0]]))
    assert np.allclose(x, [[0.5]])


def test_lyapunov_diagonal():
    x = linalg.solve_lyapunov(-np.eye(2), np.eye(2))
    assert np.allclose(x, 0.5 * np.eye(2))


def test_lyapunov_matches_integral(rng):
    # oracle: adaptive quadrature of the Gramian integral
    a = rng.standard_normal((5, 5)) - 3.0 * np.eye(5)
    b = rng.standard_normal((5, 2))
    q = b @ b.T
    x = linalg.solve_lyapunov(a, q)

    def integrand(t):
        e = sla.expm(a * t)
        return (e @ q @ e.T).ravel()

    val, _ = scipy.integrate.quad_vec(integrand, 0.0, 60.0, epsabs=1e-10)
    assert np.allclose(x, val.reshape(5, 5), rtol=1e-6, atol=1e-8)


def test_lyapunov_determinism(rng):
    a = rng.standard_normal((6, 6)) - 4.0 * np.eye(6)
    q = np.eye(6)
    x1 = linalg.solve_lyapunov(a, q)
    x2 = linalg.solve_lyapunov(a, q.copy())
    assert np.max(np.abs(x1 - x2)) <= 1e-12


def test_lyapunov_requires_stability():
    with pytest.raises(StabilityError):
        linalg.solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


@pytest.mark.parametrize("c", [1e5, 3e5, 1e6])
def test_lyapunov_accepts_an_accurate_ill_conditioned_solve(c):
    # ||X|| reaches 8.3e10 while the backward error stays at rounding
    # level; a residual scaled by ||Q|| alone would refuse c = 1e5 and 1e6
    # and accept 3e5, a verdict that flips under rounding
    a = np.array([[-1.0, c], [0.0, -2.0]])
    x = linalg.solve_lyapunov(a, np.eye(2))
    ref = sla.solve_continuous_lyapunov(a, -np.eye(2))
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    # the same solution off by 1e-6 of its norm misses its equation
    e = np.array([[0.6, 0.3], [0.3, -0.8]])
    wrong = x + 1e-6 * np.linalg.norm(x) * e
    ax = a @ wrong
    with pytest.raises(ConvergenceError, match="Lyapunov residual"):
        linalg._check_residual((ax, ax.T, np.eye(2)), "Lyapunov")


def test_sylvester_scalar():
    x = linalg.solve_sylvester([[1.0]], [[1.0]], [[-2.0]])
    assert np.allclose(x, [[1.0]])


def test_sylvester_decoupled():
    x = linalg.solve_sylvester(np.diag([1.0, 2.0]), [[3.0]], np.ones((2, 1)))
    assert np.allclose(x, [[-0.25], [-0.2]])


def test_sylvester_residual_random(rng):
    a = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)      # stable
    b = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)      # antistable
    c = rng.standard_normal((4, 4))
    x = linalg.solve_sylvester(a, b, c)
    assert np.linalg.norm(a @ x + x @ b + c) <= 1e-9 * max(1.0, np.linalg.norm(c))


def test_sylvester_separation_error():
    with pytest.raises(SeparationError):
        linalg.solve_sylvester([[1.0]], [[-1.0]], [[1.0]])


def test_care_scalar_cases():
    p = linalg.solve_care([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert np.allclose(p, [[1.0]])
    p = linalg.solve_care([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    assert np.allclose(p, [[2.0]])


def test_care_random(rng):
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 2))
    q = np.eye(4)
    r = np.eye(2)
    p = linalg.solve_care(a, b, q, r)
    resid = a.T @ p + p @ a - p @ b @ np.linalg.solve(r, b.T) @ p + q
    assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(q))
    closed = a - b @ np.linalg.solve(r, b.T) @ p
    assert linalg.spectral_abscissa(closed) < 0.0


def test_care_makes_one_schur_reduction_of_its_hamiltonian(monkeypatch, rng):
    # the axis test reads the spectrum of the one Schur form the reordering
    # starts from: no eigen-solve of the 2n x 2n Hamiltonian
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 2))
    expected = linalg.solve_care(a, b, np.eye(3), np.eye(2))
    gees = _counted_schur(monkeypatch)
    shapes = []
    eigvals = np.linalg.eigvals

    def recording(m):
        shapes.append(np.shape(m))
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    p = linalg.solve_care(a, b, np.eye(3), np.eye(2))
    assert [m.shape for m in gees] == [(6, 6)]
    assert shapes and (6, 6) not in shapes
    assert np.array_equal(p, expected)


@pytest.mark.parametrize("solve", [
    lambda: linalg.solve_lyapunov(-np.eye(2), [[1.0, 1.0], [0.0, 1.0]]),
    lambda: linalg.solve_lyapunov(-np.eye(2), np.eye(3)),
    lambda: linalg.solve_sylvester(-np.eye(2), -np.eye(3), np.ones((3, 2))),
    lambda: linalg.solve_care(-np.eye(2), np.ones((3, 1)), np.eye(2), np.eye(1)),
    lambda: linalg.solve_care(-np.eye(2), np.ones((2, 1)), np.eye(3), np.eye(1)),
    lambda: linalg.solve_care(-np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(2)),
    lambda: linalg.solve_care(-np.eye(2), np.eye(2), np.eye(2), -np.eye(2)),
], ids=["asymmetric Q", "Q shape", "Sylvester C shape", "Riccati B shape",
        "Riccati Q shape", "Riccati R shape", "indefinite R"])
def test_solvers_refuse_malformed_operands(solve):
    with pytest.raises(DimensionError):
        solve()


def test_care_no_stabilizing_solution():
    # oscillator with no control authority: axis Hamiltonian eigenvalues
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.zeros((2, 1))
    with pytest.raises(NoStabilizingSolutionError):
        linalg.solve_care(a, b, np.zeros((2, 2)), np.eye(1))


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_care_refuses_a_stable_subspace_that_is_not_a_graph(monkeypatch):
    # on these draws one Hamiltonian's stable subspace has a numerically
    # singular first block (reciprocal condition number near 1e-17): the
    # refusal says so, before a solve that would warn and return noise
    refusals = []
    care = linalg.solve_care

    def recorded(*args):
        try:
            return care(*args)
        except CtredError as exc:
            refusals.append(exc)
            raise

    monkeypatch.setattr(linalg, "solve_care", recorded)
    for seed in (1, 2, 11, 13):
        with pytest.raises(SynthesisError):
            generate_instance(6, 5, seed)
    graphs = [exc for exc in refusals if str(exc) == "stable subspace is not a graph"]
    assert len(graphs) == 4
    assert all(type(exc) is NoStabilizingSolutionError for exc in graphs)


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns its call counter."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_ordered_schur_reorders_a_schur_form_without_gees(monkeypatch):
    t = np.array([
        [2.0, 1.0, 0.5, -0.3],
        [0.0, -1.0, 2.0, 0.7],
        [0.0, -3.0, -1.0, 0.2],
        [0.0, 0.0, 0.0, -4.0],
    ])
    _, _, sdim = sla.schur(t, output="real", sort=lambda re, im: re < 0)
    gees = _counting(monkeypatch, sla, "schur")
    form = linalg.ordered_real_schur(t, lambda l: l.real < 0)
    assert gees == []
    assert form.n_selected == 3 == sdim
    assert np.allclose(np.sort_complex(form.eigenvalues[:3]),
                       np.sort_complex([-1 + np.sqrt(6) * 1j, -1 - np.sqrt(6) * 1j, -4.0]))
    assert abs(form.eigenvalues[3] - 2.0) < 1e-12
    assert np.linalg.norm(form.Z @ form.T @ form.Z.T - t) <= 1e-12 * np.linalg.norm(t)
    assert np.linalg.norm(form.Z.T @ form.Z - np.eye(4)) <= 1e-12
    assert linalg._is_real_schur(form.T)


def test_ordered_schur_nonstandard_block_takes_gees(monkeypatch):
    a = np.array([[1.0, 2.0], [-3.0, 2.0]])  # unequal diagonal: not canonical
    assert not linalg._is_real_schur(a)
    gees = _counting(monkeypatch, sla, "schur")
    form = linalg.ordered_real_schur(a, lambda l: l.real > 0)
    assert len(gees) == 1
    assert form.n_selected == 2
    assert np.linalg.norm(form.Z @ form.T @ form.Z.T - a) <= 1e-12 * np.linalg.norm(a)


def test_sylvester_schur_pair_matches_the_general_path(monkeypatch, rng):
    # a Schur pair whose spectra of A and -B nearly meet (both near -4)
    a, _ = sla.schur(rng.standard_normal((5, 5)) - 4.0 * np.eye(5))
    b, _ = sla.schur(rng.standard_normal((3, 3)) - 4.0 * np.eye(3))
    b = -b
    c = rng.standard_normal((5, 3))
    assert linalg._is_real_schur(a) and linalg._is_real_schur(b)
    assert np.any(np.diagonal(a, -1)) and np.any(np.diagonal(b, -1))
    general = sla.solve_sylvester(a, b, -c)
    scipy_path = _counting(monkeypatch, sla, "solve_sylvester")
    x = linalg.solve_sylvester(a, b, c)
    assert scipy_path == []
    assert np.linalg.norm(x - general) <= 1e-12 * np.linalg.norm(general)

    # general, mixed and Schur-pair operands: an operand in real Schur form
    # is its own Schur form, any other takes one gees.  The spectra of A and
    # -B lie about 8 apart here.  Where they nearly meet, ctred (gees of B)
    # and scipy (gees of B^T) can differ by more than 1e-12 on general
    # operands, and neither lies nearer the exact solution
    monkeypatch.undo()
    blocks = 0
    for draw in range(150):
        a = rng.standard_normal((5, 5)) - 4.0 * np.eye(5)
        b = rng.standard_normal((3, 3)) - 4.0 * np.eye(3)
        schur_operands = draw % 3  # general, mixed, or a Schur pair
        if schur_operands:
            a = sla.schur(a, output="real")[0]
        if schur_operands == 2:
            b = sla.schur(b, output="real")[0]
            blocks += bool(np.any(np.diagonal(a, -1)) and np.any(np.diagonal(b, -1)))
        assert linalg._is_real_schur(a) + linalg._is_real_schur(b) == schur_operands
        c = rng.standard_normal((5, 3))
        general = sla.solve_sylvester(a, b, -c)
        with monkeypatch.context() as mp:
            scipy_path = _counting(mp, sla, "solve_sylvester")
            gees = _counting(mp, sla, "schur")
            x = linalg.solve_sylvester(a, b, c)
        assert scipy_path == []
        assert len(gees) == 2 - schur_operands
        assert np.linalg.norm(x - general) <= 1e-12 * np.linalg.norm(general)
    assert blocks > 10  # Schur pairs with 2x2 blocks in both operands


def test_sylvester_schur_pair_separation_error():
    a = np.array([[1.0, 1.0], [0.0, 2.0]])
    b = np.array([[-1.0 - 1e-9]])
    with pytest.raises(SeparationError):
        linalg.solve_sylvester(a, b, np.ones((2, 1)))


def test_modal_form_makes_one_schur_reduction(monkeypatch, rng):
    # eight distinct real poles: eight first-order blocks from one Schur
    # form, contiguous as they come, so no reordering and one triangular
    # Sylvester solve per block column after the first
    k = _eight_real_poles(rng)
    gees = _counting(monkeypatch, sla, "schur")
    sylvester = _counting(monkeypatch, sla, "solve_sylvester")
    peak = _counting(monkeypatch, norms, "_peak_gain")
    detect = _counting(monkeypatch, linalg, "_is_real_schur")
    trsen = _counting(monkeypatch, sla.lapack, "dtrsen")
    trsyl = _counting(monkeypatch, sla.lapack, "dtrsyl")
    md = modal_form(k)
    assert [b.order for b in md.blocks] == [1] * 8
    assert (len(gees), len(sylvester), len(peak)) == (1, 0, 0)
    assert (len(trsen), len(trsyl)) == (0, 7)
    assert len(detect) <= 1


def test_ordered_schur_matches_sorted_gees_bit_for_bit(monkeypatch, rng):
    # the reference is the route ordered_real_schur replaced, LAPACK gees
    # with its sort callback: an unsorted Hessenberg-QR sweep, then trsen
    gees = sla.schur
    sorts = []

    def recording(*args, **kwargs):
        sorts.append(kwargs.get("sort"))
        return gees(*args, **kwargs)

    monkeypatch.setattr(sla, "schur", recording)
    for draw in range(400):
        n = int(rng.integers(2, 17))
        a = rng.standard_normal((n, n))  # real poles and complex pairs
        if draw % 4 == 3:
            a = a + a.T  # real poles only
        values = linalg.eigenvalues(a)
        if draw % 2:
            shift = float(rng.uniform(-1.0, 1.0))

            def select(lam, shift=shift):
                return lam.real < shift
        else:
            v = values[int(rng.integers(n))]
            own = (values == v) | (values == np.conj(v))

            def select(lam, own=own, values=values):
                return _labels(lam, values, own)
        form = linalg.ordered_real_schur(a, select)
        t, z, sdim = gees(a, output="real",
                          sort=lambda re, im: bool(select(complex(re, im))))
        assert np.array_equal(form.T, t) and np.array_equal(form.Z, z)
        assert form.n_selected == sdim
    assert sorts and not any(sorts)


def _called(call):
    """Name of the function a call node calls, bare or as an attribute."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(tree, name):
    """Line numbers of the calls to ``name`` (bare or as an attribute) in ``tree``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called(node) == name]


def test_half_plane_tolerance_has_one_home():
    # every stable, antistable or on-axis decision reads linalg.half_plane_tol
    # or linalg.is_stable; a module with its own stab_tol call would keep a
    # private copy of the rule that the CTRED_TOL_STAB override could miss
    package = Path(linalg.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("tolerances.py", "linalg.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line}" for line in _calls(tree, "stab_tol")]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if any(alias.name == "stab_tol" for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_poly_roots_keeps_small_complex_coefficients():
    # whether a coefficient vector is real is judged relative to its size,
    # so a polynomial whose coefficients are all tiny keeps its imaginary parts
    np.testing.assert_allclose(linalg.poly_roots([1e-9j, 1e-9]), [-1j], atol=1e-12)
    got = linalg.poly_roots([2e-9 + 1e-9j, -3e-9, 1e-9])
    want = np.roots([1e-9, -3e-9, 2e-9 + 1e-9j])
    np.testing.assert_allclose(got, want[np.lexsort((want.imag, want.real))], rtol=1e-12)
    # rounding-level imaginary parts still read as real
    np.testing.assert_allclose(linalg.poly_roots([2.0 + 1e-12j, -3.0, 1.0]), [1.0, 2.0])


def test_coincide_is_relative_to_the_larger_value():
    assert linalg._coincide(1e6, 1e6 + 0.9, 1e-6)
    assert not linalg._coincide(0.0, 1.5e-6, 1e-6)
    assert linalg._coincide(2.0, 2.0 + 2.9e-6, 1e-6) == linalg._coincide(2.0 + 2.9e-6, 2.0, 1e-6)
    np.testing.assert_array_equal(linalg._coincide(np.array([1.0, 1j]), 1j, 1e-6),
                                  [False, True])


def test_root_groups_follow_chains_of_coinciding_values():
    # a~b and b~c put all three in one group although a and c do not
    # coincide; labels count up in order of first appearance
    tol = 1e-6
    a, b, c = 1.0, 1.0 + 1.5e-6, 1.0 + 3e-6
    assert linalg._coincide(a, b, tol) and linalg._coincide(b, c, tol)
    assert not linalg._coincide(a, c, tol)
    labels = linalg._root_groups(np.array([5.0, c, a, -2.0, b]), tol)
    np.testing.assert_array_equal(labels, [0, 1, 1, 2, 1])
    assert linalg._root_groups(np.array([]), tol).size == 0


def test_root_groups_match_a_pairwise_merge_reference(rng):
    # clusters of three values a few tolerances wide, some chained and some
    # split; the reference merges the groups of every coinciding pair
    tol = 1e-6
    for _ in range(50):
        values = np.repeat(rng.uniform(-3.0, 3.0, 4), 3) + rng.uniform(-4e-6, 4e-6, 12)
        ref = list(range(values.size))
        for i in range(values.size):
            for j in range(values.size):
                if abs(values[i] - values[j]) <= tol * (1.0 + max(abs(values[i]), abs(values[j]))):
                    ref = [ref[i] if r == ref[j] else r for r in ref]
        labels = linalg._root_groups(values, tol)
        ref = np.array(ref)
        np.testing.assert_array_equal(labels[:, None] == labels, ref[:, None] == ref)


def test_match_roots_pairs_nearest_first_and_one_to_one():
    tol = 1e-6
    # the target takes the nearer of two coinciding values
    lost, free = linalg._match_roots(np.array([2.0]), np.array([2.0 + 5e-7, 2.0 + 1e-7]), tol)
    assert lost.tolist() == [] and free.tolist() == [0]
    # each pool value pairs once: the third target at 2 finds no partner
    # left, and the one at 7 none at all (thm3's missing structural zero)
    pool = np.array([2.0 + 5e-7, 2.0 + 1e-7, -1.0])
    lost, free = linalg._match_roots(np.array([2.0, 7.0, 2.0, 2.0]), pool, tol)
    assert lost.tolist() == [1, 3] and free.tolist() == [2]
    lost, free = linalg._match_roots(np.array([0.5]), np.array([]), tol)
    assert lost.tolist() == [0] and free.size == 0


def test_gramians_are_factored_in_one_place():
    # the Hankel pass is the one Gramian factorization of reduce.py: no
    # module takes a Cholesky factor, no other reduce.py function solves a
    # Lyapunov equation, and every Lyapunov solve of the package goes
    # through the Gramian kernel (no module calls scipy's solver)
    package = Path(linalg.__file__).parent
    offenders = []
    trsyl = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line}" for line in _calls(tree, "cholesky")]
        offenders += [f"{path.name}:{line}"
                      for line in _calls(tree, "solve_continuous_lyapunov")]
        # no scipy Sylvester solver either: every Sylvester solve is the
        # Bartels-Stewart path of linalg, whose public entry is the only
        # solve_sylvester a module may call
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and _called(node) == "solve_sylvester"
                      and not (isinstance(node.func, ast.Attribute)
                               and isinstance(node.func.value, ast.Name)
                               and node.func.value.id == "linalg")]
        trsyl += [f"{path.name}:{line}" for line in _calls(tree, "dtrsyl")]
        if path.name == "reduce.py":
            solves = [line for name in ("_gramians", "solve_lyapunov")
                      for line in _calls(tree, name)]
            allowed = {line for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "_hankel_pass"
                       for name in ("_gramians", "solve_lyapunov")
                       for line in _calls(node, name)}
            assert allowed, "_hankel_pass no longer solves for the Gramians"
            offenders += [f"{path.name}:{line}" for line in solves if line not in allowed]
    assert offenders == []
    # one triangular step serves every Lyapunov and Sylvester solve
    assert len(trsyl) == 1 and trsyl[0].startswith("linalg.py:"), trsyl


def test_every_import_is_used():
    # a name imported into a ctred module and never read there is dead
    # weight; names exported through __all__ count as read
    package = Path(linalg.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        offenders += [f"{path.name}:{line} {name}" for name, line in imported.items()
                      if name not in used]
    assert offenders == []


def test_is_stable_reads_the_override(monkeypatch):
    a = np.array([[-0.5, 1.0], [0.0, -2.0]])
    assert linalg.half_plane_tol(a) == pytest.approx(2e-8)
    assert linalg.is_stable(a) and linalg.is_stable(np.zeros((0, 0)))
    monkeypatch.setenv("CTRED_TOL_STAB", "0.5")
    assert linalg.half_plane_tol(a) == 0.5
    assert not linalg.is_stable(a)


def _eight_real_poles(rng):
    """Eight real stable poles behind a random similarity: seven Sylvester
    solves and no reordering."""
    t = np.eye(8) + 0.3 * rng.standard_normal((8, 8))
    a = t @ np.diag(-np.arange(1.0, 9.0)) @ np.linalg.inv(t)
    return make_system(a, rng.standard_normal((8, 1)), rng.standard_normal((1, 8)))


def _interleaved_clusters(rng):
    """Upper triangular, so its own Schur form, with three repeated-pole
    clusters interleaved along the diagonal: two reorderings."""
    a = np.triu(0.3 * rng.standard_normal((6, 6)), 1)
    a += np.diag([-1.0, -2.0, -3.0, -1.0 - 1e-9, -2.0 - 1e-9, -3.0 - 1e-9])
    return make_system(a, rng.standard_normal((6, 1)), rng.standard_normal((1, 6)))


def _corrupt_second_call(monkeypatch, name, corrupt):
    """Let LAPACK ``name`` run, but pass its second result through ``corrupt``."""
    real = getattr(sla.lapack, name)
    calls = []

    def patched(*args, **kwargs):
        out = list(real(*args, **kwargs))
        calls.append(name)
        return tuple(corrupt(out) if len(calls) == 2 else out)

    monkeypatch.setattr(sla.lapack, name, patched)
    return calls


def _set(index, change):
    def corrupt(out):
        out[index] = change(out[index])
        return out
    return corrupt


@pytest.mark.parametrize("name, corrupt, error, message", [
    ("dtrsen", _set(7, lambda info: 1), ReorderingError, "trsen info 1"),
    ("dtrsen", _set(0, lambda t: t + 1e-6 * np.triu(np.ones_like(t))),
     ReorderingError, "reconstruction residual"),
    ("dtrsen", _set(4, lambda sdim: sdim + 1), ReorderingError, "partition is inconsistent"),
    ("dtrsyl", _set(2, lambda info: 1), ConvergenceError, "trsyl info 1"),
    ("dtrsyl", _set(1, lambda scale: 0.5), ConvergenceError, "scale 5.00e-01"),
    ("dtrsyl", _set(0, lambda x: x + 1e-6), ConvergenceError, "Sylvester residual"),
])
def test_every_peel_step_is_checked(monkeypatch, rng, name, corrupt, error, message):
    # modal_form reorders and decouples with the checks of
    # ordered_real_schur and solve_sylvester: a bad LAPACK result at a
    # later reordering or Sylvester solve still raises
    k = (_interleaved_clusters if name == "dtrsen" else _eight_real_poles)(rng)
    calls = _corrupt_second_call(monkeypatch, name, corrupt)
    with pytest.raises(error, match=message):
        modal_form(k)
    assert len(calls) == 2


def test_peel_step_checks_the_spectral_gap(monkeypatch, rng):
    # modal_form's own cluster gap passes; the Sylvester step's gap, read
    # from the spectra of the one Schur form, refuses
    monkeypatch.setattr(linalg, "SEP_REL", 1.0)
    with pytest.raises(SeparationError, match="spectral gap"):
        modal_form(_eight_real_poles(rng))


def _shifted_draw(rng, n):
    """Random n x n matrix with complex eigenvalues, shifted so its spectral
    abscissa lies 0.3 to 2 left of the imaginary axis."""
    m = rng.standard_normal((n, n)) / np.sqrt(n)
    return m - (np.linalg.eigvals(m).real.max() + rng.uniform(0.3, 2.0)) * np.eye(n)


def _counted_schur(mp):
    """Record the arguments of every ``scipy.linalg.schur`` call."""
    calls, original = [], sla.schur

    def counted(a, *args, **kwargs):
        calls.append(np.array(a))
        return original(a, *args, **kwargs)

    mp.setattr(sla, "schur", counted)
    return calls


@pytest.mark.parametrize("form", ["schur", "mirror", "general"])
def test_gramian_kernel_matches_scipy(rng, monkeypatch, form):
    # both Gramians from one Schur form: A itself, the mirror T = -A^T, or
    # one gees; each matches scipy's solver to 1e-12 relative
    blocks = taken = 0
    for _ in range(130):
        n = int(rng.integers(1, 17))
        if form == "schur":
            a = sla.schur(_shifted_draw(rng, n), output="real")[0]
        elif form == "mirror":
            a = -sla.schur(-_shifted_draw(rng, n), output="real")[0].T
        else:
            a = _shifted_draw(rng, n)
        # an order-1 matrix, or one 2x2 block, is also its own Schur form
        path = ("schur" if linalg._is_real_schur(a) else
                "mirror" if linalg._is_real_schur(-a.T) else "general")
        taken += path == form
        blocks += int(np.count_nonzero(np.diag(a, -1 if form == "schur" else 1)))
        b = rng.standard_normal((n, 2))
        c = rng.standard_normal((3, n))
        with monkeypatch.context() as mp:
            calls = _counted_schur(mp)
            wc, wo = linalg._gramians(a, (b @ b.T,), (c.T @ c,))
        assert len(calls) == (path == "general")
        for x, ref in ((wc, sla.solve_continuous_lyapunov(a, -b @ b.T)),
                       (wo, sla.solve_continuous_lyapunov(a.T, -c.T @ c))):
            assert np.array_equal(x, x.T)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    assert taken >= 100
    if form != "general":
        assert blocks > 100  # the draws have 2x2 blocks


@pytest.mark.parametrize("form", ["schur", "mirror", "general"])
def test_gramian_kernel_refuses_an_unstable_matrix(rng, form):
    # stability is read from the Schur diagonal against half_plane_tol(A)
    t = sla.schur(_shifted_draw(rng, 6), output="real")[0]
    for shift in (0.0, -1e-9):  # an eigenvalue on the axis, or within the tolerance
        lead = t - (t[0, 0] + shift) * np.eye(6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = {"schur": lead, "mirror": -lead.T, "general": q @ lead @ q.T}[form]
        with pytest.raises(StabilityError, match="left half-plane"):
            linalg._gramians(a, (np.eye(6),))
        with pytest.raises(StabilityError, match="left half-plane"):
            linalg.solve_lyapunov(a, np.eye(6))


@pytest.mark.parametrize("form", ["schur", "mirror", "general"])
@pytest.mark.parametrize("corrupt, message", [
    (_set(2, lambda info: 1), "trsyl info 1"),
    (_set(1, lambda scale: 0.5), "scale 5.00e-01"),
    (_set(0, lambda x: x + 1e-6), "Lyapunov residual"),
])
def test_every_gramian_solve_is_checked(monkeypatch, rng, form, corrupt, message):
    # a bad trsyl result raises, whichever Schur form the kernel took
    m = _shifted_draw(rng, 6)
    a = {"schur": sla.schur(m, output="real")[0],
         "mirror": -sla.schur(-m, output="real")[0].T, "general": m}[form]
    real = sla.lapack.dtrsyl
    calls = []

    def patched(*args, **kwargs):
        calls.append(kwargs)
        return tuple(corrupt(list(real(*args, **kwargs))))

    monkeypatch.setattr(sla.lapack, "dtrsyl", patched)
    with pytest.raises(ConvergenceError, match=message):
        linalg._gramians(a, (np.eye(6),))
    with pytest.raises(ConvergenceError, match=message):
        linalg.solve_lyapunov(a, np.eye(6))
    assert len(calls) == 2
