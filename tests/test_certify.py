import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
import scipy.integrate

from conftest import criterion_07_triples, grid_peak_oracle, mimo_balanced_triples
from ctred import certify, decompose, linalg, norms, statespace
from ctred.benchmarks import bench_balanced_vs_modal_pair, bench_unstable_pair
from ctred.certify import (
    ReductionCertificate,
    check_cor1,
    check_cor2,
    check_lemma3,
    check_thm1,
    check_thm2_bound,
    check_thm3,
    lqg_cost,
    lqg_cost_blocks,
)
from ctred.decompose import split_stable_unstable
from ctred.errors import (
    AxisPoleError,
    ConvergenceError,
    CtredError,
    DimensionError,
    NotStabilizingError,
    SeparationError,
    UnsupportedError,
    WrongCertificateError,
    ZeroModeError,
)
from ctred.gen import (
    generate_instance,
    random_stable_minimal,
    synthesize_stabilizing_plant,
)
from ctred.norms import h2_norm
from ctred.reduce import (
    TruncationResult,
    balanced_truncate_unstable,
    minimal_realization,
    modal_truncate,
)
from ctred.statespace import (
    StateSpaceSystem,
    _stabilizing_four_block,
    add,
    four_block,
    make_system,
    negate,
    series,
)


@pytest.fixture(scope="module")
def balmod():
    return bench_balanced_vs_modal_pair()


@pytest.fixture(scope="module")
def unstable_pair():
    return bench_unstable_pair()


def test_lqg_cost_balmod(balmod):
    g, k = balmod
    assert lqg_cost(g, k) == pytest.approx(8.0552, rel=0.01)


def test_lqg_cost_unstable_pair(unstable_pair):
    g, k = unstable_pair
    # frozen from the Gramian evaluation and confirmed by quadrature below;
    # the bundled reference 343.2 reflects higher-precision fixture data
    assert lqg_cost(g, k) == pytest.approx(314.9987, rel=1e-4)
    mt = modal_truncate(k, 1)
    val = lqg_cost(g, mt.reduced)
    assert val == pytest.approx(56.7548, rel=1e-4)
    assert val == pytest.approx(58.2, rel=0.05)


def test_lqg_cost_requires_stabilizing():
    g = make_system([[1.0]], [[1.0]], [[1.0]])
    k0 = make_system([[-1.0]], [[1.0]], [[0.0]])
    with pytest.raises(NotStabilizingError):
        lqg_cost(g, k0)


def test_lqg_cost_equals_block_sum(balmod):
    g, k = balmod
    total, parts = lqg_cost_blocks(g, k)
    assert total == pytest.approx(sum(parts), rel=1e-8)


def test_lqg_cost_blocks_match_h2_of_each_block(balmod, unstable_pair):
    # exactly the blocks' norms on the loop's Schur realization, and within
    # rounding of those on the shared closed-loop state
    for g, k in (balmod, unstable_pair):
        fb = _stabilizing_four_block(g, k)
        _, parts = lqg_cost_blocks(g, k)
        assert parts == [h2_norm(fb.block(i, j)) ** 2 for i in (0, 1) for j in (0, 1)]
        fb = four_block(g, k)
        assert parts == pytest.approx(
            [h2_norm(fb.block(i, j)) ** 2 for i in (0, 1) for j in (0, 1)], rel=1e-10)


def test_loop_quantities_solve_one_gramian_per_input_block(balmod, unstable_pair,
                                                           monkeypatch):
    # x and kx share the first input block, xk and ky the second, and the
    # cost keeps its own Gramian: one kernel call with three right-hand
    # sides per loop, on the state matrix of the loop's Schur realization,
    # which takes triangular solves only and is handed as the form the
    # loop's system holds, so it is not scanned
    for g, k in (balmod, unstable_pair):
        loop = certify._LoopAnalysis(g, k)
        calls, scans = [], []
        original, is_schur = linalg._gramians, linalg._is_real_schur

        def counted(a, controllability, observability=(), held=None):
            calls.append((len(controllability), len(observability),
                           a is loop.fb.system.A and is_schur(a)))
            return original(a, controllability, observability, held)

        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_gramians", counted)
            mp.setattr(linalg, "_is_real_schur", lambda t: scans.append(t) or is_schur(t))
            q = loop.quantities
        assert calls == [(3, 0, True)]
        assert scans == []
        fb = loop.fb
        for name, block in (("x_h2", fb.x), ("kx_h2", fb.kx), ("xk_h2", fb.xk),
                            ("ky_h2", fb.ky)):
            assert q[name] == h2_norm(block), name
        assert q["cost_original"] == h2_norm(fb.system) ** 2


def test_loop_analysis_makes_one_schur_form(balmod, unstable_pair, monkeypatch):
    # the loop analysis reduces the closed-loop matrix to real Schur form
    # once and realizes the loop on it: the stability test reads the form's
    # diagonal, and the three H2 Gramians and X's Hankel pass take only
    # triangular solves.  Construction makes no Schur form but that one and
    # the split of k's, quantities and x_bound make none, lqg_cost and
    # lqg_cost_blocks one each of the closed-loop matrix, and nothing makes
    # an eigen-solve of the closed-loop matrix
    for g, k in (balmod, unstable_pair):
        acl = four_block(g, k).system.A
        schurs, eigvals_shapes = [], []
        schur, eigvals = linalg._gees, linalg._geev

        def counted_schur(a, *args, **kwargs):
            schurs.append(np.array(a))
            return schur(a, *args, **kwargs)

        def counted_eigvals(a):
            eigvals_shapes.append(np.shape(a))
            return eigvals(a)

        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_gees", counted_schur)
            mp.setattr(linalg, "_geev", counted_eigvals)
            loop = certify._LoopAnalysis(g, k)
            built = len(schurs)
            loop.quantities, loop.x_bound
            assert len(schurs) == built
            lqg_cost(g, k)
            lqg_cost_blocks(g, k)
        on_acl = [np.array_equal(a, acl) for a in schurs]
        assert on_acl[built:] == [True, True]
        assert sum(on_acl[:built]) == 1
        assert all(np.array_equal(a, k.A) for a, hit in zip(schurs[:built], on_acl)
                   if not hit)
        assert acl.shape not in eigvals_shapes


def test_lqg_cost_quadrature_oracle(balmod):
    g, k = balmod
    fb = four_block(g, k).system

    def integrand(w):
        m = fb.eval(1j * w)
        return float(np.trace(m.conj().T @ m).real)

    ref, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=500)
    ref /= np.pi
    assert lqg_cost(g, k) == pytest.approx(ref, rel=1e-4)


def test_lemma3_trivial_identity(balmod):
    g, k = balmod
    cert = check_lemma3(g, k, k)
    assert cert.condition_satisfied
    assert cert.verified_stable
    assert cert.quantities["x_delta_linf"] < 1e-9


def test_lemma3_balanced_reduction(balmod):
    g, k = balmod
    res = balanced_truncate_unstable(k, 2)
    cert = check_lemma3(g, k, res.reduced)
    assert cert.condition_satisfied
    assert cert.quantities["unstable_poles_original"] == 1.0
    assert cert.quantities["unstable_poles_reduced"] == 1.0


def test_lemma3_conservative_on_unstable_truncation(unstable_pair):
    g, k = unstable_pair
    mt = modal_truncate(k, 1)
    cert = check_lemma3(g, k, mt.reduced)
    assert not cert.condition_satisfied  # pole counts drop from 2 to 1
    assert cert.quantities["unstable_poles_original"] == 2.0
    assert cert.quantities["unstable_poles_reduced"] == 1.0
    assert cert.verified_stable  # the sufficient condition is conservative


def _minreal_unstable_count(s, tol):
    """Reference count: eigenvalues right of ``tol`` of a minimal realization
    (None when that realization is unavailable)."""
    try:
        ev = linalg.eigenvalues(minimal_realization(s).A)
    except (AxisPoleError, SeparationError, ConvergenceError):
        return None
    return float(np.sum(ev.real > tol))


def test_lemma3_counts_match_the_minimal_realization_route(balmod, unstable_pair):
    # the split's antistable order counts the same unstable poles as the
    # eigenvalues of a minimal realization, which cuts both parts at least
    # as deep
    triples = list(criterion_07_triples(100))
    for (g, k), reduced in ((balmod, balanced_truncate_unstable(balmod[1], 2).reduced),
                            (unstable_pair, modal_truncate(unstable_pair[1], 1).reduced)):
        triples += [(g, k, k), (g, k, reduced)]
    for g, k, k_r in triples:
        tol = max(linalg.half_plane_tol(k.A), linalg.half_plane_tol(k_r.A))
        ref = [_minreal_unstable_count(s, tol) for s in (k, k_r)]
        if None in ref:
            ref = [None, None]
        q = check_lemma3(g, k, k_r).quantities
        assert [q.get("unstable_poles_original"), q.get("unstable_poles_reduced")] == ref


def test_lemma3_builds_no_minimal_realization(balmod, unstable_pair, monkeypatch):
    def refuse(s):
        raise AssertionError("lemma3 built a minimal realization")

    original = minimal_realization
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ctred" and getattr(module, "minimal_realization",
                                                     None) is original:
            monkeypatch.setattr(module, "minimal_realization", refuse)
    cert = check_lemma3(*balmod, balanced_truncate_unstable(balmod[1], 2).reduced)
    assert cert.quantities["unstable_poles_reduced"] == 1.0
    cert = check_lemma3(*unstable_pair, modal_truncate(unstable_pair[1], 1).reduced)
    assert cert.quantities["unstable_poles_original"] == 2.0


def test_lemma3_refuses_counts_for_a_pole_at_the_origin(unstable_pair):
    g, k = unstable_pair
    k_r = add(k, make_system([[0.0]], [[1.0]], [[1.0]]))  # K + 1/s
    cert = check_lemma3(g, k, k_r)
    assert not cert.condition_satisfied
    assert "unstable_poles_reduced" not in cert.quantities
    assert any(n.startswith("unstable pole count of the reduced controller undefined")
               for n in cert.notes)


def test_lemma3_refuses_counts_for_an_integrating_controller():
    # K = -1/s stabilizes 1/(s+1) but does not split; K_r = -1/(s+0.01)
    # does, and the error analysis stops at K's refusal (thm2's too)
    g = make_system([[-1.0]], [[1.0]], [[1.0]])
    k = make_system([[0.0]], [[1.0]], [[-1.0]])
    k_r = make_system([[-0.01]], [[1.0]], [[-1.0]])
    cert = check_lemma3(g, k, k_r)
    assert not cert.condition_satisfied
    assert "unstable_poles_original" not in cert.quantities
    assert any(n.startswith("unstable pole count of the original controller undefined")
               for n in cert.notes)
    assert math.isinf(cert.quantities["x_delta_linf"])
    thm2 = check_thm2_bound(g, k, k_r)
    assert not thm2.condition_satisfied and thm2.cost_bound is None
    assert math.isinf(thm2.quantities["delta_hinf"])
    assert thm2.notes[0].startswith("error system: stability undecidable (")


def test_thm1_trivial_identity(balmod):
    g, k = balmod
    cert = check_thm1(g, k, k)
    assert cert.condition_satisfied and cert.verified_stable


def test_thm1_balanced_reduction(balmod):
    g, k = balmod
    res = balanced_truncate_unstable(k, 2)
    cert = check_thm1(g, k, res.reduced)
    assert cert.condition_satisfied
    assert cert.verified_stable
    assert max(cert.quantities["x_delta_hinf"],
               cert.quantities["delta_x_hinf"]) < 1.0


def test_thm1_condition_false_but_stable():
    # sufficiency, not necessity: a large stable detuning of the
    # controller can break the small-gain test yet keep the loop stable
    for seed in range(40):
        g, k = generate_instance(4, 0, seed)
        for gain in (2.0, 4.0, 8.0):
            detuned = add(k, make_system([[-8.0]], [[gain]], [[gain]]))
            cert = check_thm1(g, k, detuned)
            if not cert.condition_satisfied and cert.verified_stable:
                return
    pytest.fail("no conservative instance found in the searched seeds")


def test_thm1_soundness_batch():
    violations = 0
    passes = 0
    for seed in range(60):
        g, k = generate_instance(4, 1, seed)
        try:
            res = balanced_truncate_unstable(k, k.n - 1)
        except Exception:
            continue
        cert = check_thm1(g, k, res.reduced)
        if cert.condition_satisfied:
            passes += 1
            if not cert.verified_stable:
                violations += 1
    assert passes > 10
    assert violations == 0


@pytest.mark.parametrize("pole, refusal", [(0.7, " is not stable"),
                                           (0.0, ": stability undecidable")])
def test_thm1_fails_on_a_reduced_controller_pole_k_lacks(pole, refusal):
    # K is stable and K_r adds a mode at ``pole``: delta has no stable
    # realization, so thm1 tests each whole product and refuses it
    g, k = generate_instance(4, 0, 0)
    k_r = add(k, make_system([[pole]], [[0.5]], [[0.5]]))
    cert = check_thm1(g, k, k_r)
    assert not cert.condition_satisfied
    assert cert.quantities["x_delta_hinf"] == cert.quantities["delta_x_hinf"] == math.inf
    for label in ("delta*Y", "X*delta", "delta*X"):
        assert any(n.startswith(label + refusal) for n in cert.notes)
    assert "delta*(I-GK)^{-1} is not stable" in cert.notes
    q = check_lemma3(g, k, k_r).quantities
    if pole > 0.0:
        assert (q["unstable_poles_original"], q["unstable_poles_reduced"]) == (0.0, 1.0)
    else:
        assert "unstable_poles_reduced" not in q


def test_thm2_zero_delta(balmod):
    g, k = balmod
    cert = check_thm2_bound(g, k, k)
    assert cert.condition_satisfied
    # the raw difference realization leaves rounding-level residue only
    assert cert.quantities["s1"] <= 1e-10
    assert cert.quantities["s2"] <= 1e-10
    assert cert.cost_bound == pytest.approx(lqg_cost(g, k), rel=1e-9)


def test_thm2_balanced_reduction(balmod):
    g, k = balmod
    res = balanced_truncate_unstable(k, 2)
    cert = check_thm2_bound(g, k, res.reduced)
    assert cert.condition_satisfied
    j_red = lqg_cost(g, res.reduced)
    assert j_red == pytest.approx(8.0552, rel=0.01)
    assert j_red <= cert.cost_bound


def test_thm2_bound_soundness_batch():
    checked = 0
    for seed in range(40):
        g, k = generate_instance(4, 1, seed)
        try:
            res = balanced_truncate_unstable(k, k.n - 1)
        except Exception:
            continue
        cert = check_thm2_bound(g, k, res.reduced)
        if not cert.condition_satisfied:
            continue
        checked += 1
        assert lqg_cost(g, res.reduced) <= cert.cost_bound
    assert checked > 10


def test_thm2_unstable_delta_fails_condition(unstable_pair):
    g, k = unstable_pair
    mt = modal_truncate(k, 1)
    cert = check_thm2_bound(g, k, mt.reduced)
    assert not cert.condition_satisfied
    assert math.isinf(cert.quantities["delta_hinf"])
    assert cert.cost_bound is None


def test_cor1_empty_tail(balmod):
    g, k = balmod
    trivial = TruncationResult(k, "balanced", ())
    cert = check_cor1(g, k, trivial)
    assert cert.condition_satisfied
    assert cert.quantities["sigma_tail_sum"] == 0.0


def test_cor1_benchmark(balmod):
    g, k = balmod
    res = balanced_truncate_unstable(k, 2)
    cert = check_cor1(g, k, res)
    assert cert.condition_satisfied
    assert cert.verified_stable
    assert lqg_cost(g, res.reduced) <= cert.cost_bound


def test_cor1_huge_tail_fails():
    # discarding the whole stable part leaves a Hankel tail too large for
    # the condition (seed frozen from a search over generated instances)
    g, k = generate_instance(5, 1, 0)
    res = balanced_truncate_unstable(k, 1)
    cert = check_cor1(g, k, res)
    assert not cert.condition_satisfied
    assert cert.quantities["sigma_tail_sum"] > 1.0 / (2 * cert.quantities["x_hinf"])


def test_cor1_tail_condition_fails_on_an_unstable_error():
    # a hand-built "balanced" result whose tail is tiny while K_r adds a
    # genuine antistable mode 0.5/(s-1) to K
    g = make_system([[-1.0]], [[1.0]], [[1.0]])
    k = make_system([[-2.0]], [[1.0]], [[-1.0]])
    k_r = make_system(np.diag([-2.0, 1.0]), [[1.0], [1.0]], [[-1.0, 0.5]])
    cert = check_cor1(g, k, TruncationResult(k_r, "balanced", (1e-6,)))
    q = cert.quantities
    assert q["sigma_tail_sum"] < 1.0 / (2.0 * q["x_hinf"])
    assert math.isinf(q["delta_hinf"])
    assert not cert.condition_satisfied and cert.cost_bound is None
    assert "tail condition held but the error system is not stable" in cert.notes


def test_cor1_fails_on_a_tail_its_measured_error_contradicts(balmod):
    # a hand-built "balanced" result whose tail (1e-9) claims a tiny error
    # while K_r adds 9/(s+1): ||delta|| is about 9 and x_hinf about 2.05,
    # so the small-gain margin the tail promises is gone
    g, k = balmod
    k_r = add(balanced_truncate_unstable(k, 2).reduced,
              make_system([[-1.0]], [[1.0]], [[9.0]]))
    cert = check_cor1(g, k, TruncationResult(k_r, "balanced", (1e-9,)))
    q = cert.quantities
    assert q["sigma_tail_sum"] < 1.0 / (2.0 * q["x_hinf"])
    assert q["delta_hinf"] == pytest.approx(9.0, rel=1e-5)
    assert q["x_hinf"] * q["delta_hinf"] >= 1.0
    assert not cert.condition_satisfied and cert.cost_bound is None
    assert cert.notes == ("tail condition held but x_hinf * delta_hinf >= 1",)


def test_cor1_passes_when_x_vanishes():
    # C = 0 makes X = 0: any tail meets the condition, which used to divide
    # by 2*||X||_inf, and cor1 bounds the cost as thm2 does
    g = make_system(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[0.0, 0.0]])
    k = make_system(np.diag([-3.0, -4.0]), [[1.0], [2.0]], [[1.0, 1.0]])
    res = balanced_truncate_unstable(k, 1)
    cert = check_cor1(g, k, res)
    assert cert.quantities["x_hinf"] == 0.0
    assert cert.condition_satisfied and cert.notes == ()
    assert cert.cost_bound == check_thm2_bound(g, k, res.reduced).cost_bound


@pytest.mark.parametrize("make, error", [
    (lambda k: check_cor1(k[0], k[1], TruncationResult(k[1], "modal", ())),
     WrongCertificateError),
    (lambda k: ReductionCertificate("thm9", {}, False, None, True), ValueError),
], ids=["cor1 on a modal truncation", "unknown theorem"])
def test_certificates_refuse_the_wrong_kind(balmod, make, error):
    with pytest.raises(error):
        make(balmod)


def test_cor2_zero_delta(balmod):
    g, k = balmod
    cert = check_cor2(g, k, k)
    assert cert.condition_satisfied
    assert cert.cost_bound == pytest.approx(lqg_cost(g, k), rel=1e-9)


def test_cor2_benchmark_modal(balmod):
    g, k = balmod
    split = split_stable_unstable(k)
    mt = modal_truncate(split.stable_part, 1)
    k_r = add(mt.reduced, split.unstable_part)
    cert = check_cor2(g, k, k_r)
    assert cert.condition_satisfied
    j_red = lqg_cost(g, k_r)
    assert j_red == pytest.approx(8.9928, rel=0.01)
    assert j_red <= cert.cost_bound
    # the single-coefficient variant of the first penalty term is recorded
    assert cert.quantities["s1_single_h2_term"] <= cert.quantities["s1"]


def test_cor2_soundness_batch():
    checked = 0
    for seed in range(40):
        g, k = generate_instance(4, 1, seed)
        split = split_stable_unstable(k)
        if split.stable_part.n < 2:
            continue
        try:
            mt = modal_truncate(split.stable_part, 1)
        except Exception:
            continue
        k_r = add(mt.reduced, split.unstable_part)
        try:
            cert = check_cor2(g, k, k_r)
        except WrongCertificateError:
            continue
        if not cert.condition_satisfied:
            continue
        checked += 1
        assert lqg_cost(g, k_r) <= cert.cost_bound
    assert checked > 10


def test_cor2_rejects_unstable_delta(unstable_pair):
    g, k = unstable_pair
    mt = modal_truncate(k, 1)
    with pytest.raises(WrongCertificateError):
        check_cor2(g, k, mt.reduced)


def test_thm3_trivial_identity(unstable_pair):
    g, k = unstable_pair
    cert = check_thm3(g, k, k)
    assert cert.condition_satisfied
    assert cert.cost_bound == pytest.approx(lqg_cost(g, k), rel=1e-6)


def test_thm3_benchmark(unstable_pair):
    g, k = unstable_pair
    mt = modal_truncate(k, 1)
    cert = check_thm3(g, k, mt.reduced)
    assert cert.condition_satisfied
    assert cert.verified_stable
    j_red = lqg_cost(g, mt.reduced)
    assert j_red <= cert.cost_bound
    # the bound is valid but far above the nominal cost here
    assert cert.cost_bound > lqg_cost(g, k)


def test_thm3_rejects_mimo():
    a = -np.eye(2)
    g2 = make_system(a, np.eye(2), np.eye(2))
    with pytest.raises(UnsupportedError):
        check_thm3(g2, g2, g2)


def test_thm3_rejects_origin_pole(unstable_pair):
    g, k = unstable_pair
    k_r = add(k, make_system([[0.0]], [[1.0]], [[0.5]]))
    with pytest.raises(ZeroModeError):
        check_thm3(g, k, k_r)


def test_thm3_rejects_imaginary_axis_poles_away_from_the_origin():
    # K has poles at +-j; the plant is synthesized to be stabilized by it
    k = make_system([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]])
    g = synthesize_stabilizing_plant(k)
    with pytest.raises(AxisPoleError, match="imaginary-axis poles"):
        check_thm3(g, k, make_system([[-1.0]], [[1.0]], [[1.0]]))


def test_certificate_invariants():
    with pytest.raises(ValueError):
        ReductionCertificate("thm1", {}, True, 1.0, True)  # thm1 carries no bound
    with pytest.raises(ValueError):
        ReductionCertificate("thm2", {}, False, 1.0, True)  # bound only on pass
    with pytest.raises(ValueError):
        ReductionCertificate("thm1", {}, True, None, True, kinds={"x": "guessed"})
    cert = ReductionCertificate("thm2", {"delta_hinf": math.inf}, False, None, True,
                                kinds={"delta_hinf": "computed"})
    doc = cert.to_dict()
    assert doc["quantities"]["delta_hinf"] == "inf"
    assert doc["kinds"] == {"delta_hinf": "computed"}


@pytest.mark.parametrize("check", [check_lemma3, check_thm1, check_thm2_bound,
                                   check_cor1, check_cor2, check_thm3])
def test_biproper_reduced_controller_is_an_input_error(balmod, check):
    # the reduced loop is only defined for a strictly proper K_r; a
    # feedthrough used to pass lemma3 and thm1 with an infinite abscissa
    g, k = balmod
    k_r = StateSpaceSystem(k.A, k.B, k.C, np.array([[0.01]]))
    if check is check_cor1:
        k_r = TruncationResult(k_r, "balanced", ())
    with pytest.raises(DimensionError, match="strictly proper"):
        check(g, k, k_r)


@pytest.mark.parametrize("check, error", [
    (check_lemma3, DimensionError), (check_thm1, DimensionError),
    (check_thm2_bound, DimensionError), (check_cor1, DimensionError),
    (check_cor2, DimensionError), (check_thm3, UnsupportedError),
], ids=["lemma3", "thm1", "thm2", "cor1", "cor2", "thm3"])
def test_reduced_controller_of_the_wrong_shape_is_refused(balmod, check, error):
    # K_r must map the plant's one output to its one input; thm3 refuses a
    # K_r that is not SISO before it reaches the loop
    g, k = balmod
    for k_r in (make_system(k.A, np.hstack([k.B, k.B]), k.C),
                make_system(k.A, k.B, np.vstack([k.C, k.C]))):
        arg = TruncationResult(k_r, "balanced", ()) if check is check_cor1 else k_r
        with pytest.raises(error, match=None if check is check_thm3 else "controller must map"):
            check(g, k, arg)


def _fresh(s):
    """An equal copy of a strictly proper system, or of a truncation result
    with such a reduced controller, that is a new object."""
    if isinstance(s, TruncationResult):
        return dataclasses.replace(s, reduced=_fresh(s.reduced))
    return make_system(s.A, s.B, s.C)


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_bound_certificates_share_one_loop_analysis(balmod, monkeypatch):
    # thm2, cor1 and cor2 on the same (G, K) objects analyse the loop once;
    # the same content in new objects is analysed anew (no content key)
    g0, k0 = balmod
    res = balanced_truncate_unstable(k0, 2)
    split = split_stable_unstable(k0)
    k_modal = add(modal_truncate(split.stable_part, 1).reduced, split.unstable_part)
    checks = ((check_thm2_bound, res.reduced), (check_cor1, res), (check_cor2, k_modal))
    calls = {}
    _count_calls(monkeypatch, certify, "_loop_quantities", calls)
    _count_calls(monkeypatch, statespace, "four_block", calls)
    g, k = _fresh(g0), _fresh(k0)
    for check, arg in checks:
        check(g, k, arg)
    assert calls == {"_loop_quantities": 1, "four_block": 1}
    for check, arg in checks:
        check(_fresh(g0), _fresh(k0), arg)
    assert calls == {"_loop_quantities": 4, "four_block": 4}


def test_loop_analysis_builds_each_four_block_once(balmod, monkeypatch):
    # the loop quantities and lemma3 read X, KX and Y (hence XK) of one
    # held map: each block is realized once
    g, k = _fresh(balmod[0]), _fresh(balmod[1])
    calls = {}
    block = statespace.FourBlockMap.block

    def counted(self, i, j):
        calls[i, j] = calls.get((i, j), 0) + 1
        return block(self, i, j)

    monkeypatch.setattr(statespace.FourBlockMap, "block", counted)
    k_r = balanced_truncate_unstable(k, 2).reduced
    certify._loop(g, k, k_r).quantities
    check_lemma3(g, k, k_r)
    assert calls == {(0, 0): 1, (0, 1): 1, (1, 0): 1}


@pytest.mark.parametrize("first, second", [(check_lemma3, check_thm1),
                                           (check_thm1, check_lemma3)])
def test_lemma3_and_thm1_share_error_peak_gains(monkeypatch, first, second):
    # with a stable controller X*delta and delta*X are stable as realized,
    # so thm1 tests the very products lemma3 tests.  The detuning's Hankel
    # bound times X's Hankel bound is above one (1.21), so neither decides
    # and the one peak gain is the SISO product's, searched once for both
    g, k = generate_instance(4, 0, 0)
    k_r = add(k, make_system([[-2.0]], [[48.0]], [[50.0]]))
    expected = [check(_fresh(g), _fresh(k), _fresh(k_r)).to_dict()
                for check in (first, second)]
    calls = {}
    _count_calls(monkeypatch, norms, "_peak_gain", calls)
    certs = [check(g, k, k_r) for check in (first, second)]
    assert [cert.to_dict() for cert in certs] == expected
    assert calls == {"_peak_gain": 1}
    gains = set()
    for cert in certs:
        assert cert.condition_satisfied
        assert set(cert.kinds.values()) == {"computed"}
        gains |= {cert.quantities[name] for name in cert.kinds}
    assert len(gains) == 1


def test_x_hankel_bound_decides_without_a_peak_gain(monkeypatch):
    # ||X||_inf enters bound first: X's Hankel bound times delta's is below
    # one, so lemma3 and thm1 pass without any peak-gain search
    g, k = generate_instance(4, 0, 0)
    k_r = balanced_truncate_unstable(k, 3).reduced
    calls = {}
    _count_calls(monkeypatch, norms, "_peak_gain", calls)
    certs = [check(g, k, k_r) for check in (check_lemma3, check_thm1)]
    assert calls == {}
    loop = certify._loop(g, k, k_r)
    bound = loop.x_bound * loop.error(k_r).delta_bound
    assert bound < 1.0
    for cert, name in zip(certs, ("x_delta_linf", "x_delta_hinf")):
        assert cert.condition_satisfied
        assert set(cert.kinds.values()) == {"upper_bound"}
        assert cert.quantities[name] == bound


def test_refused_x_gramian_falls_back_to_the_computed_norm(monkeypatch):
    # a loop whose X Gramian misses its residual check has no Hankel bound:
    # x_bound is inf, so no product of bounds decides (thm1's dropped part
    # is inf * 0, NaN), and lemma3 and thm1 record the products' computed
    # peak gains, at or below the bounds that decide on the same loop when
    # the Gramian is kept; no other error is caught
    g, k = generate_instance(4, 0, 0)
    k_r = balanced_truncate_unstable(k, 3).reduced
    checks = (check_lemma3, check_thm1)
    proven = [check(_fresh(g), _fresh(k), _fresh(k_r)) for check in checks]

    def refused(s):
        raise ConvergenceError("Lyapunov residual 1.45e-03 exceeds tolerance")

    monkeypatch.setattr(certify, "_hankel_pass", refused)
    certs = [check(g, k, k_r) for check in checks]
    assert certify._loop(g, k, k_r).x_bound == math.inf
    gain = norms.linf_norm(series(four_block(g, k).x, add(k_r, negate(k))))
    for cert, bound in zip(certs, proven):
        assert set(bound.kinds.values()) == {"upper_bound"}
        assert set(cert.kinds.values()) == {"computed"}
        assert cert.condition_satisfied == bound.condition_satisfied
        for name in cert.kinds:
            assert cert.quantities[name] == pytest.approx(gain, rel=1e-8)
            assert cert.quantities[name] <= bound.quantities[name]

    def failing(s):
        raise ZeroDivisionError("defect")

    monkeypatch.setattr(certify, "_hankel_pass", failing)
    with pytest.raises(ZeroDivisionError):
        check_lemma3(_fresh(g), _fresh(k), k_r)


def test_x_hankel_bound_is_at_least_the_computed_norm():
    for g, k, _ in criterion_07_triples(40):
        loop = certify._LoopAnalysis(g, k)
        assert loop.x_bound >= loop.quantities["x_hinf"]


def test_lemma3_and_thm1_search_no_peak_gain_of_x(monkeypatch):
    # ||X||_inf enters lemma3 and thm1 only as X's Hankel-sum bound: where
    # the product of bounds does not decide, the error product's own peak
    # gain is searched, never X's
    searched = []
    original = norms._peak_gain

    def recorded(s):
        searched.append(s)
        return original(s)

    monkeypatch.setattr(norms, "_peak_gain", recorded)
    x_searches = products = 0
    for g, k, k_r in itertools.chain(criterion_07_triples(40), mimo_balanced_triples(12)):
        searched.clear()
        check_lemma3(g, k, k_r)
        check_thm1(g, k, k_r)
        x = _stabilizing_four_block(g, k).x
        x_searches += sum(all(np.array_equal(getattr(s, f), getattr(x, f)) for f in "ABCD")
                          for s in searched)
        products += len(searched)
    assert x_searches == 0
    assert products > 0  # the products of bounds did not decide everywhere


def test_siso_products_share_one_peak_gain_search(monkeypatch):
    # in a SISO loop X*delta and delta*X are one transfer function: with a
    # stable controller and a detuning the bound does not decide, lemma3
    # and thm1 search one product, whose gain stands for both
    g, k = generate_instance(4, 0, 0)
    k_r = add(k, make_system([[-2.0]], [[100.0]], [[100.0]]))
    calls = {}
    _count_calls(monkeypatch, norms, "_peak_gain", calls)
    lemma3, thm1 = check_lemma3(g, k, k_r), check_thm1(g, k, k_r)
    assert calls == {"_peak_gain": 1}
    assert set(lemma3.kinds.values()) == set(thm1.kinds.values()) == {"computed"}
    gain = lemma3.quantities["x_delta_linf"]
    assert gain > 1.0
    assert lemma3.quantities["delta_x_linf"] == gain
    assert thm1.quantities["x_delta_hinf"] == thm1.quantities["delta_x_hinf"] == gain


def test_each_system_is_schur_factorized_once_and_holds_its_poles(monkeypatch):
    # a system holds its Schur form and poles: the reductions of one
    # controller and the certificates on one loop factorize no state matrix
    # twice, and the loop's blocks, the split parts and the error's parts
    # were created holding their poles
    factorized = []
    gees = linalg._gees

    def recorded(a):
        factorized.append(repr(a.shape).encode() + a.tobytes())
        return gees(a)

    monkeypatch.setattr(linalg, "_gees", recorded)
    total = held = 0
    for g, k, k_r in itertools.chain(criterion_07_triples(12), mimo_balanced_triples(4)):
        g, k, k_r = _fresh(g), _fresh(k), _fresh(k_r)
        factorized.clear()
        for reduction, order in ((balanced_truncate_unstable, k.n - 1), (modal_truncate, 1)):
            try:
                reduction(k, order)
            except CtredError:
                pass
        for check in (check_lemma3, check_thm1, check_thm2_bound):
            check(g, k, k_r)
        assert len(set(factorized)) == len(factorized)
        total += len(factorized)

        loop = certify._loop(g, k, k_r)
        err = loop.error(k_r)
        systems = [loop.fb.system] + [getattr(loop.fb, b) for b in ("x", "xk", "kx", "ky", "y")]
        for split in (loop.k_split, err.k_r_split, err.parts):
            if isinstance(split, certify._Split):
                systems += [split.stable, split.anti]
        calls = {}
        with monkeypatch.context() as mp:
            _count_calls(mp, linalg, "_is_real_schur", calls)
            _count_calls(mp, linalg, "_block_eigenvalues", calls)
            for s in systems:
                s._poles
        assert calls == {}
        held += len(systems)
    assert total > 0 and held > 16 * 6


@pytest.mark.parametrize("thm2_first", [True, False], ids=["thm2_cor1", "cor1_thm2"])
def test_thm2_and_cor1_share_one_error_analysis(balmod, monkeypatch, thm2_first):
    # thm2 and cor1 on the same (G, K, K_r) objects measure delta = K_r - K
    # once; cor1 reads only its Hankel tail from the truncation result
    g, k = _fresh(balmod[0]), _fresh(balmod[1])
    res = balanced_truncate_unstable(k, 2)
    checks = [(check_thm2_bound, res.reduced), (check_cor1, res)]
    if not thm2_first:
        checks.reverse()
    k_r = _fresh(res.reduced)
    fresh_args = {check_thm2_bound: k_r, check_cor1: dataclasses.replace(res, reduced=k_r)}
    expected = {check: check(_fresh(g), _fresh(k), fresh_args[check]).to_dict()
                for check, _ in checks}

    certify._loop(g, k, res.reduced).quantities  # the loop norms, computed once
    calls = {}
    _count_calls(monkeypatch, certify, "hinf_norm", calls)
    _count_calls(monkeypatch, certify, "h2_norm", calls)
    certs = {check: check(g, k, arg) for check, arg in checks}
    assert calls == {"hinf_norm": 1, "h2_norm": 1}
    for check, cert in certs.items():
        assert cert.to_dict() == expected[check]
    thm2, cor1 = certs[check_thm2_bound], certs[check_cor1]
    for name in ("delta_hinf", "delta_h2"):
        assert thm2.quantities[name] == cor1.quantities[name]


def _interleaving_cases(balmod, unstable_pair):
    """Two loops, each with certificates on two reduced controllers; the
    six certificates between them."""
    g, k = balmod
    split = split_stable_unstable(k)
    k_modal = add(modal_truncate(split.stable_part, 1).reduced, split.unstable_part)
    bal = balanced_truncate_unstable(k, 2)
    k_bal = bal.reduced
    g_u, k_u = unstable_pair
    k_u_modal = modal_truncate(k_u, 1).reduced
    return [
        (g, k, [(check_thm2_bound, k_bal), (check_lemma3, k_bal), (check_cor1, bal),
                (check_cor2, k_modal), (check_thm1, k_bal)]),
        (g_u, k_u, [(check_thm3, k_u_modal), (check_thm1, k_u_modal),
                    (check_thm2_bound, k_u)]),
    ]


# the norms each certificate's condition reads: the keys of its kinds
NORMS_READ = {
    "lemma3": {"x_delta_linf", "delta_x_linf"},
    "thm1": {"x_delta_hinf", "delta_x_hinf"},
    "thm2": {"delta_hinf", "x_hinf"},
    "cor1": {"delta_hinf", "x_hinf"},
    "cor2": {"delta_hinf", "x_hinf"},
    "thm3": {"inv_one_minus_xdelta_linf"},
}


def test_interleaved_loops_match_fresh_copies(balmod, unstable_pair, monkeypatch):
    # loops A, B, A in turn; each returned quantities dict is then spoiled,
    # which must not reach a later certificate on the same loop; every
    # certificate names in kinds exactly the norms its condition reads
    pair_a, pair_b = _interleaving_cases(balmod, unstable_pair)
    expected = {
        id(pair): [check(_fresh(pair[0]), _fresh(pair[1]), _fresh(k_r)).to_dict()
                   for check, k_r in pair[2]]
        for pair in (pair_a, pair_b)
    }
    calls, theorems = {}, set()
    _count_calls(monkeypatch, certify, "_loop_quantities", calls)
    for pair in (pair_a, pair_b, pair_a):
        g, k, checks = pair
        for (check, k_r), want in zip(checks, expected[id(pair)]):
            cert = check(g, k, k_r)
            assert cert.to_dict() == want
            assert set(cert.kinds) == NORMS_READ[cert.theorem]
            assert set(cert.kinds) <= set(cert.quantities)
            theorems.add(cert.theorem)
            cert.quantities.clear()
    assert theorems == set(certify.THEOREMS)
    # thm2, cor1 and cor2 share the first visit to A, thm3 and thm2 the
    # visit to B
    assert calls == {"_loop_quantities": 3}


def test_shared_loop_analysis_follows_the_stability_tolerance(balmod, monkeypatch):
    # the CTRED_TOL_STAB override is read on every call; an analysis made
    # under another setting is not reused
    g, k = _fresh(balmod[0]), _fresh(balmod[1])
    assert check_thm2_bound(g, k, k).condition_satisfied
    monkeypatch.setenv("CTRED_TOL_STAB", "1e3")
    with pytest.raises(NotStabilizingError):
        check_thm2_bound(g, k, k)


def test_concurrent_certificates_match_sequential(balmod, unstable_pair):
    # threads racing on the shared analysis slot give the sequential results
    cases = _interleaving_cases(balmod, unstable_pair)
    jobs = [(g, k, check, k_r) for g, k, checks in cases for check, k_r in checks]
    expected = [check(_fresh(g), _fresh(k), _fresh(k_r)).to_dict()
                for g, k, check, k_r in jobs]
    results, failures = [], []

    def work(offset):
        try:
            for i in range(len(jobs)):
                j = (offset + i) % len(jobs)
                g, k, check, k_r = jobs[j]
                results.append((j, check(g, k, k_r).to_dict()))
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(results) == 4 * len(jobs)
    assert all(doc == expected[j] for j, doc in results)


def test_nearly_cancelling_request_skips_the_grid_fallback(monkeypatch):
    # a balanced truncation whose Hankel tail is below 1e-7: the error
    # products reach the peak-gain grid fallback when measured, but the
    # Hankel bound of delta times ||X||_inf decides lemma3 and thm1
    rng = np.random.default_rng(40401)
    for _ in range(200):
        k = random_stable_minimal(rng, 3)
        try:
            bt = balanced_truncate_unstable(k, 2)
        except CtredError:
            continue
        if bt.truncated_tail[0] < 1e-7:
            break
    else:
        pytest.fail("no nearly cancelling truncation in the searched draws")
    g = synthesize_stabilizing_plant(k)
    calls = {}
    _count_calls(monkeypatch, norms, "_refined_grid_peak", calls)
    certs = [check(g, k, bt.reduced) for check in (check_lemma3, check_thm1)]
    assert calls == {}
    for cert in certs:
        assert cert.condition_satisfied
        assert set(cert.to_dict()["kinds"].values()) == {"upper_bound"}
    norms.linf_norm(series(four_block(g, k).x, add(bt.reduced, negate(k))))
    assert calls == {"_refined_grid_peak": 1}  # the skipped search


def test_lemma3_and_thm1_split_each_controller_once(monkeypatch):
    # the counts, the Hankel bound of delta and thm1's stable products all
    # read one split of K and one of K_r, each made at most once per object:
    # nothing of the order of delta (n_K + n_Kr) or more is split or reduced
    # to Schur form
    g, k, k_r = next((g, k, k_r) for g, k, k_r in criterion_07_triples(40)
                     if split_stable_unstable(k).unstable_part.n)
    expected = [check(_fresh(g), _fresh(k), _fresh(k_r)).to_dict()
                for check in (check_lemma3, check_thm1)]
    splits, schurs, acls = [], [], []
    split, schur, build = decompose._make_split, linalg._gees, statespace.four_block

    def counted_split(s):
        splits.append(s)
        return split(s)

    def counted_schur(a, *args, **kwargs):
        schurs.append(a)
        return schur(a, *args, **kwargs)

    def recorded_build(g, k):
        fb = build(g, k)
        acls.append(fb.system.A)
        return fb

    monkeypatch.setattr(decompose, "_make_split", counted_split)
    monkeypatch.setattr(linalg, "_gees", counted_schur)
    monkeypatch.setattr(statespace, "four_block", recorded_build)
    assert [check(g, k, k_r).to_dict() for check in (check_lemma3, check_thm1)] == expected
    # K holds the split the search above made, so only K_r is split here
    assert len(splits) == 1 and splits[0] is k_r
    # the loop's own Schur form is of the closed-loop matrix itself
    [acl] = acls
    assert sum(a is acl for a in schurs) == 1
    assert max((np.shape(a)[0] for a in schurs if a is not acl), default=0) < k.n + k_r.n


def test_systems_built_while_serving_take_over_read_only_arrays(monkeypatch):
    # both reductions, lemma3, thm1, thm2 and a SISO thm3 build every
    # system by the private path: read-only C-contiguous float64 arrays,
    # bit for bit those of a validating construction on the same matrices;
    # the only validating constructions are the caller's own
    pool = list(criterion_07_triples(12))
    siso = [pool[0], pool[9], pool[11]]  # a stable controller and two unstable ones
    triples = siso + list(mimo_balanced_triples(2))
    assert any(split_stable_unstable(k).unstable_part.n for _, k, _ in siso)
    built, validated = [], []
    private, validate = statespace._system, StateSpaceSystem.__post_init__

    def recorded(*args, **kwargs):
        built.append(private(*args, **kwargs))
        return built[-1]

    def counted(self):
        validated.append(self)
        validate(self)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ctred" and getattr(module, "_system", None) is private:
            monkeypatch.setattr(module, "_system", recorded)
    monkeypatch.setattr(StateSpaceSystem, "__post_init__", counted)
    own, served = 0, []
    for g, k, k_r in triples:
        g, k, k_r = make_system(g.A, g.B, g.C), make_system(k.A, k.B, k.C), _fresh(k_r)
        own += 3
        checks = [check_lemma3, check_thm1, check_thm2_bound]
        checks += [check_thm3] if g.is_siso and split_stable_unstable(k).unstable_part.n else []
        for serve in [lambda g, k, k_r: balanced_truncate_unstable(k, k.n - 1),
                      lambda g, k, k_r: modal_truncate(k, 1), *checks]:
            try:
                served.append(serve(g, k, k_r))
            except CtredError:
                pass
    assert any(isinstance(c, ReductionCertificate) and c.theorem == "thm3" for c in served)
    assert len(validated) == own and len(built) > 5 * own
    monkeypatch.undo()
    for s in built:
        fresh = StateSpaceSystem(s.A, s.B, s.C, s.D)
        for mine, theirs in zip((s.A, s.B, s.C, s.D), (fresh.A, fresh.B, fresh.C, fresh.D)):
            assert mine.dtype == np.float64 and mine.flags.c_contiguous
            assert not mine.flags.writeable
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()


def _norm_or_inf(product, norm):
    """``norm(product)``, or ``inf`` where it is undefined."""
    try:
        return norm(product)
    except AxisPoleError:
        return math.inf


def test_small_gain_norms_bound_the_products():
    # every lemma3/thm1 product norm, bound or computed, is at least the
    # grid peak of the product it stands for, and each condition is the one
    # the directly computed norms give; the 2x2 stream tests X*delta and
    # delta*X as two products
    kinds = set()
    for g, k, k_r in itertools.chain(criterion_07_triples(40), mimo_balanced_triples(12)):
        lemma3, thm1 = check_lemma3(g, k, k_r), check_thm1(g, k, k_r)
        fb = four_block(g, k)
        delta = add(k_r, negate(k))
        products = {"x_delta": series(fb.x, delta), "delta_x": series(delta, fb.x)}
        direct = {}
        for name, product in products.items():
            recorded = lemma3.quantities[f"{name}_linf"]
            assert recorded >= grid_peak_oracle(product, n=20000) * (1 - 1e-8)
            direct[f"{name}_linf"] = _norm_or_inf(product, norms.linf_norm)
            if lemma3.kinds[f"{name}_linf"] == "upper_bound":
                assert recorded >= direct[f"{name}_linf"]
            form, _ = certify._stable_form(product, [], name)
            if form is None:
                direct[f"{name}_hinf"] = math.inf
                continue
            recorded = thm1.quantities[f"{name}_hinf"]
            assert recorded >= grid_peak_oracle(form, n=20000) * (1 - 1e-8)
            direct[f"{name}_hinf"] = norms.hinf_norm(form)
            if thm1.kinds[f"{name}_hinf"] == "upper_bound":
                assert recorded >= direct[f"{name}_hinf"]
        kinds |= set(lemma3.kinds.values()) | set(thm1.kinds.values())

        q = lemma3.quantities
        counts_ok = (q.get("unstable_poles_original", -1.0)
                     == q.get("unstable_poles_reduced", -2.0))
        assert lemma3.condition_satisfied == (
            counts_ok and min(direct["x_delta_linf"], direct["delta_x_linf"]) < 1.0)
        dy_form, _ = certify._stable_form(series(delta, fb.y), [], "delta*Y")
        assert thm1.condition_satisfied == (
            dy_form is not None
            and max(direct["x_delta_hinf"], direct["delta_x_hinf"]) < 1.0)
    assert kinds == {"upper_bound", "computed"}  # both branches were taken


def test_loop_peak_gain_is_shared_by_bound_and_small_gain_certificates(
        balmod, monkeypatch):
    # thm2 reads ||X||_inf among the loop norms, the one search of X;
    # lemma3 reads only X's Hankel-sum bound and searches no peak gain of X
    g, k = _fresh(balmod[0]), _fresh(balmod[1])
    k_r = balanced_truncate_unstable(k, 2).reduced
    args = []
    original = norms._peak_gain

    def recorded(s):
        args.append(s)
        return original(s)

    monkeypatch.setattr(norms, "_peak_gain", recorded)
    check_thm2_bound(g, k, k_r)
    check_lemma3(g, k, k_r)
    x = _stabilizing_four_block(g, k).x
    assert sum(all(np.array_equal(getattr(s, f), getattr(x, f)) for f in "ABCD")
               for s in args) == 1
