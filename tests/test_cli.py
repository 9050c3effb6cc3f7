import json

import numpy as np
import pytest

from ctred.benchmarks import bench_balanced_vs_modal_pair, bench_unstable_pair
from ctred.cli import main
from ctred.statespace import add, make_system
from ctred.sysfile import load_system, save_system


@pytest.fixture
def files(tmp_path):
    g, k = bench_balanced_vs_modal_pair()
    g2, k2 = bench_unstable_pair()
    paths = {
        "g1": tmp_path / "g1.json",
        "k1": tmp_path / "k1.json",
        "g2": tmp_path / "g2.json",
        "k2": tmp_path / "k2.json",
    }
    save_system(paths["g1"], g)
    save_system(paths["k1"], k)
    save_system(paths["g2"], g2)
    save_system(paths["k2"], k2)
    return tmp_path, paths


def run(args):
    return main([str(a) for a in args])


def test_cost_command(files, capsys):
    _, p = files
    assert run(["cost", p["g1"], p["k1"], "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cost"] == pytest.approx(8.0552, rel=0.01)
    assert sum(doc["block_contributions"]) == pytest.approx(doc["cost"], rel=1e-8)


def test_cost_not_stabilizing_exit_3(files, capsys):
    tmp, p = files
    unstable_plant = tmp / "up.json"
    save_system(unstable_plant, make_system([[1.0]], [[1.0]], [[1.0]]))
    zero_k = tmp / "zk.json"
    save_system(zero_k, make_system([[-1.0]], [[1.0]], [[0.0]]))
    assert run(["cost", unstable_plant, zero_k]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "NotStabilizingError"


def test_input_error_exit_2(files, capsys):
    tmp, p = files
    bad = tmp / "bad.json"
    bad.write_text('{"A": [[0]], "B": [[1],[2]], "C": [[1]], "D": [[0]]}')
    assert run(["cost", bad, p["k1"]]) == 2


@pytest.mark.parametrize("args, code", [
    (["cost", "missing", "k1"], 2),
    (["reduce", "g1", "k1", "--method", "balanced"], 3),
    (["reduce", "g1", "k1", "--method", "modal"], 3),
    (["reduce", "g1", "k1", "--method", "modal", "--order", "-1"], 3),
], ids=["missing file", "balanced without order", "modal without blocks or order",
        "modal order -1"])
def test_refusals_exit_with_their_codes(files, capsys, args, code):
    tmp, p = files
    paths = {**p, "missing": tmp / "missing.json"}
    args = [paths.get(a, a) for a in args]
    if args[0] == "reduce":
        args += ["--out", tmp / "x.json"]
    assert run(["--quiet", *args]) == code
    assert json.loads(capsys.readouterr().out)["error"]["exit_code"] == code


def test_norms_command(files, capsys):
    _, p = files
    assert run(["norms", p["k2"], "--which", "linf"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value > 0
    assert run(["norms", p["k2"], "--which", "hinf"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert "linf" in doc["error"]["message"]


def test_reduce_balanced_with_certificate(files, capsys):
    tmp, p = files
    out = tmp / "kr.json"
    rc = run(["--quiet", "reduce", p["g1"], p["k1"], "--method", "balanced",
              "--order", "2", "--out", out, "--certify"])
    assert rc == 0
    reduced, _ = load_system(out)
    assert reduced.n == 2
    report = json.loads((tmp / "kr.report.json").read_text())
    assert report["certificates"][0]["theorem"] == "cor1"
    assert report["certificates"][0]["condition_satisfied"] is True


def test_reduce_modal_by_order(files, capsys):
    tmp, p = files
    out = tmp / "kr2.json"
    rc = run(["--quiet", "reduce", p["g2"], p["k2"], "--method", "modal",
              "--order", "2", "--out", out, "--certify"])
    assert rc == 0
    reduced, _ = load_system(out)
    assert reduced.n == 2
    ev = np.sort(np.linalg.eigvals(reduced.A).real)
    assert np.allclose(ev, [-0.37, 1.37], atol=1e-9)
    report = json.loads((tmp / "kr2.report.json").read_text())
    assert report["certificates"][0]["theorem"] == "thm3"


def test_reduce_modal_by_order_decomposes_once(files, capsys, monkeypatch):
    from ctred import cli, decompose, reduce as reduction

    calls = []
    modal_form = decompose.modal_form

    def counted(k, *args):
        calls.append(k)
        return modal_form(k, *args)

    for module in (decompose, reduction, cli):
        monkeypatch.setattr(module, "modal_form", counted, raising=False)
    tmp, p = files
    out = tmp / "kr2.json"
    rc = run(["--quiet", "reduce", p["g2"], p["k2"], "--method", "modal",
              "--order", "2", "--out", out])
    assert rc == 0
    assert len(calls) == 1
    k, _ = load_system(p["k2"])
    ref = tmp / "ref.json"
    save_system(ref, reduction.modal_truncate(k, 1).reduced, name="reduced-controller")
    assert out.read_bytes() == ref.read_bytes()


def test_reduce_infeasible_order(files, capsys):
    tmp, p = files
    rc = run(["--quiet", "reduce", p["g1"], p["k1"], "--method", "balanced",
              "--order", "0", "--out", tmp / "x.json"])
    assert rc == 3


def test_gen_deterministic(tmp_path, capsys):
    rc = run(["--quiet", "gen", "--order", "4", "--unstable", "1",
              "--seed", "5", "--out", tmp_path / "a"])
    assert rc == 0
    rc = run(["--quiet", "gen", "--order", "4", "--unstable", "1",
              "--seed", "5", "--out", tmp_path / "b"])
    assert rc == 0
    for suffix in (".plant.json", ".controller.json"):
        b1 = (tmp_path / ("a" + suffix)).read_bytes()
        b2 = (tmp_path / ("b" + suffix)).read_bytes()
        assert b1 == b2
    g, _ = load_system(tmp_path / "a.plant.json")
    k, _ = load_system(tmp_path / "a.controller.json")
    from ctred.statespace import is_internally_stable

    assert is_internally_stable(g, k)[0]


def test_certify_command(files, capsys):
    tmp, p = files
    out = tmp / "kr.json"
    run(["--quiet", "reduce", p["g1"], p["k1"], "--method", "balanced",
         "--order", "2", "--out", out])
    capsys.readouterr()
    rc = run(["certify", p["g1"], p["k1"], out, "--theorem", "thm1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theorem"] == "thm1"
    assert doc["condition_satisfied"] is True
    rc = run(["certify", p["g1"], p["k1"], out, "--theorem", "cor1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["condition_satisfied"] is True


def test_reduce_modal_certify_attaches_cor2(files, capsys):
    tmp, p = files
    out = tmp / "kr3.json"
    rc = run(["--quiet", "reduce", p["g1"], p["k1"], "--method", "modal",
              "--blocks", "1", "--out", out, "--certify"])
    assert rc == 0
    cert = json.loads((tmp / "kr3.report.json").read_text())["certificates"][0]
    assert cert["theorem"] == "cor2"
    assert cert["condition_satisfied"] is True
    assert cert["cost_bound"] == pytest.approx(17.4773, rel=1e-5)


def test_reduce_modal_non_minimal_controller(files, capsys):
    tmp, p = files
    k, _ = load_system(p["k1"])
    # a stable mode at -3 that the input cannot reach
    hidden = tmp / "hidden.json"
    save_system(hidden, add(k, make_system([[-3.0]], [[0.0]], [[1.0]])))
    out = tmp / "kh.json"
    rc = run(["--quiet", "reduce", p["g1"], hidden, "--method", "modal",
              "--blocks", "1", "--out", out])
    assert rc == 0
    report = json.loads((tmp / "kh.report.json").read_text())
    assert report["reduced_order"] == k.n
    assert report["truncated_tail"][0] == 0.0


@pytest.mark.parametrize("theorem", ["lemma3", "thm1", "thm2", "cor1", "cor2", "thm3"])
def test_certify_biproper_reduced_exit_2(files, capsys, theorem):
    tmp, p = files
    k, _ = load_system(p["k1"])
    biproper = tmp / "biproper.json"
    save_system(biproper, make_system(k.A, k.B, k.C, [[0.01]]))
    assert run(["certify", p["g1"], p["k1"], biproper, "--theorem", theorem]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "DimensionError"


def test_certify_cor1_rejects_mismatched_reduced(files, capsys):
    tmp, p = files
    other = tmp / "other.json"
    save_system(other, make_system(np.diag([-1.0, -2.0]), [[1.0], [1.0]],
                                   [[1.0, 1.0]]))
    rc = run(["certify", p["g1"], p["k1"], other, "--theorem", "cor1"])
    assert rc == 3


def test_repro_reports_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["--quiet", "repro", "unstable", "--out", out1]) == 0
    assert run(["--quiet", "repro", "unstable", "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["reference_checks"]["cost_reduced"]["pass"] is True
    assert doc["reference_checks"]["certificate_passes"]["pass"] is True
    # the nominal-cost reference is known not to reproduce from the
    # two-decimal fixture matrices
    assert doc["reference_checks"]["cost_original"]["pass"] is False


def test_repro_scaling_csv(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(["--quiet", "repro", "scaling", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["fit"]["r_squared"] >= 0.95
    csv_path = tmp_path / "s.csv"
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "epsilon,delta_hinf,cost_gap_ratio"
    assert len(lines) == 31
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.0001)
