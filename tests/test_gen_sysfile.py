import json

import numpy as np
import pytest

from ctred import linalg
from ctred.errors import DimensionError, SynthesisError
from ctred.gen import generate_instance, synthesize_stabilizing_plant
from ctred.statespace import is_internally_stable, make_system, zero_system
from ctred.sysfile import load_system, save_system, system_to_dict


def test_generate_instance_stabilizes():
    g, k = generate_instance(4, 1, 42)
    stable, _ = is_internally_stable(g, k)
    assert stable
    ev = linalg.eigenvalues(k.A)
    assert int(np.sum(ev.real > 0)) == 1


def test_generate_instance_stable_controller():
    _, k = generate_instance(4, 0, 7)
    assert linalg.spectral_abscissa(k.A) < 0


def test_generate_instance_deterministic():
    g1, k1 = generate_instance(5, 2, 11)
    g2, k2 = generate_instance(5, 2, 11)
    assert np.array_equal(g1.A, g2.A) and np.array_equal(k1.A, k2.A)
    assert np.array_equal(g1.B, g2.B) and np.array_equal(k1.C, k2.C)


def test_generate_instance_validates_arguments():
    with pytest.raises(SynthesisError):
        generate_instance(0, 0, 1)
    with pytest.raises(SynthesisError):
        generate_instance(3, 3, 1)


def test_synthesize_plant_duality():
    _, k = generate_instance(4, 1, 3)
    g = synthesize_stabilizing_plant(k)
    stable, _ = is_internally_stable(g, k)
    assert stable


def test_roundtrip_bit_exact(tmp_path):
    g, k = generate_instance(3, 1, 99)
    path = tmp_path / "sys.json"
    save_system(path, k, name="controller")
    loaded, name = load_system(path)
    assert name == "controller"
    assert np.array_equal(loaded.A, k.A)
    assert np.array_equal(loaded.B, k.B)
    assert np.array_equal(loaded.C, k.C)
    assert np.array_equal(loaded.D, k.D)
    # a second save produces byte-identical output
    path2 = tmp_path / "sys2.json"
    save_system(path2, loaded, name="controller")
    assert path.read_bytes() == path2.read_bytes()


def test_roundtrip_static_gain(tmp_path):
    # an order-0 system saves B as []; loading reads its width from D
    path = tmp_path / "gain.json"
    gain = make_system(np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((2, 0)),
                       [[1.5, -2.0, 0.1], [0.0, 3.0, 1e-300]])
    for s in (gain, zero_system(2, 3)):
        save_system(path, s)
        loaded, _ = load_system(path)
        for name in "ABCD":
            assert getattr(loaded, name).shape == getattr(s, name).shape
            assert np.array_equal(getattr(loaded, name), getattr(s, name))


def test_roundtrip_without_inputs_or_outputs(tmp_path):
    # D of a system without outputs saves as []; the counts keep its shape
    path = tmp_path / "empty.json"
    for s in (zero_system(0, 3), zero_system(2, 0)):
        save_system(path, s)
        loaded, _ = load_system(path)
        for name in "ABCD":
            assert getattr(loaded, name).shape == getattr(s, name).shape


def test_load_without_counts(tmp_path):
    # files written before the counts were saved still load
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"A": [], "B": [], "C": [[], []],
                                "D": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}))
    loaded, _ = load_system(path)
    assert (loaded.n, loaded.p, loaded.m) == (0, 2, 3)
    path.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]], "C": [[2.0]], "D": [[0.0]]}))
    loaded, _ = load_system(path)
    assert loaded.C.tolist() == [[2.0]]


def test_load_rejects_counts_that_disagree(tmp_path):
    path = tmp_path / "bad.json"
    s = make_system([[-1.0]], [[1.0, 2.0]], [[1.0]])
    for counts in ({"m": 3}, {"p": 2}, {"m": -1}, {"m": 1.5}, {"p": True}):
        path.write_text(json.dumps({**system_to_dict(s), **counts}))
        with pytest.raises(DimensionError):
            load_system(path)


def test_load_rejects_bad_documents(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("[1,2,3]")
    with pytest.raises(DimensionError):
        load_system(p)
    p.write_text(json.dumps({"A": [[0.0]], "B": [[1.0], [2.0]],
                             "C": [[1.0]], "D": [[0.0]]}))
    with pytest.raises(DimensionError):
        load_system(p)
    p.write_text("{not json")
    with pytest.raises(DimensionError):
        load_system(p)


def test_save_load_irregular_values(tmp_path):
    s = make_system([[-1.2345678901234567e-13]], [[3.0000000000000004]],
                    [[1e300]])
    p = tmp_path / "sys.json"
    save_system(p, s)
    loaded, _ = load_system(p)
    assert np.array_equal(loaded.A, s.A)
    assert np.array_equal(loaded.C, s.C)
