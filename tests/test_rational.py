import numpy as np
import pytest

from conftest import transfer_close
from ctred.benchmarks import bench_unstable_pair
from ctred.errors import DimensionError, UnsupportedError
from ctred.rational import RationalTransferFunction, to_rational
from ctred.statespace import make_system


def test_first_order_lag():
    f = to_rational(make_system([[-1.0]], [[1.0]], [[1.0]]))
    assert np.allclose(f.num, [1.0])
    assert np.allclose(f.den, [1.0, 1.0])


def test_sum_of_lags():
    s = make_system(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]])
    f = to_rational(s)
    assert np.allclose(f.num, [3.0, 2.0])
    assert np.allclose(f.den, [2.0, 3.0, 1.0])


def test_removed_block_fixture():
    # scalar mode of the bundled unstable-truncation controller
    _, k = bench_unstable_pair()
    block = make_system(k.A[2:, 2:], k.B[2:], k.C[:, 2:])
    f = to_rational(block)
    assert np.allclose(f.num, [-1.57 * 0.04])
    assert np.allclose(f.den, [-0.34, 1.0])


def test_monic_denominator_normalization():
    f = RationalTransferFunction([2.0], [4.0, 2.0])
    assert f.den[-1] == 1.0
    assert np.allclose(f.num, [1.0])


@pytest.mark.parametrize("num, den", [([], []), ([], [1.0, 2.0]), ([1.0], [0.0, 0.0])])
def test_rejects_empty_numerator_and_zero_denominator(num, den):
    with pytest.raises(DimensionError):
        RationalTransferFunction(num, den)


def test_rejects_improper():
    with pytest.raises(DimensionError):
        RationalTransferFunction([1.0, 1.0], [1.0])


def test_to_rational_requires_siso():
    s = make_system(np.eye(2) * -1.0, np.eye(2), np.eye(2))
    with pytest.raises(UnsupportedError):
        to_rational(s)


def test_cancellation_of_hidden_mode():
    # mode at -1 is unobservable; the transfer function is 1/(s+2)
    s = make_system(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[0.0, 1.0]])
    f = to_rational(s)
    assert f.degree == 1
    assert np.allclose(f.den, [2.0, 1.0])
    assert np.allclose(f.num, [1.0])


def test_roundtrip_random_orders(rng):
    from ctred.gen import random_stable_minimal

    for order in (2, 4, 6, 8):
        s = random_stable_minimal(rng, order)
        f = to_rational(s)
        back = f.to_statespace()
        assert transfer_close(s, back, rel_tol=1e-8), f"order {order}"


def test_evaluate_matches_statespace(rng):
    from ctred.gen import random_stable_minimal

    s = random_stable_minimal(rng, 5)
    f = to_rational(s)
    for w in np.logspace(-2, 2, 30):
        assert abs(f(1j * w) - s.eval(1j * w)[0, 0]) < 1e-9 * max(
            1.0, abs(f(1j * w))
        )


def test_biproper_companion_realization():
    f = RationalTransferFunction([3.0, 2.0], [1.0, 1.0])  # (2s+3)/(s+1)
    s = f.to_statespace()
    assert s.D[0, 0] == 2.0
    for w in (0.0, 0.7, 3.0):
        assert abs(s.eval(1j * w)[0, 0] - f(1j * w)) < 1e-12
