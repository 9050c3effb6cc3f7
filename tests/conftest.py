import numpy as np
import pytest

from ctred.decompose import split_stable_unstable
from ctred.errors import CtredError
from ctred.gen import (
    random_antistable,
    random_stable_minimal,
    synthesize_stabilizing_plant,
)
from ctred.reduce import balanced_truncate_unstable, modal_truncate
from ctred.statespace import (
    StateSpaceSystem,
    add,
    frequency_response,
    is_internally_stable,
    make_system,
)


_SWEEP_BLOCK = 32768  # frequencies per evaluation in grid_peak_oracle


def grid_peak_oracle(s: StateSpaceSystem, n: int = 200000,
                     lo: float = -5, hi: float = 5) -> float:
    """Independent peak-gain oracle: dense log sweep refined at the argmax.

    The response is summed from the eigen-residues of ``A``; the gain is its
    modulus for SISO systems and its largest singular value (batched
    ``svd``) otherwise.
    """
    lam, v = np.linalg.eig(s.A)
    bt = np.linalg.solve(v, s.B.astype(complex)) if s.n else np.zeros((0, s.m))
    ct = s.C @ v
    if s.is_siso:
        resid = ct[0] * bt[:, 0]

        def gains(wv):
            return np.abs(
                (resid[None, :] / (1j * wv[:, None] - lam[None, :])).sum(axis=1)
                + s.D[0, 0]
            )
    else:
        resid = ct.T[:, :, None] * bt[:, None, :]  # (n, p, m) rank-one residues

        def gains(wv):
            resp = np.tensordot(1.0 / (1j * wv[:, None] - lam[None, :]), resid, 1)
            return np.linalg.svd(resp + s.D, compute_uv=False)[:, 0]

    ws = np.concatenate([[0.0], np.logspace(lo, hi, n)])
    # fixed blocks bound the (block, n) work arrays: unblocked, one 1e6-point
    # sweep of an 8-state system peaks at about 300 MB
    g = np.concatenate([gains(ws[i:i + _SWEEP_BLOCK])
                        for i in range(0, ws.size, _SWEEP_BLOCK)])
    best = float(g.max())
    w0 = ws[int(g.argmax())]
    span = max(w0, 1e-6)
    for _ in range(8):
        local = np.linspace(max(w0 - span, 0.0), w0 + span, 2001)
        gl = gains(local)
        best = max(best, float(gl.max()))
        w0 = local[int(gl.argmax())]
        span /= 20.0
    return best


def transfer_close(s1: StateSpaceSystem, s2: StateSpaceSystem,
                   rel_tol: float = 1e-8, n_points: int = 1000) -> bool:
    """Relative transfer-function agreement on a logarithmic frequency grid."""
    ws = np.concatenate([[0.0], np.logspace(-3, 3, n_points - 1)])
    r1 = frequency_response(s1, ws)
    r2 = frequency_response(s2, ws)
    scale = max(np.max(np.abs(r1)), np.max(np.abs(r2)), 1e-12)
    return bool(np.max(np.abs(r1 - r2)) <= rel_tol * scale)


def max_transfer_diff(s1: StateSpaceSystem, s2: StateSpaceSystem,
                      n_points: int = 1000) -> float:
    ws = np.concatenate([[0.0], np.logspace(-3, 3, n_points - 1)])
    r1 = frequency_response(s1, ws)
    r2 = frequency_response(s2, ws)
    return float(np.max(np.abs(r1 - r2)))


def criterion_07_triples(count):
    """Seeded (plant, controller, reduced) triples of varying quality."""
    rng = np.random.default_rng(70700)
    made = 0
    seed = 0
    while made < count:
        seed += 1
        order = int(rng.integers(3, 6))
        n_unstable = int(rng.integers(0, 2))
        try:
            stable = random_stable_minimal(rng, order - n_unstable)
            k = add(stable, random_antistable(rng, n_unstable)) \
                if n_unstable else stable
            g = synthesize_stabilizing_plant(k)
            if not is_internally_stable(g, k)[0]:
                continue
        except (CtredError, np.linalg.LinAlgError):
            continue
        candidates = []
        try:
            candidates.append(balanced_truncate_unstable(k, k.n - 1).reduced)
        except CtredError:
            pass
        try:
            split = split_stable_unstable(k)
            if split.stable_part.n >= 2:
                mt = modal_truncate(split.stable_part, 1)
                candidates.append(add(mt.reduced, split.unstable_part))
        except CtredError:
            pass
        # a detuned controller: stable extra dynamics of random size
        gain = float(rng.uniform(0.2, 6.0))
        candidates.append(add(k, make_system([[-float(rng.uniform(1, 9))]],
                                             [[gain]], [[gain]])))
        for k_r in candidates:
            if made < count:
                made += 1
                yield g, k, k_r


def mimo_balanced_triples(count):
    """Seeded 2x2 (plant, controller, reduced) triples: the controller has
    0 or 1 antistable modes and is balanced-truncated to order n-1."""
    rng = np.random.default_rng(70702)
    made = 0
    while made < count:
        order = int(rng.integers(3, 6))
        n_unstable = int(rng.integers(0, 2))
        try:
            stable = random_stable_minimal(rng, order - n_unstable, 2, 2)
            k = add(stable, random_antistable(rng, n_unstable, 2, 2)) \
                if n_unstable else stable
            g = synthesize_stabilizing_plant(k)
            if not is_internally_stable(g, k)[0]:
                continue
            k_r = balanced_truncate_unstable(k, k.n - 1).reduced
        except (CtredError, np.linalg.LinAlgError):
            continue
        made += 1
        yield g, k, k_r


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)
