import numpy as np
import pytest

from ctred.statespace import StateSpaceSystem, frequency_response


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)
