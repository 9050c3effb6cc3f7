"""Random test-instance generation.

Builds a random (possibly unstable) controller and synthesizes a plant
that it stabilizes, exploiting the symmetry of the closed-loop matrix in
the plant and the controller: an observer-based stabilizer designed FOR
the controller realization works as a plant stabilized BY it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import CtredError, SynthesisError
from .statespace import StateSpaceSystem, add, check_minimal, is_internally_stable


def _rotated_diagonal(
    rng: np.random.Generator, low: float, high: float, order: int, m: int, p: int,
) -> StateSpaceSystem:
    """Orthogonally rotated diagonal dynamics with eigenvalues uniform on
    ``[low, high]``, entries of ``B`` and ``C`` uniform on [-1, 1]."""
    lam = rng.uniform(low, high, order)
    q, _ = np.linalg.qr(rng.standard_normal((order, order)))
    b = rng.uniform(-1.0, 1.0, (order, m))
    c = rng.uniform(-1.0, 1.0, (p, order))
    return StateSpaceSystem(q @ np.diag(lam) @ q.T, b, c)


def random_stable_minimal(
    rng: np.random.Generator, order: int, m: int = 1, p: int = 1,
) -> StateSpaceSystem:
    """Random stable minimal system: orthogonally rotated diagonal dynamics
    with eigenvalues uniform on [-5, -0.2]."""
    for _ in range(50):
        s = _rotated_diagonal(rng, -5.0, -0.2, order, m, p)
        if check_minimal(s):
            return s
    raise SynthesisError("failed to draw a minimal stable system")


def random_antistable(
    rng: np.random.Generator, order: int, m: int = 1, p: int = 1,
) -> StateSpaceSystem:
    """Random antistable system: eigenvalues uniform on [0.1, 1.5], entries
    of ``B`` and ``C`` uniform on [-1, 1]."""
    return _rotated_diagonal(rng, 0.1, 1.5, order, m, p)


def synthesize_stabilizing_plant(k: StateSpaceSystem) -> StateSpaceSystem:
    """Observer-based design on the controller realization, identity weights.

    Two Riccati solves give a state-feedback gain and an observer gain for
    the ``(A_K, B_K, C_K)`` triple; the resulting compensator, read as a
    plant, is internally stabilized by the controller.
    """
    a, b, c = k.A, k.B, k.C
    n = a.shape[0]
    p_ctrl = linalg.solve_care(a, b, np.eye(n), np.eye(b.shape[1]))
    f = b.T @ p_ctrl
    p_obs = linalg.solve_care(a.T, c.T, np.eye(n), np.eye(c.shape[0]))
    lgain = p_obs @ c.T
    return StateSpaceSystem(a - b @ f - lgain @ c, lgain, -f)


def generate_instance(order: int, n_unstable: int, seed: int):
    """Deterministic random plant/controller pair with a stabilizing loop.

    The controller is a stable minimal part plus ``n_unstable`` antistable
    modes; the plant is synthesized to close the loop stably.  Returns
    ``(plant, controller)``; raises :class:`SynthesisError` when 20 draws
    give none.
    """
    if order < 1:
        raise SynthesisError("order must be at least 1")
    if not 0 <= n_unstable < order:
        raise SynthesisError("need 0 <= n_unstable < order")
    rng = np.random.default_rng(seed)
    for _ in range(20):
        try:
            stable = random_stable_minimal(rng, order - n_unstable)
            if n_unstable:
                k = add(stable, random_antistable(rng, n_unstable))
            else:
                k = stable
            if not check_minimal(k):
                continue
            g = synthesize_stabilizing_plant(k)
            stable_loop, _ = is_internally_stable(g, k)
            if stable_loop:
                return g, k
        except CtredError:
            continue
        except sla.LinAlgError:
            continue
    raise SynthesisError(
        f"no stabilizing instance found in 20 attempts (seed {seed})"
    )
