"""Output checks that share no code with ctred.

Closed-loop stability comes from ``numpy.linalg.eigvals`` and the true
LQG cost from the benchmark's own four-block realization and a scipy
Lyapunov solve.  They run outside the timed region.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from inputs import closed_loop_matrix


def abscissa(g, k) -> float:
    """Largest real part of the closed-loop spectrum of ``(G, K)``, divided
    by ``max(1, inf-norm)`` of the closed-loop matrix."""
    acl = closed_loop_matrix(g, k)
    scale = max(1.0, float(np.abs(acl).sum(axis=1).max()))
    return float(np.linalg.eigvals(acl).real.max()) / scale


def true_cost(g, k) -> float:
    """Squared H2 norm of the map (state noise, sensor noise) -> (y, u).

    The loop is ``u = K y`` with state ``[x_G; x_K]``; inputs enter through
    ``diag(B_G, B_K)`` and outputs leave through ``diag(C_G, C_K)``.  The
    caller makes sure the loop is stable.
    """
    acl = closed_loop_matrix(g, k)
    b = sla.block_diag(g[1], k[1])
    c = sla.block_diag(g[2], k[2])
    wc = sla.solve_continuous_lyapunov(acl, -b @ b.T)
    return float(np.trace(c @ wc @ c.T))
