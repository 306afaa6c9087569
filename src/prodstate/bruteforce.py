"""Brute-force best product fidelity, the ground truth the learners are scored on.

Alternating per-site eigen-sweeps read the best product fidelity directly
from the density matrix.  This is a reference oracle, not a learner: it
reads the full state, never oracle copies.
"""

from __future__ import annotations

import numpy as np

from .states import (
    ProductParams,
    QuantumState,
    haar_state,
    partial_trace,
    vector_to_params,
)


def _effective_site_operator(rho_tensor: np.ndarray, sites: list[np.ndarray], i: int) -> np.ndarray:
    """The 2x2 operator E with <a|E|b> = <v_-i, a| rho |v_-i, b> at site i."""
    n = len(sites)
    t = rho_tensor
    # Contract column sites j != i with v_j, then row sites j != i with conj(v_j).
    # Both loops run in decreasing j, so earlier removals never shift later axes.
    for j in reversed(range(n)):
        if j == i:
            continue
        t = np.tensordot(t, sites[j], axes=([n + j], [0]))
    for j in reversed(range(n)):
        if j == i:
            continue
        t = np.tensordot(sites[j].conj(), t, axes=([0], [j]))
    return t.reshape(2, 2)


def best_product_fidelity(state: QuantumState, restarts: int = 12, sweeps: int = 300,
                          tol: float = 1e-12, seed: int = 0) -> tuple[float, ProductParams]:
    """Best product-state fidelity with rho by alternating per-site eigen-sweeps.

    Each sweep fixes all sites but one and replaces that site with the top
    eigenvector of its effective 2x2 operator, which can only increase the
    fidelity; multistart guards against local maxima.  Reliable at desk scale
    (n <= 8, verified against closed forms); this is a reference oracle.  It
    reads the dense density matrix, so it raises ResourceBudgetError above
    states.DENSE_BUDGET.
    """
    rng = np.random.default_rng(seed)
    rho = state.density()
    n = state.n
    rho_tensor = rho.reshape((2,) * (2 * n))
    best_val, best_sites = -1.0, None
    for start in range(restarts):
        if start == 0:
            sites = []
            for i in range(n):
                local = partial_trace(rho, n, [i])
                _, vecs = np.linalg.eigh(local)
                sites.append(vecs[:, -1])
        else:
            sites = [haar_state(2, rng) for _ in range(n)]
        val = 0.0
        for _ in range(sweeps):
            prev = val
            for i in range(n):
                eff = _effective_site_operator(rho_tensor, sites, i)
                eff = (eff + eff.conj().T) / 2.0
                _, vecs = np.linalg.eigh(eff)
                sites[i] = vecs[:, -1]
                val = float(np.real(sites[i].conj() @ eff @ sites[i]))
            if val - prev < tol:
                break
        if val > best_val:
            best_val, best_sites = val, [s.copy() for s in sites]
    return min(max(best_val, 0.0), 1.0), vector_to_params(best_sites)
