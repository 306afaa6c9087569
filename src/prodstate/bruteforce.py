"""Brute-force best product fidelity, the ground truth the learners are scored on.

Alternating per-site eigen-sweeps read the best product fidelity directly
from the state.  This is a reference oracle, not a learner: it reads the
full state, never oracle copies.  It reads rho through the `states` readers,
so every state, pure or mixed, costs O(2^n r) per site and no dense matrix
is formed.
"""

from __future__ import annotations

import numpy as np

from .states import (
    ProductParams,
    QuantumState,
    _marginal,
    _operator,
    _sandwich,
    haar_state,
    product_vectors,
    vector_to_params,
)

# A restart stops after SWEEPS sweeps, or once a sweep gains less than TOL.
SWEEPS = 300
TOL = 1e-12


def best_product_fidelity(state: QuantumState, restarts: int = 12,
                          seed: int = 0) -> tuple[float, ProductParams]:
    """Best product-state fidelity with rho by alternating per-site eigen-sweeps.

    Each sweep fixes all sites but one and replaces that site with the top
    eigenvector of its effective 2x2 operator <v_-i, a| rho |v_-i, b>, which
    can only increase the fidelity; multistart guards against local maxima.
    The first restart starts from each site marginal's top eigenvector, the
    others from seeded Haar sites.  Reliable at desk scale (verified against
    closed forms); this is a reference oracle.
    """
    rng = np.random.default_rng(seed)
    rho = _operator(state)
    n = state.n
    best_val, best_sites = -1.0, None
    for start in range(restarts):
        if start == 0:
            sites = []
            for i in range(n):
                _, vecs = np.linalg.eigh(_sandwich(_marginal(rho, n, [i]), slice(None)))
                sites.append(vecs[:, -1])
        else:
            sites = [haar_state(2, rng) for _ in range(n)]
        val = 0.0
        for _ in range(SWEEPS):
            prev = val
            for i in range(n):
                # Rows conj(v_1) ⊗ .. e_a .. ⊗ conj(v_n), a = 0, 1, with e_a at site i.
                bras = np.repeat(np.stack(sites).conj()[None], 2, axis=0)
                bras[:, i] = np.eye(2)
                eff = _sandwich(rho, product_vectors(bras))
                eff = (eff + eff.conj().T) / 2.0
                _, vecs = np.linalg.eigh(eff)
                sites[i] = vecs[:, -1]
                val = float(np.real(sites[i].conj() @ eff @ sites[i]))
            if val - prev < TOL:
                break
        if val > best_val:
            best_val, best_sites = val, [s.copy() for s in sites]
    return min(max(best_val, 0.0), 1.0), vector_to_params(best_sites)
