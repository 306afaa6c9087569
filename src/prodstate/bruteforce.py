"""Brute-force reference oracles used to audit the learners.

Everything here trades time for trustworthiness: alternating eigen-sweeps and
dense Bloch-sphere grids that compute best product fidelities directly from
the density matrix, plus a multistart constrained maximizer for low-degree
polynomial objectives.  These are test oracles, not learners: they read the
full state, never oracle copies.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from .states import (
    ProductParams,
    QuantumState,
    haar_state,
    partial_trace,
    product_state_vector,
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
    params = ProductParams(tuple(vector_to_params(s).z[0] for s in best_sites))
    return min(max(best_val, 0.0), 1.0), params


def bloch_grid(pitch: float) -> np.ndarray:
    """Single-qubit grid states (g, 2) covering the sphere at the given angular pitch."""
    n_theta = int(math.ceil(math.pi / pitch)) + 1
    n_phi = int(math.ceil(2.0 * math.pi / pitch))
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    return np.stack([np.cos(tt / 2.0), np.exp(1j * pp) * np.sin(tt / 2.0)], axis=1)


def grid_product_opt(state: QuantumState, pitch: float = 0.3) -> float:
    """Dense product-state grid maximum of <pi|rho|pi> (n <= 3 only).

    Never overestimates the true optimum; the per-site undershoot is
    O(pitch^2).  Vectorized site-by-site contraction.
    """
    n = state.n
    if n > 3:
        raise ValueError("the dense grid oracle is limited to n <= 3")
    grid = bloch_grid(pitch)
    g = grid.shape[0]
    # K[a, (i,l)] = conj(g_a)_i (g_a)_l : the per-site sandwich factors.
    k = (grid.conj()[:, :, None] * grid[:, None, :]).reshape(g, 4)
    rho = state.density()
    t = rho.reshape((2,) * (2 * n))
    # Regroup to pair each site's row/col indices: (i1 l1)(i2 l2)...
    order = [axis for i in range(n) for axis in (i, n + i)]
    t = np.transpose(t, order).reshape((4,) * n)
    for _ in range(n):
        t = np.tensordot(k, t, axes=([1], [0]))
        t = np.moveaxis(t, 0, -1)
    return float(np.max(t.real))


def planted_grid_opt(params_star: ProductParams, w: float, pitch: float = 0.05) -> float:
    """Grid-oracle optimum for the planted mixture, via its per-site factorization.

    For rho = w|π*><π*| + (1−w) I/2^n the fidelity of any product state is
    w·Π_i |<v_i|π*_i>|² + (1−w)/2^n, so the grid maximum factorizes exactly
    into independent per-site grid maxima.
    """
    n = params_star.n
    grid = bloch_grid(pitch)
    prod = 1.0
    for z in params_star.z:
        site = product_state_vector(ProductParams((z,))).data
        overlaps = np.abs(grid @ site.conj()) ** 2
        prod *= float(np.max(overlaps))
    return w * prod + (1.0 - w) / 2.0**n


def _realify(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x.real, x.imag])


def _complexify(r: np.ndarray) -> np.ndarray:
    half = r.shape[0] // 2
    return r[:half] + 1j * r[half:]


def reference_constrained_max(sys, dom, restarts: int = 60, seed: int = 0,
                              gamma_factor: float = 1.0) -> float:
    """Multistart smooth maximization of |f| over the constrained domain.

    Reference oracle for the net-search solver: maximizes |f(x)| subject to
    | ||x||−ν | <= γ', ||Ax−v|| <= γ', ||x||_inf <= μ+γ' with γ' = γ·gamma_factor,
    using SLSQP from many seeded starts.  Returns the best value found (a
    lower bound on the true constrained maximum; with generous restarts it is
    tight at desk scale on smooth low-degree objectives).
    """
    from .polyopt import evaluate_poly

    rng = np.random.default_rng(seed)
    n = sys.n
    gamma = dom.gamma * gamma_factor
    a_mat, v_vec, nu, mu = dom.a, dom.v, dom.nu, dom.mu

    def value(r):
        return abs(evaluate_poly(sys, _complexify(r)))

    def neg_value(r):
        return -value(r)

    cons = [
        {"type": "ineq", "fun": lambda r: gamma - abs(np.linalg.norm(_complexify(r)) - nu)},
        {"type": "ineq",
         "fun": lambda r: (mu + gamma) - np.max(np.abs(_complexify(r))) if n else 1.0},
    ]
    if a_mat.shape[0] > 0:
        cons.append({"type": "ineq",
                     "fun": lambda r: gamma - np.linalg.norm(a_mat @ _complexify(r) - v_vec)})

    best = -1.0
    feasible_seen = False
    for _ in range(restarts):
        x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm0 = np.linalg.norm(x0)
        if norm0 > 0:
            x0 *= min(nu, mu * math.sqrt(n)) / norm0
        res = minimize(neg_value, _realify(x0), method="SLSQP", constraints=cons,
                       options={"maxiter": 300, "ftol": 1e-12})
        x = _complexify(res.x)
        ok = (
            abs(np.linalg.norm(x) - nu) <= gamma + 1e-8
            and np.max(np.abs(x), initial=0.0) <= mu + gamma + 1e-8
            and (a_mat.shape[0] == 0 or np.linalg.norm(a_mat @ x - v_vec) <= gamma + 1e-8)
        )
        if ok:
            feasible_seen = True
            best = max(best, value(res.x))
    return best if feasible_seen else float("nan")
