"""Clique-encoded 4-tensors and their product-state embedding.

The clique number of a graph is encoded in the spectral norm of a sparse
4-tensor, the tensor becomes a pure state whose best product-state overlap
tracks that norm, and a random isometry flattens the entries without moving
either optimum.  Together these give a desk-scale benchmark family where the
right answer is known in advance.  The state of a side-m tensor is a dense
amplitude vector on 4m qubits, checked against states.DENSE_BUDGET like every
other dense array, which admits sides up to 5.

The spectral-norm oracle runs its multistart alternating maximization on
blocks of restarts at once: each half-step is one matrix product with the
(m^2, m^2) unfolding of the tensor, giving a stack of m x m matrices, then
exact single-leg updates of the two free legs by stacked matrix-vector
products (the higher-order power method of De Lathauwer, De Moor and
Vandewalle, SIAM J. Matrix Anal. Appl. 21(4), 2000); no eigensolve is
called.  A block holds at most _RESTART_ELEMENTS / m^2 restarts so memory
stays bounded at any count.  Start vectors are drawn per restart in a fixed
order, so a seed names the same starts whatever the block size.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceBudgetError
from .instances import Graph
from .states import QuantumState, check_dense_budget, haar_isometry

__all__ = [
    "Tensor4",
    "clique_tensor",
    "opt_sandwich_check",
    "random_isometry_embed",
    "recover_clique_number",
    "spectral_norm_oracle",
    "tensor_to_state",
]

# Largest tensor side the alternating-maximization oracle will accept.
ORACLE_SIDE_BUDGET = 48
# Largest restarts * side^2 one block of the oracle's restarts may hold; each
# of the block's (restarts, side, side) complex arrays stays within 4 MiB.
_RESTART_ELEMENTS = 1 << 18
# Alternating steps after which a restart stops whatever its gain.
_MAX_STEPS = 200


class Tensor4:
    """Dense complex 4-tensor with equal sides and a cached Frobenius norm."""

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 4 or len(set(entries.shape)) != 1:
            raise ValueError("entries must form an m x m x m x m array")
        if not np.all(np.isfinite(entries.view(float))):
            raise ValueError("tensor entries must be finite")
        entries.setflags(write=False)
        self.entries = entries
        self.side = entries.shape[0]
        self.fro = float(np.linalg.norm(entries))

    def normalized(self) -> "Tensor4":
        if self.fro == 0.0:
            raise ValueError("the zero tensor cannot be normalized")
        return Tensor4(self.entries / self.fro)


def clique_tensor(g: Graph) -> Tensor4:
    """Edge-encoded tensor whose spectral norm is (clique - 1) / clique.

    Each edge (s, t) contributes value 1/2 at the four index patterns
    (s,t,s,t), (t,s,t,s), (s,t,t,s), (t,s,s,t).
    """
    if not g.edges:
        raise ValueError("the clique tensor needs at least one edge")
    m = g.n_vertices
    entries = np.zeros((m, m, m, m), dtype=complex)
    for s, t in g.edges:
        entries[s, t, s, t] = 0.5
        entries[t, s, t, s] = 0.5
        entries[s, t, t, s] = 0.5
        entries[t, s, s, t] = 0.5
    return Tensor4(entries)


def tensor_to_state(t: Tensor4) -> QuantumState:
    """Pure state on 4m qubits carrying the normalized entries as amplitudes.

    Entry (i, j, k, l) lands on the basis string that is all zeros except for
    a single 1 at position i in the first m-qubit block, j in the second,
    and so on; every other amplitude is zero, so the state norm equals the
    tensor's Frobenius norm (1 after the internal normalization).  Raises
    ResourceBudgetError when the 2^(4m) amplitudes exceed DENSE_BUDGET.
    """
    if t.fro == 0.0:
        raise ValueError("the zero tensor has no corresponding state")
    m = t.side
    check_dense_budget((2 ** (4 * m),))
    entries = t.entries / t.fro
    vec = np.zeros(2 ** (4 * m), dtype=complex)
    one_hot = [1 << (m - 1 - i) for i in range(m)]
    for (i, j, k, l), value in np.ndenumerate(entries):
        if value != 0.0:
            idx = ((one_hot[i] << m | one_hot[j]) << m | one_hot[k]) << m | one_hot[l]
            vec[idx] = value
    return QuantumState.pure(vec)


def random_isometry_embed(t: Tensor4, n: int, seed: int = 0) -> Tensor4:
    """Push the tensor through a Haar-random n x m isometry on every leg.

    Frobenius and spectral norms are preserved exactly; for n well above m
    the rotation also flattens the entries.
    """
    m = t.side
    if n < m:
        raise ValueError("the embedding dimension cannot shrink the tensor")
    u = haar_isometry(n, m, np.random.default_rng(seed))
    out = np.einsum("ai,bj,ck,dl,ijkl->abcd", u, u, u, u, t.entries, optimize=True)
    return Tensor4(out)


def spectral_norm_oracle(t: Tensor4, restarts: int | None = None,
                         seed: int = 0) -> float:
    """Best rank-one overlap found by multistart alternating maximization.

    Each half-step fixes two legs, forms the m x m matrix M of the other
    two, and updates those one leg at a time, x, then y, then x again; each
    update is the exact maximizer with the other three legs fixed, so the
    value never decreases.  No eigensolve or SVD is called.  A restart stops
    once a step gains at most 1e-12 * max(1, value), or after 200 steps, and
    is dropped once value + gain * (steps left) falls below the best value a
    converged restart of its block has reached: even its current gain kept
    up to the cap could not overtake that.
    Restarts (default 50 m^2, at least 1) run batched in blocks of at most
    _RESTART_ELEMENTS / m^2, from the same seeded starts as one at a time:
    per restart, in order, a (4, m) complex Gaussian draw whose four rows
    start the legs x, y, u, v, with the first half-step's M formed from u and v.
    This is a lower-bound heuristic: it is certified only on instances with
    known closed forms, and elsewhere serves as a consistency oracle.
    """
    m = t.side
    if m > ORACLE_SIDE_BUDGET:
        raise ResourceBudgetError(
            f"side {m} exceeds the {ORACLE_SIDE_BUDGET}-side oracle budget")
    if restarts is None:
        restarts = 50 * m * m
    if restarts < 1:
        raise ValueError("the oracle needs at least one restart")
    if t.fro == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    unfolded = t.entries.reshape(m * m, m * m)
    block = max(1, _RESTART_ELEMENTS // (m * m))
    best = 0.0
    for first in range(0, restarts, block):
        z = rng.normal(size=(min(block, restarts - first), 2, 4, m))
        starts = z[:, 0] + 1j * z[:, 1]
        best = max(best, _alternating_max(unfolded, starts))
    return best


def _alternating_max(unfolded: np.ndarray, starts: np.ndarray) -> float:
    """Largest converged value of leg-by-leg maximization from (x, y, u, v) rows."""
    m = starts.shape[2]
    x, y, u, v = (starts / np.linalg.norm(starts, axis=2, keepdims=True)).transpose(1, 0, 2)
    value = np.zeros(len(starts))
    best = 0.0
    for step in range(_MAX_STEPS):
        pair = (u.conj()[:, :, None] * v.conj()[:, None, :]).reshape(-1, m * m)
        _, x, y = _leg_steps((pair @ unfolded.T).reshape(-1, m, m), x, y)
        pair = (x.conj()[:, :, None] * y.conj()[:, None, :]).reshape(-1, m * m)
        sing, u, v = _leg_steps((pair @ unfolded).reshape(-1, m, m), u, v)
        gain = sing - value
        done = gain <= 1e-12 * np.maximum(1.0, value)
        value = sing
        if done.any():
            best = max(best, float(value[done].max()))
        # A restart that cannot reach `best` even if it kept its current gain
        # until the step cap is dropped.
        keep = ~done & (value + gain * (_MAX_STEPS - 1 - step) >= best)
        if not keep.all():
            x, y, u, v, value = x[keep], y[keep], u[keep], v[keep], value[keep]
            if not len(value):
                return best
    return max(best, float(value.max()))


def _leg_steps(mats: np.ndarray, x: np.ndarray, y: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact updates of x, then y, then x again for the value |x^H M conj(y)|.

    With the other leg fixed, each update is the unit vector that maximizes
    the value, so it never decreases; a row whose image is zero keeps its
    previous unit vector.  Returns the final value s = ||M conj(y)|| and the
    unit rows x, y, with x^H M conj(y) = s.
    """
    x, _ = _unit(np.einsum("bij,bj->bi", mats, y.conj()), x)
    y, _ = _unit(np.einsum("bij,bi->bj", mats, x.conj()), y)
    x, sing = _unit(np.einsum("bij,bj->bi", mats, y.conj()), x)
    return sing, x, y


def _unit(rows: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit length, and their norms; zero rows take the fallback's."""
    norms = np.linalg.norm(rows, axis=1)
    unit = np.divide(rows, norms[:, None], out=fallback.copy(), where=norms[:, None] > 0.0)
    return unit, norms


def recover_clique_number(nu: float) -> int:
    """Clique number implied by a spectral-norm estimate of a clique tensor."""
    if not 0.0 <= nu < 1.0:
        raise ValueError("a clique-tensor spectral norm lies in [0, 1)")
    return round(1.0 / (1.0 - nu))


def opt_sandwich_check(t: Tensor4, product_opt: float) -> dict:
    """Evaluate the two-sided bound tying the tensor and product-state optima.

    With the tensor normalized to unit Frobenius norm, n its side, and
    M = n^2 * max-entry magnitude, the best product-state overlap is bracketed
    by e^-2 * opt_tensor with additive slacks 10*M/n^0.2 below and
    10/n^0.1 + 10*M/n^0.2 above.  At small n the slack can exceed the trivial
    overlap range, so the report flags whether the bracket is informative
    rather than asserting anything.
    """
    normalized = t.normalized()
    n = normalized.side
    flatness = n * n * float(np.max(np.abs(normalized.entries)))
    opt_tensor = spectral_norm_oracle(normalized)
    scaled = math.exp(-2.0) * opt_tensor
    lower = scaled - 10.0 * flatness / n**0.2
    upper = scaled + 10.0 / n**0.1 + 10.0 * flatness / n**0.2
    lower_holds = lower <= product_opt + 1e-9
    upper_holds = product_opt <= upper + 1e-9
    return {
        "opt_tensor": opt_tensor,
        "opt_product": float(product_opt),
        "flatness": flatness,
        "lower": lower,
        "upper": upper,
        "lower_holds": lower_holds,
        "upper_holds": upper_holds,
        "holds": lower_holds and upper_holds,
        "informative": lower > 0.0 or upper < 1.0,
    }
