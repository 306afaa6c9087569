"""Clique-encoded 4-tensors and their product-state embedding.

The clique number of a graph is encoded in the spectral norm of a sparse
4-tensor, the tensor becomes a pure state whose best product-state overlap
tracks that norm, and a random isometry flattens the entries without moving
either optimum.  Together these give a desk-scale benchmark family where the
right answer is known in advance.  The state of a side-m tensor is a dense
amplitude vector on 4m qubits, checked against states.DENSE_BUDGET like every
other dense array, which admits sides up to 5.

The spectral-norm oracle runs its multistart alternating maximization on
blocks of restarts at once (the higher-order power method of De Lathauwer,
De Moor and Vandewalle, SIAM J. Matrix Anal. Appl. 21(4), 2000); no
eigensolve is called.  A half-step forms the two fixed legs' outer products
with one einsum and multiplies them into the unfolded tensor (made
contiguous in both orientations once per block), giving a stack of small
matrices, then updates the two free legs by three stacked matrix-vector
products.  Row norms are read off the float view and divided in place; the
fallback for a zero row runs only when one occurs.  It iterates on the
tensor's multilinear-rank core (their multilinear SVD, same issue), so an
isometry lift runs on the core of the tensor it lifts.  The first block
holds _FIRST_BLOCK restarts; every later block starts with the best value
found so far as its drop floor, so most of its restarts are dropped within a
few steps, and holds at most _RESTART_ELEMENTS / m^2 restarts so memory
stays bounded at any count.  Start vectors are drawn per restart in a fixed
order, so a seed names the same starts whatever the block sizes.
"""

from __future__ import annotations

import logging
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

logger = logging.getLogger(__name__)

# Largest tensor side the alternating-maximization oracle will accept.
ORACLE_SIDE_BUDGET = 48
# Largest restarts * side^2 one block of the oracle's restarts may hold; each
# of the block's (restarts, side, side) complex arrays stays within 4 MiB.
_RESTART_ELEMENTS = 1 << 18
# Restarts in the oracle's first block; every later block starts from the
# best value found so far as its drop floor.
_FIRST_BLOCK = 16
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

    Each half-step fixes two legs, forms the matrix M of the other two, and
    updates those one leg at a time, x, then y, then x again; each update is
    the exact maximizer with the other three legs fixed, so the value never
    decreases.  A half-step costs one matrix product with the unfolded core
    and three stacked matrix-vector products (`_leg_steps`); no eigensolve
    or SVD is called.  The iteration runs on the core T x_k Q_k^H
    (`_leg_bases`) from starts projected onto the Q_k: from its first
    update on, the full-side iteration stays in their ranges, so values
    agree to rounding.  A restart stops once a step gains at most
    1e-12 * max(1, value), or after 200 steps, and is dropped once the
    smaller of its linear and geometric rise bounds (`_rise_bounds`) cannot
    lift it more than that tolerance above the best value found so far.
    Restarts (default 50 m^2, at least 1) run batched: a first block of
    _FIRST_BLOCK (16), then blocks of at most _RESTART_ELEMENTS / m^2, each
    starting from the best value found so far, so a later block drops most
    of its restarts within a few steps.  Their starts are the same seeded
    starts as one at a time: per restart, in order, a (4, m) complex
    Gaussian draw whose four rows start the legs x, y, u, v, with the first
    half-step's M formed from u and v.
    Logs one INFO line per call on a nonzero tensor; its half-steps sum
    over the blocks.
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
    bases = _leg_bases(t)
    core = t.entries if bases is None else _core(t.entries, bases)
    unfolded = core.reshape(core.shape[0] * core.shape[1], -1)
    block = max(1, _RESTART_ELEMENTS // (m * m))
    edges = [0, *range(_FIRST_BLOCK, restarts, block), restarts]
    best = 0.0
    tally = np.zeros(5, dtype=int)
    for lo, hi in zip(edges, edges[1:]):
        z = rng.normal(size=(hi - lo, 2, 4, m))
        starts = z[:, 0] + 1j * z[:, 1]
        legs = [starts[:, k] if bases is None else starts[:, k] @ bases[k].conj()
                for k in range(4)]
        value, counts = _alternating_max(unfolded, legs, best)
        best = max(best, value)
        tally += counts
    logger.info("hardness oracle side=%d core=%s restarts=%d half-steps=%d "
                "converged=%d linear=%d geometric=%d cap=%d",
                m, "x".join(map(str, core.shape)), restarts, *tally)
    return best


def _unfolding_sum(entries: np.ndarray, fn):
    """Sum of fn over (4, m, c m^2) stacks tiling the four legs' unfoldings:
    slice k holds leg k's unfolding restricted to c values of another index
    (leg 1's for leg 0, leg 0's for the others), with 4 c m^3 at most
    _RESTART_ELEMENTS, so one stack covers a side up to 16."""
    m = entries.shape[0]
    step = max(1, min(m, _RESTART_ELEMENTS // (4 * m**3)))
    total = 0.0
    for lo in range(0, m, step):
        part = entries[lo:lo + step]
        stack = np.empty((4, m, len(part), m, m), dtype=complex)
        stack[0] = entries[:, lo:lo + step]
        stack[1] = part.transpose(1, 0, 2, 3)
        stack[2] = part.transpose(2, 0, 1, 3)
        stack[3] = part.transpose(3, 0, 1, 2)
        total = total + fn(stack.reshape(4, m, -1))
        del stack  # freed before the next chunk's stack is made
    return total


def _leg_bases(t: Tensor4) -> list[np.ndarray] | None:
    """Orthonormal (m, r_k) bases of the legs' unfolding ranges, or None when
    every leg has full rank.

    Pivoted Cholesky of each leg's Gram matrix stops at residual diagonal
    (1e-6 |T|_F)^2, above the Gram's rounding (about 1e-16 |T|_F^2).  A
    basis is kept only if the unfolding's residual off it, computed
    directly in the complementary columns of its QR, is at most
    1e-13 |T|_F; else that leg keeps the identity.
    """
    m = t.side
    grams = _unfolding_sum(t.entries, lambda a: a @ a.conj().transpose(0, 2, 1))
    cols, ranks = _pivoted_cholesky(grams, (1e-6 * t.fro) ** 2)
    if (ranks == m).all():
        return None
    q = np.linalg.qr(cols)[0]
    off = (q * (np.arange(m) >= ranks[:, None, None])).conj().transpose(0, 2, 1)

    def sq_norms(a):
        w = (off @ a).view(float)
        return np.einsum("kij,kij->k", w, w)

    residual = _unfolding_sum(t.entries, sq_norms)
    bases = [q[k, :, :r] if res <= (1e-13 * t.fro) ** 2 else np.eye(m)
             for k, (r, res) in enumerate(zip(ranks, residual))]
    return None if all(b.shape[1] == m for b in bases) else bases


def _pivoted_cholesky(grams: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a stack of PSD matrices and their ranks, pivoting
    on the largest residual diagonal while it exceeds tol; the columns past
    a matrix's rank are zero."""
    count, m, _ = grams.shape
    legs = np.arange(count)
    rest = grams.copy()
    diag = rest.diagonal(axis1=1, axis2=2).real  # a view: it follows rest
    cols = np.zeros((count, m, m), dtype=complex)
    ranks = np.zeros(count, dtype=int)
    for j in range(m):
        pivot = diag.argmax(axis=1)
        top = diag[legs, pivot]
        live = top > tol
        if not live.any():
            break
        col = rest[legs, :, pivot] * (live / np.sqrt(np.maximum(top, tol)))[:, None]
        cols[:, :, j] = col
        rest -= np.einsum("ki,kj->kij", col, col.conj())
        ranks += live
    return cols, ranks


def _core(entries: np.ndarray, bases: list[np.ndarray]) -> np.ndarray:
    """T x_k Q_k^H: each leg in turn is contracted with conj(Q_k) and moved
    last, so every product reads a C-ordered (m, rest) view."""
    core = entries
    for q in bases:
        core = (core.reshape(len(q), -1).T @ q.conj()).reshape(*core.shape[1:], q.shape[1])
    return core


def _alternating_max(unfolded: np.ndarray, legs: list[np.ndarray], best: float = 0.0
                     ) -> tuple[float, np.ndarray]:
    """Largest value of leg-by-leg maximization from the (x, y, u, v) starts,
    or the floor best if none beats it, and the tally: half-steps, then
    restarts converged, dropped by the linear or the geometric bound, and
    stopped by the cap.  A restart is dropped once its rise bound cannot
    lift it past the largest of best and the values reached so far."""
    x, y, u, v = (w / np.linalg.norm(w, axis=1, keepdims=True) for w in legs)
    front, back = (x.shape[1], y.shape[1]), (u.shape[1], v.shape[1])
    to_front = np.ascontiguousarray(unfolded.T)
    value = np.zeros(len(x))
    prev = np.full(len(x), np.inf)
    tally = np.zeros(5, dtype=int)
    for step in range(_MAX_STEPS):
        tally[0] += 2
        pair = np.einsum("bk,bl->bkl", u.conj(), v.conj()).reshape(len(u), -1)
        _, x, y = _leg_steps((pair @ to_front).reshape(-1, *front), x, y)
        pair = np.einsum("bk,bl->bkl", x.conj(), y.conj()).reshape(len(x), -1)
        sing, u, v = _leg_steps((pair @ unfolded).reshape(-1, *back), u, v)
        gain = sing - value
        done = gain <= 1e-12 * np.maximum(1.0, value)
        value = sing
        if done.any():
            best = max(best, float(value[done].max()))
        linear, geometric = _rise_bounds(gain, prev, _MAX_STEPS - 1 - step)
        floor = best + 1e-12 * max(1.0, best)
        by_linear = ~done & (value + linear <= floor)
        by_tail = ~done & ~by_linear & (value + geometric <= floor)
        tally[1:4] += done.sum(), by_linear.sum(), by_tail.sum()
        keep = ~(done | by_linear | by_tail)
        prev = gain
        if not keep.all():
            best = max(best, float(value[~keep].max()))
            x, y, u, v, value, prev = x[keep], y[keep], u[keep], v[keep], value[keep], prev[keep]
            if not len(value):
                return best, tally
    tally[4] += len(value)
    return max(best, float(value.max())), tally


def _rise_bounds(gain: np.ndarray, prev: np.ndarray, steps_left: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on each running restart's remaining rise: its gain kept for the
    steps left, and while gains shrink by q = gain / prev < 1, their
    geometric tail gain q / (1 - q) (infinite otherwise)."""
    q = gain / prev
    geometric = np.divide(gain * q, 1.0 - q, out=np.full(len(q), np.inf),
                          where=(q > 0.0) & (q < 1.0))
    return gain * steps_left, geometric


def _leg_steps(mats: np.ndarray, x: np.ndarray, y: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact updates of x, then y, then x again for the value |x^H M conj(y)|.

    With the other leg fixed, each update is the unit vector that maximizes
    the value, so it never decreases.  The first x update stays the raw
    image M conj(y): y's update M^T conj(x) depends only on x's direction.
    A row whose image is zero keeps its previous unit vector; where
    M conj(y) = 0, y's update reads the previous x.  Those are exactly the
    rows whose y image is zero, as |M^T conj(M conj(y))| >= |M conj(y)|^2
    for a unit y, so that fallback runs only when a y image is zero.
    Returns the final value s = ||M conj(y)|| and the unit rows x, y, with
    x^H M conj(y) = s.
    """
    image = np.einsum("bij,bj->bi", mats, y.conj())
    y, norms = _unit(np.einsum("bij,bi->bj", mats, image.conj()), y)
    if not norms.all():
        lost = norms == 0.0
        y[lost] = _unit(np.einsum("bij,bi->bj", mats[lost], x[lost].conj()), y[lost])[0]
    x, sing = _unit(np.einsum("bij,bj->bi", mats, y.conj()), x)
    return sing, x, y


def _unit(rows: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled in place to unit length, and their norms; zero rows take the fallback's."""
    flat = rows.view(float)
    norms = np.sqrt(np.einsum("bk,bk->b", flat, flat))
    if norms.all():
        flat /= norms[:, None]
        return rows, norms
    return np.divide(rows, norms[:, None], out=fallback.copy(), where=norms[:, None] > 0.0), norms


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
