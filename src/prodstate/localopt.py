"""High-fidelity product-state learning.

Two learners share this module.  `local_optimize` iteratively improves a warm
start: it recenters the register so the candidate sits at the all-zeros
string, estimates the vector of first-excitation amplitudes at progressively
finer accuracy rungs, and either takes a damped step toward the measured
direction or — when the vector stays small at every rung — stops, since a
small amplitude vector certifies near-optimality: if the candidate has
fidelity alpha2 = 2/3 + c with c > 0 and its amplitude vector has norm |z|,
no product state has fidelity above alpha2 + min(3|z|, |z|^2 / c).
`high_fidelity_learn` removes the warm-start requirement under a promise that
some product state has fidelity at least 5/6 + eps: it solves the two half
registers recursively, tensors the results, and hands them to
`local_optimize`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import PromiseViolationError
from .oracle import (
    StateOracle,
    _check_unit_interval,
    _random_hermitian_unit,
    estimate_z,
    z_copy_cost,
)
from .states import (
    ProductParams,
    _marginal,
    _sandwich,
    _top_pair,
    recenter_unitaries,
    transform_params,
    vector_to_params,
)

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class LocalOptConfig:
    """Accuracy/confidence targets and schedule parameters for local optimization.

    eps: final fidelity suboptimality target, in (0, 1/3].
    delta: total failure probability budget, in (0, 1).
    margin: assumed gap of the warm start's fidelity above the 2/3 floor, in
        [0, 1/2]; a larger margin shortens the accuracy ladder.
    """

    eps: float
    delta: float
    margin: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0 / 3.0):
            raise ValueError("eps must lie in (0, 1/3]")
        _check_unit_interval(self.delta, "delta")
        if not (0.0 <= self.margin <= 0.5):
            raise ValueError("margin must lie in [0, 1/2]")

    @property
    def effective_margin(self) -> float:
        return max(self.eps, self.margin)

    @property
    def ladder_depth(self) -> int:
        """Number of accuracy rungs; the finest rung has accuracy e^-depth."""
        return math.ceil(0.5 * math.log(90.0 / (self.effective_margin * self.eps)))

    def rung_failure_prob(self, rung: int) -> float:
        """Failure budget for one amplitude estimate at the given rung (1-based)."""
        remaining = self.ladder_depth + 1 - rung
        calls = (math.ceil(5.0 * self.eps * math.exp(2.0 * self.ladder_depth))
                 + math.ceil(900.0 * remaining / self.effective_margin))
        return self.delta * 2.0**-remaining / calls

    @property
    def max_outer_iters(self) -> int:
        """Cap on improvement steps, 10x their design bound; passing it breaks the promise."""
        halving_phases = math.ceil(
            (450.0 / self.effective_margin) * math.log(max((1.0 / 3.0) / self.eps, 2.0)))
        endgame = math.ceil(5.0 * self.eps * math.exp(2.0 * self.ladder_depth))
        return 10 * (endgame + max(0, halving_phases) + 1)


def local_optimize(o: StateOracle, start: ProductParams, cfg: LocalOptConfig,
                   history: list | None = None) -> ProductParams:
    """Improve a warm-start product state to within eps of the best product fidelity.

    Requires (unchecked) that the start has fidelity >= 2/3 + margin.  Each
    outer iteration walks the accuracy ladder from coarse to fine; the first
    rung whose measured amplitude vector a satisfies |a| >= 2 * accuracy
    triggers the damped update (step to the state with per-site parameters
    a/10 in the recentered frame) and restarts the ladder.  Surviving every
    rung certifies near-optimality and returns the candidate.  Exceeding the
    safety cap raises PromiseViolationError.  The rungs of a ladder share
    one frame, so the oracle reads the state for the first rung only (see
    `oracle.estimate_z`); every rung still charges and draws its own.

    If `history` is a list, one record per executed update is appended with
    the parameters before/after and the measured step norm.
    """
    if start.n != o.n:
        raise ValueError("start parameters must cover the whole register")
    params = start
    depth = cfg.ladder_depth
    for _ in range(cfg.max_outer_iters):
        basis = recenter_unitaries(params)
        updated = False
        for rung in range(1, depth + 1):
            accuracy = math.exp(-rung)
            a = estimate_z(o, basis, eps=accuracy, delta=cfg.rung_failure_prob(rung))
            step_norm = float(np.linalg.norm(a))
            if step_norm >= 2.0 * accuracy:
                new_params = transform_params(
                    basis, ProductParams(tuple(a / 10.0)), inverse=True)
                if history is not None:
                    history.append({
                        "rung": rung,
                        "step_norm": step_norm,
                        "before": params,
                        "after": new_params,
                    })
                params = new_params
                updated = True
                break
        if not updated:
            return params
    raise PromiseViolationError(
        "local optimization did not converge within the safety cap; "
        "the warm start most likely violated the fidelity promise")


def _reduced_oracle(o: StateOracle, sites: list[int]) -> StateOracle:
    """o on the marginal of `sites`, sharing o's factor (`states._marginal`; a suffix is moved).

    The child is not re-validated, seeds its generator with one draw from
    o's stream, and keeps its own copy count (the caller charges it to o).
    """
    child = copy.copy(o)
    child.rho, child.n = _marginal(o.rho, o.n, sites), len(sites)
    child.copies_consumed, child._frame_key, child._frame = 0, None, None
    child._rng = np.random.default_rng(int(o._rng.integers(2**63)))
    return child


def single_site_estimate(o: StateOracle, eps: float, delta: float) -> ProductParams:
    """A single-qubit product state within eps of the best, under the promise opt >= 5/6 + eps.

    Sampling backend: measure each Pauli axis
    N = max(ceil(50 ln(2/delta)), ceil(3 ln(6/delta) / (eps (2/3 + 2 eps))))
    times and take the top eigenvector (in closed form, `states._top_pair`)
    of the reconstructed density matrix.  Hoeffding at delta/3 per axis puts
    the Bloch vector's error at e^2 <= 6 ln(6/delta) / N; the top
    eigenvector then loses at most e^2 / (2|b|), and the promise gives
    |b| >= 2/3 + 2 eps, so the loss is at most eps.  Exact backend: the
    state's top eigenvector after noise of operator norm up to e/2, the
    same Bloch error, charged the same 3N copies.
    """
    if o.n != 1:
        raise ValueError("single-site estimation needs a one-qubit oracle")
    _check_unit_interval(eps, "eps")
    _check_unit_interval(delta, "delta")
    shots = max(math.ceil(50.0 * math.log(2.0 / delta)),
                math.ceil(3.0 * math.log(6.0 / delta) / (eps * (2.0 / 3.0 + 2.0 * eps))))
    o._check_shots(3 * shots)
    o._charge(3 * shots)
    rho = _sandwich(o.rho)
    if o.backend == "exact":
        scale = o._noise_scale(0.5 * math.sqrt(6.0 * math.log(6.0 / delta) / shots))
        if scale != 0.0:
            rho = rho + scale * _random_hermitian_unit(o._rng, 2, "op")
    else:
        bloch = []
        for pauli in _PAULIS:
            up = (1.0 + float(np.real(np.trace(rho @ pauli)))) / 2.0
            up = min(max(up, 0.0), 1.0)
            bloch.append(2.0 * o._rng.binomial(shots, up) / shots - 1.0)
        rho = (np.eye(2, dtype=complex)
               + sum(b * p for b, p in zip(bloch, _PAULIS))) / 2.0
    return vector_to_params(_top_pair(rho)[1])


def high_fidelity_learn(o: StateOracle, eps: float, delta: float) -> ProductParams:
    """Learn a product state within eps of the best product fidelity, no warm start.

    Valid under the promise that the best product fidelity is at least
    5/6 + eps with eps in (0, 1/6].  Recursively solves the two half
    registers (confidence delta/4 each), tensors the halves, and refines with
    local_optimize at margin 1/3 + eps and confidence delta/2.  A violated
    promise surfaces as PromiseViolationError from the refinement cap.

    A certified refinement always runs the ladder's deepest rung, so on the
    sampling backend a level whose deepest-rung `estimate_z` exceeds the shot
    budget raises ResourceBudgetError before its halves draw any shot.  The
    halves' copies are charged to `o` even when one of them raises.
    """
    if not (0.0 < eps <= 1.0 / 6.0):
        raise ValueError("eps must lie in (0, 1/6]")
    _check_unit_interval(delta, "delta")
    n = o.n
    if n == 1:
        return single_site_estimate(o, eps, delta)
    cfg = LocalOptConfig(eps=eps, delta=delta / 2.0, margin=1.0 / 3.0 + eps)
    depth = cfg.ladder_depth
    o._check_shots(z_copy_cost(n, math.exp(-depth), cfg.rung_failure_prob(depth)))
    left = n - n // 2
    o_left = _reduced_oracle(o, list(range(left)))
    o_right = _reduced_oracle(o, list(range(left, n)))
    try:
        p_left = high_fidelity_learn(o_left, eps, delta / 4.0)
        p_right = high_fidelity_learn(o_right, eps, delta / 4.0)
    finally:
        o._charge(o_left.copies_consumed + o_right.copies_consumed)
    return local_optimize(o, p_left.concat(p_right), cfg)
