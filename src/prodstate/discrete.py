"""Learning the high-fidelity members of a finite menu of product states.

Each site carries a finite list of allowed single-site pure states; the class
is every tensor product of per-site choices.  The learner sweeps the register
site by site, keeping exactly the prefixes whose estimated prefix fidelity
clears the level, so the surviving index tuples sandwich the true
high-fidelity set.  A brute-force census over the whole class serves as the
ground-truth oracle at desk scale.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np

from .errors import PromiseViolationError, ResourceBudgetError
from .oracle import StateOracle, _check_unit_interval, estimate_fidelity
from .states import QuantumState, product_vectors, vector_fidelity

__all__ = [
    "DiscreteClass",
    "class_fidelity_census",
    "discrete_learn",
    "member_vector",
]

logger = logging.getLogger(__name__)

# Largest class the census will enumerate.
CENSUS_BUDGET = 250_000

# Smallest pairwise-overlap bound the survivor-count guarantee is stated for;
# smaller bounds still run but are flagged as outside the guarantee.
STATED_GAMMA_FLOOR = 1.0 / math.e


class DiscreteClass:
    """Per-site menus of unit qubit vectors defining a finite product-state class.

    ``site_states[k]`` lists the allowed states of qubit k as vectors in C^2.
    ``gamma`` upper-bounds the squared overlap of any two distinct states in
    the same menu; it defaults to the largest such overlap and must lie in
    (0, 1), so menus of exactly orthogonal states need an explicit bound.
    """

    def __init__(self, site_states, gamma: float | None = None):
        menus = []
        for k, menu in enumerate(site_states):
            vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in menu]
            if not vecs:
                raise ValueError(f"site {k} has an empty menu")
            for v in vecs:
                if v.shape[0] != 2:
                    raise ValueError("site states must be qubit vectors")
                if abs(np.linalg.norm(v) - 1.0) > 1e-9:
                    raise ValueError("site states must be unit vectors")
            menus.append(tuple(v.copy() for v in vecs))
        if not menus:
            raise ValueError("class needs at least one site")

        worst = 0.0
        for menu in menus:
            for u, v in itertools.combinations(menu, 2):
                worst = max(worst, float(abs(np.vdot(u, v)) ** 2))
        if gamma is None:
            gamma = worst
        if not worst <= gamma + 1e-12:
            raise ValueError(
                f"gamma={gamma} is below the largest same-site overlap {worst}")
        if not 0.0 < gamma < 1.0:
            raise ValueError(
                "gamma must lie in (0, 1); menus with only orthogonal states "
                "need an explicit positive bound")

        self.site_states = tuple(menus)
        self.gamma = float(gamma)

    @property
    def n(self) -> int:
        return len(self.site_states)

    @property
    def s(self) -> int:
        return max(len(menu) for menu in self.site_states)

    @property
    def size(self) -> int:
        return math.prod(len(menu) for menu in self.site_states)

    @property
    def gamma_below_stated_range(self) -> bool:
        """True when the overlap bound is below the guaranteed regime."""
        return self.gamma < STATED_GAMMA_FLOOR


def member_vector(cls: DiscreteClass, member: tuple[int, ...]) -> np.ndarray:
    """Dense amplitudes of the class member picked by per-site indices."""
    if len(member) == 0 or len(member) > cls.n:
        raise ValueError("member needs between 1 and n site indices")
    sites = np.stack([cls.site_states[site][idx] for site, idx in enumerate(member)])
    return product_vectors(sites[None])[0]


def class_fidelity_census(rho: QuantumState, cls: DiscreteClass,
                          threshold: float) -> set[tuple[int, ...]]:
    """Every class member with exact fidelity >= threshold, by enumeration.

    Raises ResourceBudgetError for classes above CENSUS_BUDGET members.
    """
    if rho.n != cls.n:
        raise ValueError("state and class sizes do not match")
    if cls.size > CENSUS_BUDGET:
        raise ResourceBudgetError(
            f"census over {cls.size} members exceeds the {CENSUS_BUDGET} budget")
    out = set()
    for member in itertools.product(*(range(len(m)) for m in cls.site_states)):
        if vector_fidelity(rho, member_vector(cls, member)) >= threshold:
            out.add(member)
    return out


def discrete_learn(o: StateOracle, cls: DiscreteClass, eta: float, eps: float,
                   delta: float) -> set[tuple[int, ...]]:
    """Member index tuples whose fidelity with the hidden state clears eta.

    Sweeps sites in order, extending each surviving prefix by every menu
    entry of the next site and keeping those whose estimated prefix fidelity
    is at least eta - eps/2; each prefix level is one `estimate_fidelity`
    call on the stacked candidates, charged as one call per candidate.  With
    probability 1 - delta the output contains every member of fidelity >=
    eta and only members of fidelity >= eta - eps.
    """
    _check_unit_interval(eta, "eta")
    if not 0.0 < eps <= eta / 2.0:
        raise ValueError("eps must lie in (0, eta/2]")
    _check_unit_interval(delta, "delta")
    if o.n != cls.n:
        raise ValueError("oracle register size does not match the class")
    if cls.gamma_below_stated_range:
        logger.warning(
            "class overlap bound %.4f is below %.4f; the survivor-count "
            "guarantee is not stated for this range", cls.gamma,
            STATED_GAMMA_FLOOR)

    n, s = cls.n, cls.s
    spread = math.log(1.0 / cls.gamma)
    log_base = math.log(10.0 * n * s)
    # Worst-case estimation-call count and survivor bound, kept in log space
    # because near-parallel menus push both beyond float range.
    log_calls = math.log(20.0 / eta) / spread * log_base
    delta_call = delta * math.exp(-min(max(log_calls, 0.0), 690.0))
    log_guard = math.log(4.0) + math.log(2.0 / (eta - eps)) / spread * log_base

    menus = [np.array(menu) for menu in cls.site_states]
    survivors: list[tuple[int, ...]] = [()]
    for m in range(1, n + 1):
        if not survivors:
            break
        # Extending sorted survivors in menu order keeps the candidates, and
        # so the survivors, in lexicographic order.
        cands = [prefix + (idx,) for prefix in survivors for idx in range(len(menus[m - 1]))]
        picks = np.array(cands)
        sites = np.stack([menus[k][picks[:, k]] for k in range(m)], axis=1)
        ests = estimate_fidelity(o, m, sites, eps / 2.0, delta_call)
        new: list[tuple[int, ...]] = []
        for member, est in zip(cands, ests):
            if est >= eta - eps / 2.0:
                if math.log(len(new) + 1.0) > log_guard:
                    raise PromiseViolationError(
                        f"prefix-{m} survivor count exceeded "
                        f"{math.exp(min(log_guard, 690.0)):.1f}; the "
                        "class size bound failed, indicating estimation "
                        "failure")
                new.append(member)
        survivors = new
    return set(survivors)
