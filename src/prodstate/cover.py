"""Covers of the high-fidelity product states of an unknown register.

Given measurement access to an n-qubit state and a fidelity level eta, a
*cover* is a short list of product parameter vectors such that (1) every
member has fidelity at least eta - eps with the state, (2) members are
pairwise at tangent distance at least 2/eta, and (3) every product state of
fidelity at least eta lies within tangent distance 3/eta of some member.

`build_cover` constructs one by sweeping the register left to right,
maintaining a cover of each prefix.  At a new site every previous member is
branched over a fixed six-state local net, and each branch (a "root")
proposes at most one new member: the point one constrained site sweep
reaches from the root (`_polish`).  The sweep scores product states on an
estimate of the prefix marginal, in the root's frame, where the root is
|0...0>.  The score is quadratic in each site, so each step is an exact
one-site maximisation, the top eigenpair of a 2x2 matrix taken in closed
form, as in single-site DMRG sweeps (Schollwock, arXiv:1008.3477, sec. 6),
on two rows read on the purchase's own coordinates, built there from cached
prefix and suffix products of the point's site vectors, the sweep's environments.
A step is taken only when it raises the score and keeps the point at the
separation bound from every member already accepted at that prefix.
Uncapped, the roots of a prefix share one purchase and none rotates it: a
product unitary maps product states to product states, so a root-frame
row maps back through the root's adjoint site rotations.  A cut row is no
product, so under a degree cap each root buys its own weight-<= d block,
measured in its frame by the oracle.  Each estimate is hermitised once,
when bought, and stored beside its top eigenvalue, which bounds the score
of every root that reads it; above dimension 32, a Krylov Ritz value plus
5e-13 once a deflation bound certifies it (`_top_eigenvalue`).  A root
whose bound misses the threshold proposes nothing.  The paper proposes
members from nets sized by a flatness scale mu(eps, eta), which need over
1e29 grid points on one qubit, and completes them with a spread-out
remainder through constrained polynomial optimization; at desk scale the
sweep replaces both, and the reduction's solver runs standalone as
`polyopt.solve_constrained`.  `estimate_opt` wraps the builder in a
bisection over eta to estimate the best product-state fidelity with a
witness, and stops once the ceilings it bought and its witness's estimate
bracket opt within 2 eps.  Its levels share each purchase and its
ceiling; each level runs its own sweeps.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import PromiseViolationError
from .oracle import (
    StateOracle,
    _check_unit_interval,
    estimate_fidelity,
    subspace_tomography,
    tomography_copy_cost,
)
from .states import (
    ProductParams,
    Z_MAX,
    _flip_schedule,
    _top_pair,
    recenter_unitaries,
    site_stack,
    tangent_distance,
    vector_to_params,
)

__all__ = [
    "CoverOverrides",
    "CoverParams",
    "Cover",
    "DESK_OVERRIDES",
    "LOCAL_NET",
    "build_cover",
    "estimate_opt",
]

logger = logging.getLogger(__name__)

# Six single-site states whose tangent-distance balls of radius 1 cover the
# Bloch sphere: |0>, |1>, and the four equator states (|0> ± |1>)/sqrt(2),
# (|0> ± i|1>)/sqrt(2).  Branching every member over this net keeps some
# root within per-site tangent distance 1 of any product state.
LOCAL_NET = (0.0 + 0.0j, complex(Z_MAX), 1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j)

# A purchase's ceiling: `eigvalsh` up to _DENSE_TOP rows; above, a Ritz value
# of a Krylov space of at most _KRYLOV vectors plus _CEILING_SLACK, once a
# deflation bound certifies it.
_DENSE_TOP = 32
_KRYLOV = 24
_CEILING_SLACK = 5e-13


@dataclass(frozen=True)
class CoverOverrides:
    """Tuning knobs of the cover search.

    `degree_cap` >= 1 bounds the excitation weight, in each root's frame, of
    the block a root buys (None: every weight, one block per prefix), and
    `tomo_eps` sets the tomography accuracy (None: eps/8 of the level).
    """

    degree_cap: int | None = None
    tomo_eps: float | None = None

    def __post_init__(self):
        if self.degree_cap is not None and self.degree_cap < 1:
            raise ValueError("degree_cap must be a positive integer")
        if self.tomo_eps is not None:
            _check_unit_interval(self.tomo_eps, "tomo_eps")


#: The default knobs, used by the command-line runner and the benchmark.
DESK_OVERRIDES = CoverOverrides()


@dataclass(frozen=True)
class CoverParams:
    """Level, accuracy, and failure budget of a cover, plus derived radii.

    `eta` is the fidelity level being covered, `eps` the slack (members are
    only guaranteed fidelity eta - eps), and `delta` the total failure
    probability budget across every measurement the builder makes.
    """

    eta: float
    eps: float
    delta: float
    overrides: CoverOverrides = field(default_factory=CoverOverrides)

    def __post_init__(self):
        _check_unit_interval(self.eta, "eta")
        if not 0.0 < self.eps < self.eta / 3.0:
            raise ValueError("eps must lie in (0, eta/3)")
        _check_unit_interval(self.delta, "delta")

    # --- radii ---------------------------------------------------------

    @property
    def b(self) -> float:
        """Pairwise member separation (tangent distance)."""
        return 2.0 / self.eta

    @property
    def b_far(self) -> float:
        """Coverage radius: every eta-fidelity state is this close to a member."""
        return 3.0 / self.eta

    @property
    def member_cap(self) -> float:
        """Hard member-count cap; exceeding it means the level promise failed."""
        return math.ceil(6.0 / self.eta) + 2

    # --- per-prefix schedule -------------------------------------------

    def degree(self, m: int) -> int:
        """Excitation weight kept by the prefix-m tomography: m means no cut."""
        cap = self.overrides.degree_cap
        return m if cap is None else min(m, cap)

    @property
    def tomo_eps(self) -> float:
        if self.overrides.tomo_eps is not None:
            return float(self.overrides.tomo_eps)
        return self.eps / 8.0


@dataclass(frozen=True)
class Cover:
    """A cover of the fidelity-eta product states of the first m sites."""

    members: tuple[ProductParams, ...]
    m: int
    params: CoverParams

    def __len__(self) -> int:
        return len(self.members)


# --- candidate search internals ---------------------------------------------


def _purchase(est: np.ndarray) -> tuple[np.ndarray, float]:
    """(rho, ceiling) of a bought truncation: est's Hermitian part and its top
    eigenvalue, or a certified bound at most 5e-13 above it (`_top_eigenvalue`)."""
    rho = 0.5 * (est + est.conj().T)
    return rho, _top_eigenvalue(rho)


def _top_eigenvalue(rho: np.ndarray) -> float:
    """The top eigenvalue of a Hermitian matrix, or a bound at most
    _CEILING_SLACK above it, certified to rounding.

    Up to dimension _DENSE_TOP `eigvalsh` reads it.  Above, a Lanczos Ritz
    value theta that `_certified_ritz_value` certifies gives theta +
    _CEILING_SLACK at O(dim^2) per Krylov vector; without a certificate
    `eigvalsh` reads it.
    """
    if len(rho) > _DENSE_TOP and (theta := _certified_ritz_value(rho)) is not None:
        return theta + _CEILING_SLACK
    return float(np.linalg.eigvalsh(rho)[-1])


def _certified_ritz_value(rho: np.ndarray) -> float | None:
    """The top Ritz value theta of a Hermitian matrix on a Krylov space of up
    to _KRYLOV vectors, started from the column of its largest diagonal entry
    (Lanczos with full reorthogonalization), once every eigenvalue provably
    lies below theta + _CEILING_SLACK / 2; None when no space gets there.

    In the basis of the unit Ritz vector y and its complement, rho is
    [[theta, b*], [b, C]] with |b| = |r| for the residual r = rho y - theta y,
    and |C|_F^2 = |rho|_F^2 - theta^2 - 2 |r|^2.  Since |C|_2 <= |C|_F, the
    top eigenvalue is at most that of [[theta, |r|], [|r|, |C|_F]]: O(dim
    size) work per step beside the matvec, in place of an O(dim^3) spectrum.  It
    certifies a top eigenvalue that stands clear of the rest; a degenerate
    or crowded top fails it.  The other half of the slack covers the
    rounding of theta, at worst about dim * 2.2e-16 * |rho|_2, which stays
    under it up to dimension 1024 for a density estimate (|rho|_2 ~ 1).
    """
    dim = len(rho)
    frobenius = float(np.vdot(rho, rho).real)
    basis = np.zeros((dim, _KRYLOV), dtype=complex)
    image = np.zeros_like(basis)
    vec = rho[:, int(np.argmax(rho.diagonal().real))]
    size = 0
    while size < _KRYLOV and (norm := np.linalg.norm(vec)) > 1e-12:
        basis[:, size] = vec / norm
        image[:, size] = rho @ basis[:, size]
        size += 1
        vals, vecs = np.linalg.eigh(basis[:, :size].conj().T @ image[:, :size])
        theta, s = float(vals[-1]), vecs[:, -1]
        resid = float(np.linalg.norm(image[:, :size] @ s - theta * (basis[:, :size] @ s)))
        rest = math.sqrt(max(frobenius - theta**2 - 2.0 * resid**2, 0.0))
        if 0.5 * (rest - theta) + math.hypot(0.5 * (theta - rest), resid) <= 0.5 * _CEILING_SLACK:
            return theta
        vec = image[:, size - 1]
        for _ in range(2):
            vec = vec - basis[:, :size] @ (basis[:, :size].conj().T @ vec)
    return None


def _sweep(rho: np.ndarray, root: ProductParams, d: int, far):
    """(point, score) of the constrained site sweep from `root` on the purchase rho.

    The purchase's coordinates are `_flip_schedule`'s sorted codes, as an
    (m, W) bit table: every m-bit string on a shared purchase (d = m), the
    weight-<= d ones on a root's own.  The environments left and right, the
    products of the site vectors before and after site i, are length-W
    vectors over them, the prefix grown along the sweep and the suffix
    rebuilt once per sweep; the pair of rows at site i is (left * C_i[x_i,
    a]) * right, a = 0, 1, each product in a full Kronecker row's order.  On
    a shared purchase C_i = U_i^dagger, U the root's recentring; on a root's
    own C_i = I and the site vectors map to the point by U^dagger.

    `far` judges each improving trial point, or is None when there is
    nothing to keep the point away from, and then no trial is converted.
    """
    m = root.n
    adjoints = np.array(recenter_unitaries(root)).conj().transpose(0, 2, 1)
    own = d < m
    cols = np.broadcast_to(np.eye(2, dtype=complex), adjoints.shape) if own else adjoints
    bits = _flip_schedule(m, d)[2] >> np.arange(m - 1, -1, -1)[:, None] & 1

    def params_of(sites):
        return vector_to_params(np.einsum("kab,kb->ka", adjoints, sites) if own else sites)

    sites = cols[:, :, 0].copy()
    ones = np.ones(bits.shape[1], dtype=complex)
    row = reduce(np.multiply, (s[b] for s, b in zip(sites, bits)), ones)
    score = float(np.real(row.conj() @ rho @ row))
    for _ in range(50):
        start = score
        left, rights = ones, [ones]
        for t, b in zip(sites[:0:-1], bits[:0:-1]):
            rights.insert(0, t[b] * rights[0])
        for i in range(m):
            # np.take gives C-ordered (2, W) rows; a transposed gather would be F-ordered.
            rows = left * np.take(cols[i].T, bits[i], axis=1) * rights[i]
            val, vec = _top_pair(rows.conj() @ rho @ rows.T)
            if val > score:
                trial = sites.copy()
                trial[i] = cols[i] @ vec
                if far is None or far(params_of(trial)):
                    sites, score = trial, val
            left = left * sites[i][bits[i]]
        if score - start < 1e-10:
            break
    return params_of(sites), score


def _clears(point: ProductParams, members, b: float) -> bool:
    """Whether `point` lies at tangent distance at least b from every one of `members`."""
    return all(tangent_distance(point, member) >= b for member in members)


def _polish(rho: np.ndarray, root: ProductParams, members,
            params: CoverParams) -> ProductParams | None:
    """The new cover member one constrained site sweep finds from `root`, or None.

    The sweep runs in the root's frame, where the root is |0...0>, on site
    vectors s scored by <s| P_d U rho_[m] U^dagger P_d |s> as the purchase
    rho holds it, U the root's recentring and d = params.degree(m).  The
    score is quadratic in each site, so a site's best vector is the top
    eigenvector of the 2x2 matrix of the rows with e_0 or e_1 there
    (`_top_pair`, on `_sweep`'s rows on the purchase's coordinates).  It is
    taken when it raises the score and keeps the point's tangent distance to each
    of `members` (original frame) at least params.b; `_build` turns a root
    closer than that away.  Sweeps stop on a gain below 1e-10, or after 50.
    Returns the point (original frame) if its score reaches eta - eps/2.
    """
    far = (lambda point: _clears(point, members, params.b)) if members else None
    point, score = _sweep(rho, root, params.degree(root.n), far)
    if score < params.eta - 0.5 * params.eps - 1e-12:
        return None
    return point


# --- cover construction ------------------------------------------------------


def _build(o: StateOracle, params: CoverParams,
           prefix_cache: tuple[dict, float] | None = None):
    """Sweep the register, returning the cover of the full register.

    Purchases are looked up in a dict and a missing one is bought and stored
    by `_purchase`: its Hermitian part and that part's top eigenvalue, the
    ceiling of every root that reads it, which levels sharing the dict share
    too; every root's sweep runs afresh (`_polish`).  At degree(m) = m a
    prefix buys one purchase, keyed (m, m, tomo_eps); below, each root buys
    its own block in its frame, keyed (m, degree(m), tomo_eps, root.z).  A
    root that fails the separation bound to the members accepted before it
    buys nothing, one whose ceiling misses eta - eps/2 proposes nothing, and
    the others propose at most one member each.  The k-th distinct shared
    purchase at prefix m gets failure probability prefix_delta * 2^-k, so
    they sum below prefix_delta however many levels share the dict; a
    root's own block gets delta_call.
    `prefix_cache` is a caller's (dict, prefix_delta) pair; without one a
    fresh dict is used with prefix_delta = 2 * delta_call, so each prefix is
    bought once at the same failure share as every fidelity estimate.
    On the sampling backend a full-register purchase above the shot budget
    raises ResourceBudgetError before any purchase is made, even when the
    sweep would have ended at a shorter prefix.
    """
    n = o.n
    cap = params.member_cap
    capped = params.degree(n) < n
    # Per prefix, each of at most 6 * cap roots (6 branches of each member
    # before) makes a fidelity estimate and, under a cap, a purchase.
    per_level = 1 + (12 if capped else 6) * cap
    delta_call = params.delta / (n * per_level)
    if prefix_cache is None:
        prefix_cache = ({}, 2.0 * delta_call)
    bought, prefix_delta = prefix_cache
    thresh = params.eta - 0.5 * params.eps

    def purchase_delta(m: int) -> float:
        return prefix_delta * 2.0 ** -(1 + sum(prev[0] == m for prev in bought))

    d = params.degree(n)
    if capped or (n, d, params.tomo_eps) not in bought:
        dim = 1 + sum(math.comb(n, j) for j in range(d + 1))
        o._check_shots(tomography_copy_cost(dim, params.tomo_eps,
                                            delta_call if capped else purchase_delta(n)))
    members: list[ProductParams] = [ProductParams(())]
    for m in range(1, n + 1):
        d = params.degree(m)
        new: list[ProductParams] = []
        for root in (ProductParams(prev.z + (branch,))
                     for prev in members for branch in LOCAL_NET):
            if not _clears(root, new, params.b):
                continue
            key = (m, d, params.tomo_eps) + ((root.z,) if d < m else ())
            if key not in bought:
                block = subspace_tomography(o, m, d, params.tomo_eps,
                                            delta_call if d < m else purchase_delta(m),
                                            frame=recenter_unitaries(root) if d < m else None)
                bought[key] = _purchase(block)
            rho, ceiling = bought[key]
            # No unit vector beats the ceiling, so neither will any candidate.
            if ceiling < thresh - 1e-12:
                continue
            cand = _polish(rho, root, new, params)
            if cand is None:
                continue
            est = estimate_fidelity(o, m, site_stack([cand]), params.eps / 4.0, delta_call)[0]
            if est < params.eta - 0.75 * params.eps:
                continue
            if len(new) >= cap:
                raise PromiseViolationError(
                    f"prefix-{m} cover exceeded {cap} members; the "
                    "packing bound for this fidelity level failed")
            new.append(cand)
        members = new
        if not members:
            break
    return Cover(tuple(members), n, params)


def build_cover(o: StateOracle, params: CoverParams) -> Cover:
    """Build a cover of the fidelity-eta product states of the full register.

    Uses one tomography call per prefix length, or under a degree cap per
    root, plus one fidelity estimate per accepted-or-rejected candidate; the
    failure probabilities of all calls sum to at most params.delta.  Returns
    an empty cover when no product state reaches eta - eps at some prefix.
    """
    return _build(o, params)


def _upper(bought: dict) -> float:
    """The least bound ceiling + tomo_eps on opt among the shared purchases in `bought`.

    A shared purchase, keyed (m, m, tomo_eps), estimates rho_[m] to
    operator norm tomo_eps, so by Weyl lambda_max(rho_[m]) <= ceiling +
    tomo_eps, and no product state beats its prefix's marginal.  A root's
    own block (d < m) bounds only the states inside its cut, not opt.
    """
    return min(ceiling + key[2] for key, (_, ceiling) in bought.items() if key[0] == key[1])


def estimate_opt(o: StateOracle, eps: float, delta: float,
                 overrides: CoverOverrides = DESK_OVERRIDES):
    """Estimate the best product-state fidelity of the hidden state.

    Bisects the fidelity level: a nonempty cover at level eta certifies a
    product state of fidelity eta - eps and raises the floor, an empty cover
    lowers the ceiling.  Returns (estimate, witness) where the witness is
    the best measured member of the last nonempty cover, or (0.0, None)
    when every probed level came up empty.

    A nonempty level also tightens the bracket [lo, hi] with the bounds the
    call already bought, and the search stops once hi - lo <= 2 eps.  The
    ceiling: hi <= ceiling + tomo_eps of every shared purchase (`_upper`),
    since <pi|rho|pi> <= lambda_max(rho_[m]) for a product pi and the
    purchase is within tomo_eps of rho_[m].  The floor: lo >= lower =
    estimate - eps/4, the witness's estimate being within eps/4 of its
    fidelity.  Both hold on the event, of probability >= 1 - delta, that
    every purchase and estimate is within its accuracy, where also no empty
    level eta has opt >= eta; so lower <= F(witness) <= opt <= hi.  On that
    event the witness, a member of the last nonempty level eta, has F >=
    max(eta - eps, lower) >= lo - eps: when the search stops it meets opt -
    2 eps if the floor set lo, and opt - 3 eps, as the bisection alone
    gives, if eta did.  An empty level only lowers hi to its eta, so a
    search ends without a witness only where the bisection alone would.

    Each purchase is made once per call: the levels share one tomography
    per distinct (m, degree(m), tomo_eps), under a cap per root as well, and
    a level asking for a finer tomo_eps (eta < 4 eps) buys a new one.  Each
    level sweeps its roots afresh on the shared purchases.  Under
    PRODSTATE_LOG=INFO each level logs one line: eta, members, purchases
    held, and the bracket lower <= opt <= upper (hi) it holds.  Failure budget:
    the shared purchases take delta/2, the k-th distinct one at a prefix
    getting delta/(2n) * 2^-k.  The other delta/2 goes to the levels: each
    level's cover estimates, and under a cap its roots' own purchases,
    share delta/(4 * iterations), and so do its witness estimates.
    """
    _check_unit_interval(eps, "eps")
    _check_unit_interval(delta, "delta")
    iterations = math.ceil(math.log2(1.0 / eps)) + 2
    delta_iter = delta / (4 * iterations)
    prefix_delta = delta / (2 * o.n)
    bought: dict[tuple, tuple[np.ndarray, float]] = {}

    lo, hi = 0.0, 1.0
    eta = 0.5
    best_val = lower = 0.0
    best_witness: ProductParams | None = None
    for _ in range(iterations):
        if eta < eps:
            break
        level_eps = min(eps, eta / 4.0)
        params = CoverParams(eta, level_eps, delta_iter, overrides)
        cover = _build(o, params, (bought, prefix_delta))
        if cover.members:
            share = delta_iter / len(cover.members)
            ests = estimate_fidelity(o, o.n, site_stack(cover.members), eps / 4.0, share)
            top = int(np.argmax(ests))
            best_val = float(ests[top])
            best_witness = cover.members[top]
            lower = best_val - eps / 4.0
            lo, hi = max(eta, lower), min(hi, _upper(bought))
        else:
            hi = eta
        logger.info("cover level eta=%.6g: members=%d purchases=%d lower=%.6g upper=%.6g",
                    eta, len(cover.members), len(bought), lower, hi)
        if hi - lo <= 2.0 * eps:
            break
        eta = 0.5 * (lo + hi)
    if best_witness is None:
        return 0.0, None
    return best_val, best_witness
