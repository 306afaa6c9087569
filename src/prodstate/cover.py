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
reaches from the root (`_polish`).  The sweep scores product states on a
weight-truncated estimate of the prefix marginal, in the root's frame,
where the root is |0...0>.  The score is quadratic in each site, so each
step is an exact one-site maximisation, the top eigenvector of a 2x2
matrix, as in single-site DMRG sweeps (Schollwock, arXiv:1008.3477, sec. 6).
A step is taken only when it raises the score and keeps the point at the
separation bound from every member already accepted at that prefix.  No
root rotates the estimate: a product unitary maps product states to
product states, so a root-frame row is mapped back through the root's
adjoint site rotations and scored in the frame the estimate was measured
in.  Under a degree cap a row is cut to low weight in the root's frame
before it is mapped back.  Each estimate is hermitised once, when it is
bought, and stored beside its top eigenvalue, which bounds every root's
score at that prefix: recentering is a product unitary, and the weight
cut is a compression, which cannot raise the top eigenvalue of a PSD
matrix.  A prefix whose bound misses the threshold ends the sweep.  The
paper proposes members from nets sized by a flatness scale mu(eps, eta),
which need over 1e29 grid points on one qubit, and completes them with a
spread-out remainder through constrained polynomial optimization; at desk
scale the sweep replaces both, and the reduction's solver runs standalone
as `polyopt.solve_constrained`.
`verify_cover` audits the three properties against the exact state, and
`estimate_opt` wraps the builder in a bisection over eta to estimate the
best product-state fidelity with a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PromiseViolationError
from .oracle import StateOracle, estimate_fidelity, subspace_tomography, tomography_copy_cost
from .states import (
    ProductParams,
    QuantumState,
    Z_MAX,
    apply_sites,
    fidelity,
    hamming_weights,
    haar_product_params,
    product_vectors,
    recenter_unitaries,
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
    "verify_cover",
    "estimate_opt",
]

# Six single-site states whose tangent-distance balls of radius 1 cover the
# Bloch sphere: |0>, |1>, and the four equator states (|0> ± |1>)/sqrt(2),
# (|0> ± i|1>)/sqrt(2).  Branching every member over this net keeps some
# root within per-site tangent distance 1 of any product state.
LOCAL_NET = (0.0 + 0.0j, complex(Z_MAX), 1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j)


@dataclass(frozen=True)
class CoverOverrides:
    """Tuning knobs of the cover search.

    `degree_cap` bounds the excitation weight kept by each prefix's truncated
    tomography (None keeps every weight), and `tomo_eps` sets the
    tomography accuracy (None: eps/8 of the level).
    """

    degree_cap: int | None = None
    tomo_eps: float | None = None

    def __post_init__(self):
        if self.degree_cap is not None and self.degree_cap < 0:
            raise ValueError("degree_cap must be nonnegative")
        if self.tomo_eps is not None and not 0.0 < self.tomo_eps < 1.0:
            raise ValueError("tomo_eps must lie in (0, 1)")


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
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not 0.0 < self.eps < self.eta / 3.0:
            raise ValueError("eps must lie in (0, eta/3)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")

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
        """Excitation-weight kept by the prefix-m truncated tomography."""
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


def _purchase_rows(sites: np.ndarray, adjoints: np.ndarray, d: int) -> np.ndarray:
    """Rows U^dagger P_d |s> of root-frame site vectors s, in the purchase frame.

    `sites` stacks (k, m, 2) root-frame site vectors, `adjoints` are the
    root's (m, 2, 2) stacked U_i^dagger and P_d keeps excitation weight
    <= d.  Uncut, a product row maps back site by site; a cut row is no
    longer a product and maps back through `apply_sites`.
    """
    m = sites.shape[1]
    if d >= m:
        return product_vectors(np.matmul(adjoints, sites[..., None])[..., 0])
    amps = product_vectors(sites)
    amps[:, hamming_weights(m) > d] = 0.0
    return apply_sites(adjoints, amps.T).T


def _purchase(est: np.ndarray) -> tuple[np.ndarray, float]:
    """(rho, ceiling) of a bought truncation: est's Hermitian part and its top eigenvalue."""
    rho = 0.5 * (est + est.conj().T)
    return rho, float(np.linalg.eigvalsh(rho)[-1])


def _polish(rho: np.ndarray, root: ProductParams, members,
            params: CoverParams) -> ProductParams | None:
    """The new cover member one constrained site sweep finds from `root`, or None.

    The sweep runs in the root's frame, where the root is |0...0>, on site
    vectors s scored by <s| P_d U rho U^dagger P_d |s> on the purchase rho,
    U the root's recentring and d = params.degree(m).  The score is
    quadratic in each site, so a site's best vector is the top eigenvector
    of the 2x2 matrix of the rows with e_0 or e_1 there.  It is taken when
    it raises the score and keeps the point's tangent distance to each of
    `members` (original frame) at least params.b; a root closer than that
    yields nothing.  Sweeps stop on a gain below 1e-10, or after 50.
    Returns the point (original frame) if its score reaches eta - eps/2.
    """
    def far(point):
        return all(tangent_distance(point, member) >= params.b for member in members)

    if not far(root):
        return None
    m = root.n
    d = params.degree(m)
    adjoints = np.array(recenter_unitaries(root)).conj().transpose(0, 2, 1)

    def original(sites):
        return vector_to_params(np.matmul(adjoints, sites[..., None])[..., 0])

    sites = np.zeros((m, 2), dtype=complex)
    sites[:, 0] = 1.0
    row = _purchase_rows(sites[None], adjoints, d)[0]
    score = float(np.real(row.conj() @ rho @ row))
    for _ in range(50):
        start = score
        for i in range(m):
            pair = np.repeat(sites[None], 2, axis=0)
            pair[:, i] = np.eye(2)
            rows = _purchase_rows(pair, adjoints, d)
            vals, vecs = np.linalg.eigh(rows.conj() @ rho @ rows.T)
            if vals[-1] <= score:
                continue
            trial = sites.copy()
            trial[i] = vecs[:, -1]
            if far(original(trial)):
                sites, score = trial, float(vals[-1])
        if score - start < 1e-10:
            break
    if score < params.eta - 0.5 * params.eps - 1e-12:
        return None
    return original(sites)


# --- cover construction ------------------------------------------------------


def _build(o: StateOracle, params: CoverParams,
           prefix_cache: tuple[dict, float] | None = None):
    """Sweep the register, returning the cover of the full register.

    Truncations are looked up in a dict keyed by (m, degree, tomo_eps), and
    a missing one is bought and stored by `_purchase`: its Hermitian part
    and that part's top eigenvalue, the ceiling of every root at that
    prefix: recentering is a product unitary and the weight cut a
    compression, so no root's truncated overlap exceeds it (the truncation
    is PSD).  A prefix whose ceiling misses eta - eps/2 ends the sweep with
    an empty cover.  Each root of the prefix proposes at most one member,
    polished on that one stored matrix, in the frame it was measured in.
    The k-th distinct purchase at prefix m gets failure probability
    prefix_delta * 2^-k, so one prefix's purchases sum below prefix_delta
    however many levels share the dict.
    `prefix_cache` is a caller's (dict, prefix_delta) pair; without one a
    fresh dict is used with prefix_delta = 2 * delta_call, so each prefix is
    bought once at the same failure share as every fidelity estimate.
    On the sampling backend a full-register purchase above the shot budget
    raises ResourceBudgetError before any purchase is made, even when the
    sweep would have ended at a shorter prefix.
    """
    n = o.n
    cap = params.member_cap
    # Per prefix: one purchase at delta_call, and one fidelity estimate for
    # each of the 6 roots of each of at most `cap` members of the prefix before.
    per_level = 1 + 6 * cap
    delta_call = params.delta / (n * per_level)
    if prefix_cache is None:
        prefix_cache = ({}, 2.0 * delta_call)
    bought, prefix_delta = prefix_cache
    thresh = params.eta - 0.5 * params.eps

    def purchase_delta(m: int) -> float:
        return prefix_delta * 2.0 ** -(1 + sum(prev[0] == m for prev in bought))

    d = params.degree(n)
    if (n, d, params.tomo_eps) not in bought:
        dim = 1 + sum(math.comb(n, j) for j in range(d + 1))
        o._check_shots(tomography_copy_cost(dim, params.tomo_eps, purchase_delta(n)))
    members: list[ProductParams] = [ProductParams(())]
    for m in range(1, n + 1):
        key = (m, params.degree(m), params.tomo_eps)
        if key not in bought:
            bought[key] = _purchase(subspace_tomography(o, *key, purchase_delta(m)))
        rho, ceiling = bought[key]
        # No unit vector beats the ceiling, so neither will any candidate.
        if ceiling < thresh - 1e-12:
            members = []
        new: list[ProductParams] = []
        for root in (ProductParams(prev.z + (branch,))
                     for prev in members for branch in LOCAL_NET):
            cand = _polish(rho, root, new, params)
            if cand is None:
                continue
            est = estimate_fidelity(o, m, cand, params.eps / 4.0, delta_call)
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

    Uses one truncated tomography call per prefix length plus one fidelity
    estimate per accepted-or-rejected candidate; the failure probabilities
    of all calls sum to at most params.delta.  Returns an empty cover when
    no product state reaches fidelity eta - eps at some prefix.
    """
    return _build(o, params)


def verify_cover(rho: QuantumState, cover: Cover, trials: int,
                 rng_seed: int = 0) -> dict:
    """Audit the three cover properties against the exact state.

    Checks that every member reaches fidelity eta - eps, that members are
    pairwise at tangent distance 2/eta, and that `trials` random product
    states filtered to fidelity >= eta each lie within tangent distance
    3/eta of some member.  Returns a report dict with the violations found.
    """
    p = cover.params
    fids = [fidelity(rho, member) for member in cover.members]
    low_fidelity = [(i, f) for i, f in enumerate(fids)
                    if f < p.eta - p.eps - 1e-9]
    close_pairs = []
    for i in range(len(cover.members)):
        for j in range(i + 1, len(cover.members)):
            dist = tangent_distance(cover.members[i], cover.members[j])
            if dist < p.b - 1e-9:
                close_pairs.append((i, j, dist))

    rng = np.random.default_rng(rng_seed)
    tested = 0
    uncovered = []
    for _ in range(trials):
        witness = haar_product_params(rng, cover.m)
        if fidelity(rho, witness) < p.eta:
            continue
        tested += 1
        nearest = min((tangent_distance(witness, member)
                       for member in cover.members), default=math.inf)
        if nearest > p.b_far + 1e-9:
            uncovered.append((witness, nearest))
    return {
        "eta": p.eta,
        "eps": p.eps,
        "members": len(cover.members),
        "member_fidelities": fids,
        "low_fidelity": low_fidelity,
        "close_pairs": close_pairs,
        "witnesses_tested": tested,
        "uncovered": uncovered,
        "ok": not (low_fidelity or close_pairs or uncovered),
    }


def estimate_opt(o: StateOracle, eps: float, delta: float,
                 overrides: CoverOverrides = DESK_OVERRIDES):
    """Estimate the best product-state fidelity of the hidden state.

    Bisects the fidelity level: a nonempty cover at level eta certifies a
    product state of fidelity eta - eps and raises the floor, an empty cover
    lowers the ceiling.  Returns (estimate, witness) where the witness is
    the best measured member of the last nonempty cover, or (0.0, None)
    when every probed level came up empty.

    Each prefix is measured once per call: the levels share one truncated
    tomography per distinct (m, degree(m), tomo_eps), and a level asking
    for a finer tomo_eps (eta < 4 eps) buys a new one.  Failure budget:
    the tomography purchases share delta/2, the k-th distinct purchase at a
    prefix getting delta/(2n) * 2^-k.  The other delta/2 goes to the
    levels: each level's cover fidelity estimates share
    delta/(4 * iterations), and so do its witness estimates.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    iterations = math.ceil(math.log2(1.0 / eps)) + 2
    delta_iter = delta / (4 * iterations)
    prefix_delta = delta / (2 * o.n)
    bought: dict[tuple[int, int, float], tuple[np.ndarray, float]] = {}

    lo, hi = 0.0, 1.0
    eta = 0.5
    best_val = 0.0
    best_witness: ProductParams | None = None
    for _ in range(iterations):
        if eta < eps:
            break
        level_eps = min(eps, eta / 4.0)
        params = CoverParams(eta, level_eps, delta_iter, overrides)
        cover = _build(o, params, (bought, prefix_delta))
        if cover.members:
            lo = eta
            share = delta_iter / len(cover.members)
            ests = [estimate_fidelity(o, o.n, member, eps / 4.0, share)
                    for member in cover.members]
            top = int(np.argmax(ests))
            best_val = float(ests[top])
            best_witness = cover.members[top]
        else:
            hi = eta
        if hi - lo <= 2.0 * eps:
            break
        eta = 0.5 * (lo + hi)
    if best_witness is None:
        return 0.0, None
    return best_val, best_witness
