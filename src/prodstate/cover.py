"""Covers of the high-fidelity product states of an unknown register.

Given measurement access to an n-qubit state and a fidelity level eta, a
*cover* is a short list of product parameter vectors such that (1) every
member has fidelity at least eta - eps with the state, (2) members are
pairwise at tangent distance at least 2/eta, and (3) every product state of
fidelity at least eta lies within tangent distance 3/eta of some member.

`build_cover` constructs one by sweeping the register left to right,
maintaining a cover of each prefix.  At a new site every previous member is
branched over a fixed six-state local net; each branch (a "root") is
recentered to the origin by single-site rotations, and new members far from
the already-accepted ones are located on a weight-truncated estimate of the
prefix marginal.  The recentered estimate is prepared once per root and
reused for each further member that root yields.  The top eigenvalue of
the prefix estimate bounds every candidate's score at every root of that
prefix, so it is computed once per estimate: recentering is a product
unitary, and a degree cap's weight cut is a compression, which cannot raise
the top eigenvalue of a PSD matrix.  Candidates are read off one grid net
per support (span(constraint members), then that span plus each site axis),
whose lattices are constants per dimension, and all are scored at once by
one rule: clear the separation bound to every accepted member, then keep
the best truncated overlap that reaches the threshold.  No product state's
overlap exceeds one site's overlap with that site's marginal, so a point
that this bound puts below the threshold is never scored.  The nets have a
fixed pitch and radius: the paper sizes them by a flatness scale
mu(eps, eta) whose nets need over 1e29 grid points on one qubit.  The paper
completes candidates with a spread-out remainder through constrained
polynomial optimization; no state at desk scale needs that step, so the
search runs on the grid nets only, and the reduction's solver runs
standalone as `polyopt.solve_constrained`.
`verify_cover` audits the three properties against the exact state, and
`estimate_opt` wraps the builder in a bisection over eta to estimate the
best product-state fidelity with a witness.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import PromiseViolationError, ResourceBudgetError
from .oracle import StateOracle, estimate_fidelity, subspace_tomography, tomography_copy_cost
from .polyopt import _coords, _lattice_axis, _orthonormal_columns, _pruned_ball, _span_bases
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
    transform_params,
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

# Row batch used when evaluating quadratic forms on large nets.
_OVERLAP_ELEMENTS = 2_000_000

# The candidate nets (recentered coordinates): grid spacing and radius.
_NET_PITCH = 1.5
_NET_RADIUS = 2.2


@dataclass(frozen=True)
class CoverOverrides:
    """Tuning knobs of the cover search.

    `degree_cap` bounds the excitation weight kept by each prefix's truncated
    tomography (None keeps every weight), `net_budget` bounds the grid points
    of the candidate nets (ResourceBudgetError above it), and `tomo_eps` sets
    the tomography accuracy (None: eps/8 of the level).
    """

    degree_cap: int | None = None
    net_budget: int = 20_000_000
    tomo_eps: float | None = None

    def __post_init__(self):
        if self.degree_cap is not None and self.degree_cap < 0:
            raise ValueError("degree_cap must be nonnegative")
        if self.net_budget < 1:
            raise ValueError("net_budget must be positive")
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


def _truncate_weight(mat: np.ndarray, m: int, d: int) -> np.ndarray:
    """Zero all matrix entries touching a basis string of weight above d."""
    keep = hamming_weights(m) <= d
    return np.where(np.outer(keep, keep), mat, 0.0)


def _batch_amplitudes(points: np.ndarray) -> np.ndarray:
    """Normalized product-state amplitude rows for bounded parameter rows."""
    scale = 1.0 / np.sqrt(1.0 + np.abs(points) ** 2)
    return product_vectors(np.stack([scale, scale * points], axis=-1))


def _batch_overlap(rho: np.ndarray, points: np.ndarray) -> np.ndarray:
    """<pi_z| rho |pi_z> for each parameter row, batched to bound memory."""
    count, m = points.shape
    out = np.empty(count)
    rows = max(256, _OVERLAP_ELEMENTS // (1 << max(m, 1)))
    for start in range(0, count, rows):
        amps = _batch_amplitudes(points[start:start + rows])
        out[start:start + rows] = np.real(((amps @ rho.T) * amps.conj()).sum(axis=1))
    return out


def _may_reach(rho: np.ndarray, points: np.ndarray, thresh: float) -> np.ndarray:
    """Mask of the parameter rows whose overlap with the PSD rho may reach thresh.

    No row's overlap exceeds that of its site-i factor with rho's site-i
    marginal, for any i; a row some site rules out by more than rounding
    cannot reach thresh, nor thresh - 1e-12.
    """
    m = points.shape[1]
    marg = np.array([np.einsum("ajbakb->jk", rho.reshape(2**i, 2, 2**(m - 1 - i), 2**i, 2, -1))
                     for i in range(m)]) - thresh * np.eye(2)
    x, y = points.real, points.imag
    slack = (marg[:, 0, 0].real + 2.0 * (marg[:, 0, 1].real * x - marg[:, 0, 1].imag * y)
             + marg[:, 1, 1].real * (x * x + y * y))
    return slack.min(axis=1, initial=math.inf) >= -1e-9


def _batched_tangent_sq(points: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Squared tangent distance of each parameter row to the vector a, summed site by site."""
    num2 = np.abs(points - a) ** 2
    den2 = np.abs(1.0 + np.conj(points) * a) ** 2
    safe = np.where(den2 > 0.0, den2, 1.0)
    term = np.where(den2 > 0.0, num2 / safe, np.inf)
    term = np.where((den2 == 0.0) & (num2 == 0.0), 0.0, term)
    total = np.zeros(points.shape[0])
    for i in range(points.shape[1]):
        total = total + term[:, i]
    return total


@functools.cache
def _net(q: int) -> np.ndarray:
    """The q-coordinate candidate net: `polyopt._pruned_ball`'s lattice, read-only, in lex order."""
    coords = _coords(_lattice_axis(q, _NET_RADIUS, _NET_PITCH),
                     _pruned_ball(q, _NET_RADIUS, _NET_PITCH)[0])
    coords.flags.writeable = False
    return coords


def _top_eigenvalue(mat: np.ndarray) -> float:
    """Largest eigenvalue of the Hermitian part of mat."""
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[-1])


def _prepare_root(truncation: np.ndarray, root: ProductParams, params: CoverParams):
    """(units, rho) of one branch: the search's constraint-free part.

    `units` recenter `root` to the origin, and `rho` is `truncation` in that
    frame, cut to excitation weight d = params.degree(m) and hermitised.
    """
    m = root.n
    if m == 0:
        raise ValueError("the search root must have at least one site")
    units = recenter_unitaries(root)
    rotated = apply_sites(units, apply_sites(units, truncation).conj().T).conj().T
    d = params.degree(m)
    rho = rotated if d >= m else _truncate_weight(rotated, m, d)
    return units, 0.5 * (rho + rho.conj().T)


def _extend(prepared, ceiling: float, members, params: CoverParams) -> ProductParams | None:
    """Search one branch, prepared by `_prepare_root`, for a new admissible cover member.

    The candidates are the `_net` points, in an orthonormal basis, of
    span(members) and then of span(members, axis i) for each site i, all
    within _NET_RADIUS of the root.  All are scored at once, except those
    `_may_reach` rules out; a scan over the supports in that order keeps the
    first-found best, stops once it reaches `ceiling` (a bound on every
    truncated overlap), and raises ResourceBudgetError at the first support
    whose nets so far exceed `net_budget` raw points.  Returns the best
    candidate found (original frame) whose truncated overlap reaches
    eta - eps/2 and whose exact tangent distance to each of `members`
    (original frame) is at least params.b, or None.
    """
    units, rho = prepared
    m = len(units)
    thresh = params.eta - 0.5 * params.eps
    cons_arrays = [transform_params(units, member).asarray() for member in members]

    base = (np.stack(cons_arrays, axis=1) if cons_arrays
            else np.zeros((m, 0), dtype=complex))
    axes = np.concatenate([np.broadcast_to(base, (m, m, len(cons_arrays))),
                           np.eye(m, dtype=complex)[:, :, None]], axis=2)
    bases = [_orthonormal_columns(base)] + _span_bases(axes)
    qs = [basis.shape[1] for basis in bases]
    # Raw lattice points of the nets so far, counted before any net is built.
    raw = {q: len(_lattice_axis(q, _NET_RADIUS, _NET_PITCH)) ** (2 * q) for q in set(qs)}
    used = list(accumulate(raw[q] for q in qs))
    reach = sum(total <= params.overrides.net_budget for total in used)
    segments = [_net(q) @ basis.T for q, basis in zip(qs[:reach], bases[:reach])]
    points = np.concatenate([np.empty((0, m), dtype=complex), *segments])
    vals = np.full(len(points), -math.inf)
    keep = _may_reach(rho, points, thresh)
    for a in cons_arrays:
        keep[keep] = _batched_tangent_sq(points[keep], a) >= (params.b - 1e-12) ** 2
    vals[keep] = _batch_overlap(rho, points[keep])

    best_val, best_z, stop = -math.inf, None, 0
    for support in range(m + 1):
        if support == reach:
            raise ResourceBudgetError(
                f"candidate nets need {used[support]} grid points, above the "
                f"{params.overrides.net_budget} budget")
        start, stop = stop, stop + len(segments[support])
        top = start + int(np.argmax(vals[start:stop]))
        if vals[top] >= thresh - 1e-12 and vals[top] > best_val:
            best_val, best_z = float(vals[top]), points[top]
        if best_val >= ceiling - 1e-9:
            break

    if best_z is None:
        return None
    return transform_params(units, ProductParams(tuple(best_z)), inverse=True)


# --- cover construction ------------------------------------------------------


def _build(o: StateOracle, params: CoverParams,
           prefix_cache: tuple[dict, float] | None = None):
    """Sweep the register, returning the cover of the full register.

    Truncations are looked up in a dict keyed by (m, degree, tomo_eps), and
    a missing one is bought and stored beside its top eigenvalue, the
    ceiling of every root at that prefix: recentering is a product unitary
    and the weight cut a compression, so no root's matrix has a larger top
    eigenvalue (the truncation is PSD).  A prefix whose ceiling misses
    eta - eps/2 ends the sweep with an empty cover.
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
    per_level = 1 + 6 * cap * (cap + 2)
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
            est = subspace_tomography(o, *key, purchase_delta(m))
            bought[key] = (est, _top_eigenvalue(est))
        truncation, ceiling = bought[key]
        # No unit vector beats the ceiling, so neither will any candidate.
        if ceiling < thresh - 1e-12:
            members = []
        new: list[ProductParams] = []
        for root in (ProductParams(prev.z + (branch,))
                     for prev in members for branch in LOCAL_NET):
            prepared = _prepare_root(truncation, root, params)
            while True:
                cand = _extend(prepared, ceiling, new, params)
                if cand is None:
                    break
                est = estimate_fidelity(o, m, cand, params.eps / 4.0, delta_call)
                far = all(tangent_distance(cand, mem) >= params.b for mem in new)
                if est < params.eta - 0.75 * params.eps or not far:
                    break
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
