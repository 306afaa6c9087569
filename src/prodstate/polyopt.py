"""Constrained optimization of low-degree polynomials over the complex sphere.

The objective is f(x) = c + sum_k <x^(x)k| M_k |x^(x)k> for Hermitian-ordered
coefficient tensors M_k, maximized in absolute value over a domain cut out by
a norm shell, a flatness cap on individual coordinates, and an affine
subspace constraint.  The solver exploits two structural facts: the objective
only notices the projection of x onto a low-dimensional "effective" subspace
read off the tensors' singular vectors, and the remaining mass of any
feasible flat vector can be rerouted onto a small coordinate support.  That
reduces the search to deterministic grids over small subspaces, which is
exact enough at desk scale and refuses (with a resource error) when the
requested resolution would need more than a configured number of grid points.
A grid is the `_pruned_ball` lattice in the q coordinates c of an
orthonormal span basis B, built once per q.  The solver stays in those
coordinates, where `PolySystem.restricted(B)` is f(B c) as a polynomial on
C^q, and scores every support of one size together on real features: per
degree k, |m_a|^2 and the real and imaginary parts of conj(m_a) m_b (a < b)
over the C(q+k-1, k) distinct monomials m_a of c, 13 per point at q = 2 and
degree 2.  Each system folds its tensors once into matching complex
coefficients, so a block of lattice points costs one real (2s, F) @ (F, p)
product for s systems; `evaluate_poly_batch` runs the same kernel.
Restricting to an isometry cannot raise a tensor's Frobenius norm, so
|f(B c)| <= |constant| + sum_k |M_k|_F |c|^(2k) on every span, a radial
bound that the solver uses as a bound-and-prune step in the sense of branch
and bound (Land and Doig, Econometrica 28(3), 1960): the lattice of a q is
built as an annulus that leaves out the points whose bound cannot beat the
best value of the smaller supports.
"""

from __future__ import annotations

import functools
import logging
import math
from itertools import accumulate, combinations, product

import numpy as np

from .errors import ResourceBudgetError

logger = logging.getLogger(__name__)

DEFAULT_NET_BUDGET = 5_000_000
# Real monomial features (F per lattice point) one scoring block may hold.
_SCORE_ELEMENTS = 50_000
# Values this close count as equal: the earlier support, and within a
# support the earlier lattice point, keeps the lead whatever the rounding.
_TIE = 1e-12


class PolySystem:
    """Coefficient data of a degree-d sesquilinear polynomial on C^n.

    `tensors[k-1]` holds the degree-k coefficients as an array of shape
    (n,) * 2k; the first k indices pair with the conjugated copies of x and
    the last k with the plain copies, so the term value is
    <x^(x)k| reshape(T, (n^k, n^k)) |x^(x)k>.  The total Frobenius mass
    |constant| + sum_k |T_k|_F must stay at most 1 (small slack), the scale
    on which the solver's accuracy guarantees are quoted.  n = 0 is allowed:
    the polynomial is then the constant.
    """

    def __init__(self, n: int, constant: complex = 0.0, tensors: tuple = ()):
        if n < 0:
            raise ValueError("ambient dimension must be >= 0")
        self.n = int(n)
        self.constant = complex(constant)
        self.tensors = tuple(np.asarray(t, dtype=complex) for t in tensors)
        total = abs(self.constant)
        for k, t in enumerate(self.tensors, start=1):
            if t.shape != (n,) * (2 * k):
                raise ValueError(f"degree-{k} tensor must have shape {(n,) * (2 * k)}")
            total += float(np.linalg.norm(t))
        if total > 1.0 + 1e-9:
            raise ValueError("total coefficient mass exceeds 1")
        # The coefficients of `_features`: per degree, M_k summed over the
        # orderings of each monomial pair (M'), then M'_aa, M'_ab + M'_ba and
        # i (M'_ab - M'_ba) for a < b.
        coef = [np.zeros(0, dtype=complex)]
        for t, (_, last, a, b, order) in zip(self.tensors, _monomials(n, self.degree)):
            fold = np.zeros((len(order), len(last)))
            fold[np.arange(len(order)), order] = 1.0
            folded = fold.T @ t.reshape(len(order), len(order)) @ fold
            coef += [folded.diagonal(), folded[a, b] + folded[b, a],
                     1j * (folded[a, b] - folded[b, a])]
        self._coef = np.concatenate(coef)

    @property
    def degree(self) -> int:
        return len(self.tensors)

    def restricted(self, basis: np.ndarray) -> "PolySystem":
        """The polynomial c -> f(basis @ c) on C^q, for an n x q isometry `basis`.

        The degree-k tensor becomes (B^(x)k)^dagger M_k B^(x)k, reshaped to
        (q,) * 2k.  An isometry does not raise the Frobenius mass, so the
        result passes the same mass check; at q = 0 only the constant is left.
        """
        basis = np.asarray(basis, dtype=complex)
        tensors = []
        for k, t in enumerate(self.tensors, start=1):
            # Contracting the leading axis appends the new one, so 2k passes
            # replace every axis in place: conjugated side first, then plain.
            for axis in range(2 * k):
                t = np.tensordot(t, basis.conj() if axis < k else basis, axes=(0, 0))
            tensors.append(t)
        return PolySystem(basis.shape[1], self.constant, tuple(tensors))


class OptDomain:
    """Search domain: norm shell, subspace pin, and per-coordinate flatness.

    Membership at slack factor c (the domain commonly written with gamma
    doubled) means: | |x| - nu | <= c*gamma, |A x - v| <= c*gamma, and
    |x_i| <= mu + c*gamma for every coordinate.  A has operator norm at most
    1 and may have zero rows (no subspace pin); gamma never exceeds nu.
    """

    def __init__(self, a: np.ndarray, v: np.ndarray, nu: float, mu: float, gamma: float):
        self.a = np.asarray(a, dtype=complex)
        if self.a.ndim != 2 or self.a.shape[1] < 1:
            raise ValueError("A must be a matrix with >= 1 column (possibly zero rows)")
        self.v = np.asarray(v, dtype=complex).reshape(self.a.shape[0])
        if self.a.shape[0] and np.linalg.norm(self.a, 2) > 1.0 + 1e-9:
            raise ValueError("A must have operator norm at most 1")
        if not (0.0 < nu <= 1.0):
            raise ValueError("nu must lie in (0, 1]")
        if mu <= 0.0:
            raise ValueError("mu must be positive")
        if not (0.0 < gamma <= nu):
            raise ValueError("gamma must lie in (0, nu]")
        self.nu = float(nu)
        self.mu = float(mu)
        self.gamma = float(gamma)

    @property
    def n(self) -> int:
        return self.a.shape[1]

    def contains(self, x: np.ndarray, factor: float = 1.0) -> bool:
        return bool(self.membership_mask(x[None, :], factor)[0])

    def membership_mask(self, points: np.ndarray, factor: float = 1.0) -> np.ndarray:
        """Rows of `points` inside the domain at slack factor `factor`."""
        g = factor * self.gamma
        mask = np.abs(np.linalg.norm(points, axis=1) - self.nu) <= g
        mask &= np.abs(points).max(axis=1, initial=0.0) <= self.mu + g
        if self.a.shape[0]:
            mask &= np.linalg.norm(points @ self.a.T - self.v, axis=1) <= g
        return mask


def evaluate_poly(sys: PolySystem, x: np.ndarray) -> complex:
    """f(x) = constant + sum_k <x^(x)k| M_k |x^(x)k>: one system at one point."""
    x = np.asarray(x, dtype=complex).reshape(sys.n)
    return complex(evaluate_poly_batch(sys, x[None, :])[0])


def evaluate_poly_batch(systems, points: np.ndarray) -> np.ndarray:
    """Values at each row of a (p, n) array of one PolySystem (shape (p,)) or
    of a sequence of s systems of one n and degree (shape (p, s)), by one
    `_feature_values` product on the points' real coordinate rows."""
    group = [systems] if isinstance(systems, PolySystem) else list(systems)
    vals = _feature_values(group, np.ascontiguousarray(points.real.T),
                           np.ascontiguousarray(points.imag.T))
    s = len(group)
    vals = (vals[:s] + 1j * vals[s:]).T
    return vals[:, 0] if isinstance(systems, PolySystem) else vals


@functools.lru_cache(maxsize=None)
def _monomials(q: int, degree: int) -> tuple:
    """Per degree k = 1..degree, the bookkeeping of the distinct degree-k
    monomials of C^q, the sorted index tuples in lex order: each one's parent
    among the degree-(k-1) tuples and its last axis, the (a, b) index pairs
    a < b, and the monomial of every ordered index tuple (row-major)."""
    plan, tuples = [], [()]
    for k in range(1, degree + 1):
        grown = [(i, t + (j,)) for i, t in enumerate(tuples) for j in range(t[-1] if t else 0, q)]
        tuples = [t for _, t in grown]
        where = {t: i for i, t in enumerate(tuples)}
        parent = np.array([i for i, _ in grown], dtype=np.intp)
        last = np.array([t[-1] for t in tuples], dtype=np.intp)
        a, b = np.triu_indices(len(tuples), 1)
        order = np.array([where[tuple(sorted(t))] for t in product(range(q), repeat=k)],
                         dtype=np.intp)
        plan.append((parent, last, a, b, order))
    return tuple(plan)


def _features(re: np.ndarray, im: np.ndarray, degree: int) -> np.ndarray:
    """The (F, p) real monomial features of p points given as (q, p) rows of
    real and imaginary parts: per degree, |m_a|^2, then Re and Im of
    conj(m_a) m_b for a < b, over the distinct monomials m_a."""
    blocks = [np.zeros((0, re.shape[1]))]
    for k, (parent, last, a, b, _) in enumerate(_monomials(re.shape[0], degree)):
        if k:
            pr, pi, xr, xi = mr[parent], mi[parent], re[last], im[last]
            mr, mi = pr * xr - pi * xi, pr * xi + pi * xr
        else:
            mr, mi = re, im
        ra, ia, rb, ib = mr[a], mi[a], mr[b], mi[b]
        blocks += [mr * mr + mi * mi, ra * rb + ia * ib, ra * ib - ia * rb]
    return np.concatenate(blocks)


def _feature_values(systems, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Real parts (first s rows) and imaginary parts (last s rows) of the s
    systems' values at the points of `_features`: one (2s, F) @ (F, p) product."""
    coef = np.stack([s._coef for s in systems])
    const = np.array([s.constant for s in systems])
    weights = np.concatenate([coef.real, coef.imag])
    shift = np.concatenate([const.real, const.imag])[:, None]
    return weights @ _features(re, im, systems[0].degree) + shift


def _orthonormal_columns(stacked: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span (n x q, q possibly 0)."""
    if stacked.size == 0:
        return np.zeros((stacked.shape[0], 0), dtype=complex)
    return _span_bases(stacked[None], tol)[0]


def _span_bases(stack: np.ndarray, tol: float = 1e-10) -> list:
    """`_orthonormal_columns` of every nonempty matrix of a stack, from one stacked SVD."""
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    return [ui[:, si > tol] for ui, si in zip(u, s)]


def effective_subspace(sys: PolySystem, eps: float) -> np.ndarray:
    """Orthonormal columns spanning every direction the objective can notice.

    Collects, for every coefficient tensor and every mode, the singular
    directions with singular value >= eps / (d+1)^2, together with their
    conjugates.  Projecting the input onto the result changes the objective
    by at most eps on the unit ball, and the dimension is at most
    8 (d+1)^6 / eps^2.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    threshold = eps / (sys.degree + 1) ** 2
    blocks = []
    for k, t in enumerate(sys.tensors, start=1):
        for mode in range(2 * k):
            flat = np.moveaxis(t, mode, 0).reshape(sys.n, -1)
            u, s, _ = np.linalg.svd(flat, full_matrices=False)
            keep = u[:, s >= threshold]
            if keep.shape[1]:
                blocks.append(keep)
                blocks.append(keep.conj())
    if not blocks:
        return np.zeros((sys.n, 0), dtype=complex)
    return _orthonormal_columns(np.concatenate(blocks, axis=1))


def _lattice_axis(q: int, radius: float, spacing: float) -> np.ndarray:
    """Axis of the q-coordinate net: pitch spacing / sqrt(2 max(q, 1)), out to radius."""
    pitch = spacing / math.sqrt(2.0 * max(q, 1))
    steps = math.floor(radius / pitch)
    return np.arange(-steps, steps + 1) * pitch


def _pruned_ball(q: int, radius: float, spacing: float, keep_sums=None):
    """The `_lattice_axis` lattice over 2q real coordinates, cut to the radius
    ball and, when `keep_sums` is given, to the points it keeps.

    Returns (indices, sq): the axis indices (real parts, then imaginary) of
    every lattice point whose squares, summed left to right, stay at most
    radius^2 and, at the last axis, pass `keep_sums` (a boolean mask of an
    array of sums), in lex order, and those sums.  Prefixes grow one axis at
    a time and a prefix already past radius^2 is dropped (adding a square
    never lowers a rounded sum).  Memory follows the kept points, never the
    cube.
    """
    squares = _lattice_axis(q, radius, spacing) ** 2
    indices = np.zeros((1, 0), dtype=np.min_scalar_type(len(squares) - 1))
    sq = np.zeros(1)
    for axis in range(2 * q):
        grown = sq[:, None] + squares
        keep = grown <= radius**2
        if keep_sums is not None and axis == 2 * q - 1:
            keep &= keep_sums(grown)
        prefix, step = np.nonzero(keep)
        indices = np.concatenate([indices[prefix], step[:, None].astype(indices.dtype)], axis=1)
        sq = grown[prefix, step]
    return indices, sq


def _coords(axis: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Complex q-coordinates of lattice index rows (real parts, then imaginary)."""
    q = indices.shape[1] // 2
    return axis[indices[:, :q]] + 1j * axis[indices[:, q:]]


def _certainly_empty(dom: OptDomain, factor: float) -> bool:
    """True when the flatness cap alone keeps every candidate below the norm shell."""
    g = factor * dom.gamma
    return (dom.mu + g) * math.sqrt(dom.n) < dom.nu - g


def _support_values(systems, bases, axis, indices, norms, dom: OptDomain) -> np.ndarray:
    """|f| restricted to each of `bases` (as `systems`) at the lattice points
    that passed the norm shell, one row per basis, -inf where the point
    misses that span's factor-2 pin |(A B) c - v| or flatness cap.  The cap
    needs B c, so it is tested only when some |c| = |B c| >= |x_i| can reach
    it (the 1e-12 margin covers rounding)."""
    g = 2.0 * dom.gamma
    cap = dom.mu + g
    flat = norms.max(initial=0.0) > cap * (1.0 - 1e-12)
    pins = [dom.a @ basis for basis in bases] if dom.a.shape[0] else []
    q, s = indices.shape[1] // 2, len(systems)
    rows = max(1, _SCORE_ELEMENTS // max(len(systems[0]._coef), 1))
    out = np.empty((s, len(indices)))
    for lo in range(0, len(indices), rows):
        block = indices[lo:lo + rows]
        parts = axis[np.ascontiguousarray(block.T)]
        vals = _feature_values(systems, parts[:q], parts[q:])
        scores = np.hypot(vals[:s], vals[s:], out=out[:, lo:lo + rows])
        if flat or pins:
            coords = _coords(axis, block)
            for j, basis in enumerate(bases):
                if flat:
                    scores[j, np.abs(coords @ basis.T).max(axis=1, initial=0.0) > cap] = -math.inf
                if pins:
                    scores[j, np.linalg.norm(coords @ pins[j].T - dom.v, axis=1) > g] = -math.inf
    return out


def solve_constrained(sys: PolySystem, dom: OptDomain, eps: float,
                      net_budget: int = DEFAULT_NET_BUDGET):
    """Maximize |f| over the domain by sparse-support guessing plus grid nets.

    Returns a point x in the factor-2 domain whose |f(x)| is within eps of
    the best value over the factor-1 domain, or None when the factor-2 domain
    contains no grid point (in particular when it is empty).  Search space:
    for each coordinate support S of size at most min(n, 1/mu^2 + 1), the
    `_pruned_ball` lattice of pitch gamma / sqrt(2 q) and radius nu + 2 gamma
    in the q coordinates c of an orthonormal basis B of span(effective
    subspace, rows of A, axes of S).  The norm shell is tested once per q on
    |c| = |B c|, the rest per support by `_support_values`.  Supports are
    scanned in size-then-lex order: one takes the lead only when its best
    value beats the incumbent's by more than _TIE, with its first point
    within _TIE of that best, and the scan stops once the value is provably
    within eps of the global ceiling.  A point whose radial bound
    |constant| + sum_k |M_k|_F |c|^(2k) stays below the incumbent less _TIE
    can do neither, so each q's lattice is built, at the first size that
    needs it, without the points whose bound stays below the incumbent held
    before that size, less _TIE; later sizes, whose incumbent is no lower,
    reuse it.  The answer is the one the full balls give, bit for bit.
    ResourceBudgetError comes at the first support whose nets so far exceed
    `net_budget` raw grid points, counted on the full lattice before its
    pruned shell is built (unless an earlier support shares its q).  Under
    PRODSTATE_LOG=INFO each support size logs one line: its q values, the
    shell points built and scored, and the incumbent it pruned against.
    Returns B c.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if dom.n != sys.n:
        raise ValueError("domain and polynomial dimensions differ")
    if _certainly_empty(dom, 2.0):
        return None
    wide = _orthonormal_columns(
        np.concatenate([effective_subspace(sys, eps), dom.a.conj().T], axis=1))
    max_support = min(sys.n, int(1.0 / dom.mu**2) + 1)
    radius = dom.nu + 2.0 * dom.gamma
    masses = [float(np.linalg.norm(t)) for t in sys.tensors]
    ceiling = abs(sys.constant) + sum(
        mass * (1.0 + 2.0 * dom.gamma) ** (2 * k) for k, mass in enumerate(masses, start=1))

    def bound(sq: np.ndarray) -> np.ndarray:
        """|f(B c)| <= bound(|c|^2) for every isometry B, which cannot raise a |M_k|_F."""
        return abs(sys.constant) + sum(mass * sq**k for k, mass in enumerate(masses, start=1))

    eye = np.eye(sys.n, dtype=complex)
    shells: dict[int, tuple] = {}
    used, best_val, best_x = 0, -1.0, None
    for size in range(max_support + 1):
        supports = list(combinations(range(sys.n), size))
        spans = np.stack([np.concatenate([wide, eye[:, list(s)]], axis=1) for s in supports])
        bases = _span_bases(spans) if spans.shape[2] else [_orthonormal_columns(spans[0])]
        qs = [basis.shape[1] for basis in bases]
        # Raw lattice points of the nets so far, counted before any net is built.
        counts = list(accumulate((len(_lattice_axis(q, radius, dom.gamma)) ** (2 * q)
                                  for q in qs), initial=used))[1:]
        reach = sum(total <= net_budget for total in counts)
        incumbent, built, values = best_val, 0, {}
        for q in dict.fromkeys(qs[:reach]):
            if q not in shells:
                # Points whose bound stays below incumbent - _TIE can neither
                # lead nor tie a leader, and the incumbent only rises, so
                # later sizes reuse the pruned shell.
                indices, sq = _pruned_ball(
                    q, radius, dom.gamma, lambda sums: bound(sums) >= incumbent - _TIE)
                norms = np.sqrt(sq)
                inside = np.abs(norms - dom.nu) <= 2.0 * dom.gamma
                shells[q] = (_lattice_axis(q, radius, dom.gamma), indices[inside], norms[inside])
                built += len(shells[q][1])
            group = [j for j in range(reach) if qs[j] == q]
            values.update(zip(group, _support_values(
                [sys.restricted(bases[j]) for j in group], [bases[j] for j in group],
                *shells[q], dom)))
        logger.info("polyopt size %d: q=%s shell points built=%d scored=%d incumbent=%.6g",
                    size, sorted(set(qs[:reach])), built,
                    sum(len(shells[qs[j]][1]) for j in range(reach)), incumbent)
        for j in range(len(supports)):
            if j == reach:
                raise ResourceBudgetError(
                    f"support nets need {counts[j]} grid points, above the "
                    f"{net_budget} budget; coarsen the spacing or restrict supports")
            top = values[j].max(initial=-math.inf)
            if top > best_val + _TIE:
                first = int(np.argmax(values[j] >= top - _TIE))
                axis, indices, _ = shells[qs[j]]
                best_val = float(top)
                best_x = bases[j] @ _coords(axis, indices[first:first + 1])[0]
            if best_val >= ceiling - eps:
                return best_x
        used = counts[-1]
    return best_x
