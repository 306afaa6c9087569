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
`support_nets` enumerates those grids under one budget for the solver and
hands out each grid's orthonormal span basis B.  A grid's lattice
coordinates depend only on its dimension q, so one call enumerates and
ball-filters the lattice once per q and maps it through the basis of every
support of that q; the cover learner builds its candidate nets from the
same lattice helper, once per q for the whole run.  The solver
evaluates the objective in the q coordinates of that span:
`PolySystem.restricted(B)` is f(B c) as a polynomial on C^q, so the degree-k
terms cost q^k x q^k products rather than n^k x n^k ones.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import ResourceBudgetError

DEFAULT_NET_BUDGET = 5_000_000
_EVAL_CHUNK = 100_000


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
        self._mats = []
        total = abs(self.constant)
        for k, t in enumerate(self.tensors, start=1):
            if t.shape != (n,) * (2 * k):
                raise ValueError(f"degree-{k} tensor must have shape {(n,) * (2 * k)}")
            total += float(np.linalg.norm(t))
            self._mats.append(t.reshape(n**k, n**k))
        if total > 1.0 + 1e-9:
            raise ValueError("total coefficient mass exceeds 1")

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
        """Rows of `points` inside the domain at slack factor `factor`.

        The flatness test is skipped when every row's norm is already below
        the cap: |x_i| <= |x|, and the 1e-12 margin covers the rounding gap
        between the per-coordinate modulus and the row norm.
        """
        g = factor * self.gamma
        norms = np.linalg.norm(points, axis=1)
        mask = np.abs(norms - self.nu) <= g
        cap = self.mu + g
        if points.shape[1] and norms.max(initial=0.0) > cap * (1.0 - 1e-12):
            mask &= np.max(np.abs(points), axis=1) <= cap
        if self.a.shape[0]:
            mask &= np.linalg.norm(points @ self.a.T - self.v, axis=1) <= g
        return mask


def evaluate_poly(sys: PolySystem, x: np.ndarray) -> complex:
    """f(x) = constant + sum_k <x^(x)k| M_k |x^(x)k>."""
    x = np.asarray(x, dtype=complex).reshape(sys.n)
    return complex(evaluate_poly_batch(sys, x[None, :])[0])


def evaluate_poly_batch(sys: PolySystem, points: np.ndarray) -> np.ndarray:
    """Vectorized objective values for a (p, n) array of points."""
    p = points.shape[0]
    vals = np.full(p, sys.constant, dtype=complex)
    power = np.ones((p, 1), dtype=complex)
    for mat in sys._mats:
        power = (power[:, :, None] * points[:, None, :]).reshape(p, -1)
        vals += (power.conj() * (power @ mat.T)).sum(axis=1)
    return vals


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


def _ball_lattice(axis: np.ndarray, q: int, radius: float, start: int, stop: int) -> np.ndarray:
    """Axis indices (real parts, then imaginary) of the raw points start..stop-1,
    in lex order over the 2q-cube, that lie in the radius ball; the cube is
    walked _EVAL_CHUNK raw points at a time, so memory follows the kept points."""
    g = len(axis)
    parts = []
    for lo in range(start, stop, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, stop)
        if q == 0:
            multi = np.zeros((hi - lo, 0), dtype=int)
        else:
            multi = np.stack(np.unravel_index(np.arange(lo, hi), (g,) * (2 * q)), axis=1)
        keep = (axis[multi] ** 2).sum(axis=1) <= radius**2
        parts.append(multi[keep].astype(np.min_scalar_type(g - 1)))
    return np.concatenate(parts)


def _iter_ball_grid(basis: np.ndarray, radius: float, spacing: float, lattice: list):
    """Chunked lattice points of the radius ball in the span of `basis`.

    `basis` holds q orthonormal columns; the lattice is `_lattice_axis` over
    the real and imaginary parts of the q coordinates, and each chunk covers
    at most _EVAL_CHUNK raw lattice points before the ball filter.  Yields
    (p, n) arrays of points in the ambient space.  `lattice` holds, per raw
    chunk, the `_ball_lattice` indices of that chunk; it depends only on
    (q, spacing), so chunks already in it are replayed and only the missing
    ones are enumerated and appended.
    """
    dim_c = basis.shape[1]
    axis = _lattice_axis(dim_c, radius, spacing)
    total = len(axis) ** (2 * dim_c)
    for k, start in enumerate(range(0, total, _EVAL_CHUNK)):
        if k == len(lattice):
            lattice.append(_ball_lattice(axis, dim_c, radius, start,
                                         min(start + _EVAL_CHUNK, total)))
        reals = axis[lattice[k]]
        yield (reals[:, :dim_c] + 1j * reals[:, dim_c:]) @ basis.T


def support_nets(base: np.ndarray, max_support: int, radius: float,
                 spacing: float, budget: int):
    """Lattice nets over span(base, axes of S) for every small support S.

    `base` is an (n, k) array of columns kept in every span (k may be 0; the
    columns need not be orthonormal).  Supports S of at most `max_support`
    coordinates come in size-then-lex order.  For each, the net is the
    lattice of pitch spacing / sqrt(2 max(q, 1)) over the real and imaginary
    parts of the q coordinates of an orthonormal basis of the span, cut to
    the ball of the given radius; the lattice's covering radius is
    spacing / 2.  Yields (S, basis, chunks): the n x q orthonormal basis of
    the span, and an iterator over (p, n) arrays of net points, all of which
    lie in span(basis).  The ball's lattice coordinates depend only on q, so
    one call enumerates and filters the 2q-cube once per q; every later
    support of that q only maps the kept coordinates through its basis.
    Before a support is enumerated, the raw lattice points of every net so
    far are counted against `budget`; exceeding it raises
    ResourceBudgetError.
    """
    n = base.shape[0]
    eye = np.eye(n, dtype=complex)
    used = 0
    lattices: dict[int, list] = {}
    for size in range(min(n, max_support) + 1):
        for support in combinations(range(n), size):
            basis = _orthonormal_columns(
                np.concatenate([base, eye[:, list(support)]], axis=1))
            q = basis.shape[1]
            used += len(_lattice_axis(q, radius, spacing)) ** (2 * q)
            if used > budget:
                raise ResourceBudgetError(
                    f"support nets need {used} grid points, above the "
                    f"{budget} budget; coarsen the spacing or restrict supports")
            lattice = lattices.setdefault(q, [])
            yield support, basis, _iter_ball_grid(basis, radius, spacing, lattice)


def _certainly_empty(dom: OptDomain, factor: float) -> bool:
    """True when the flatness cap alone keeps every candidate below the norm shell."""
    g = factor * dom.gamma
    return (dom.mu + g) * math.sqrt(dom.n) < dom.nu - g


def solve_constrained(sys: PolySystem, dom: OptDomain, eps: float,
                      net_budget: int = DEFAULT_NET_BUDGET):
    """Maximize |f| over the domain by sparse-support guessing plus grid nets.

    Returns a point x in the factor-2 domain whose |f(x)| is within eps of
    the best value over the factor-1 domain, or None when the factor-2 domain
    contains no grid point (in particular when it is empty).  Search space:
    for each coordinate support S of size at most min(n, 1/mu^2 + 1), a grid
    of pitch gamma / sqrt(2 q) over the ball of radius nu + 2 gamma in
    span(effective subspace, rows of A, axes of S) with q complex
    coordinates, as enumerated by `support_nets`; the objective is evaluated
    in those q coordinates through `PolySystem.restricted`.  Enumerating more
    than `net_budget` raw grid points raises ResourceBudgetError.  Deterministic:
    supports in size-then-lex order, first-found argmax, early exit once the
    value is provably within eps of the global ceiling.
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
    ceiling = abs(sys.constant) + sum(
        float(np.linalg.norm(t)) * (1.0 + 2.0 * dom.gamma) ** (2 * k)
        for k, t in enumerate(sys.tensors, start=1))
    best_val, best_x = -1.0, None
    for _, basis, chunks in support_nets(wide, max_support, radius, dom.gamma, net_budget):
        local = sys.restricted(basis)
        for points in chunks:
            mask = dom.membership_mask(points, factor=2.0)
            if not mask.any():
                continue
            feasible = points[mask]
            vals = np.abs(evaluate_poly_batch(local, feasible @ basis.conj()))
            top = int(np.argmax(vals))
            if vals[top] > best_val:
                best_val, best_x = float(vals[top]), feasible[top]
        if best_val >= ceiling - eps:
            break
    return best_x
