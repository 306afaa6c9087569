"""States, and product-state geometry: parametrization, tangent distance, string weights.

A `QuantumState` is a normalized state on n qubits: a unit amplitude vector
or a mixed state, given and held in factored form rho = W W* + c I
(`FactoredDensity`, W of shape (dim, r), c >= 0), which is PSD by
construction: validation checks finiteness and the trace ||W||_F^2 + c dim
at O(dim r), with no eigendecomposition.  No dim x dim density matrix is
ever formed from a state.  Every dense path that remains (tomography
blocks, a square random factor, contracted amplitude vectors) checks its
16 dim^2 bytes (16 dim for an amplitude vector) against DENSE_BUDGET and
raises ResourceBudgetError above it.

A pure product state on n qubits is parametrized by a complex vector z, one
entry per site, as the tensor product of (|0> + z_i |1>)/sqrt(1 + |z_i|^2).
This module provides that parametrization, the tangent distance between two
such states, the Hamming weights of basis strings, the single-site unitaries
that rotate a product state onto |0...0> (applied sitewise by `apply_sites`,
without a dense Kronecker frame), fidelity evaluation, and the small
closed-form bounds (fidelity sandwiches, weight-tail bounds) that the
learners rely on.

Every module reads a state's rho through `_operator`, `_marginal`,
`_sandwich`, `_mapped` and `_flip_read`: rho @ block, the marginal on a site
set, rows rho rows*, M rho M* for a chain M of local maps (`_apply_chain`)
with orthonormal rows, and the factor against the all-zero and single-flip
rows of a product frame, contracted site by site.  A pure state is the
factor (psi, 0) and a mixed state its rho = W W* + c I, so each read costs
O(dim r k), no dim x dim matrix is formed, and a mapped or reduced factor is
again a factor.

Every module builds product amplitudes with `product_vectors` from (k, n, 2)
site stacks (`site_stack` gives the stack of parameter tuples), reads
parameters off site vectors with `vector_to_params`, enumerates string
weights with `hamming_weights`, draws Haar states with `haar_state`, and
takes the top eigenpair of a 2x2 Hermitian matrix in closed form with
`_top_pair`.

Basis convention: index b encodes the bit string x via b = sum_i x_i 2^(n-i),
i.e. site 1 is the most significant bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResourceBudgetError

Z_MAX = 1e12
DEFAULT_ATOL = 1e-9
# Largest dense array, in bytes, any path materializes (64 MiB): a dim x dim
# complex matrix takes 16 dim^2 of them, so dense matrices stop at n = 11
# qubits and dense amplitude vectors at n = 22.
DENSE_BUDGET = 1 << 26
_FACTOR_FORM = ("a mixed state is given in factor form rho = W W* + c I, "
                "as a FactoredDensity(W, c)")


def check_dense_budget(shape: tuple[int, ...]) -> None:
    """Raise ResourceBudgetError if a dense complex array of this shape exceeds DENSE_BUDGET."""
    need = 16 * math.prod(shape)
    if need > DENSE_BUDGET:
        raise ResourceBudgetError(
            f"a dense {' x '.join(map(str, shape))} array needs {need} bytes, above "
            f"the {DENSE_BUDGET}-byte budget")


@dataclass(frozen=True)
class ProductParams:
    """Per-site parameters z of the product state ⊗_i (|0> + z_i|1>)/√(1+|z_i|²).

    Entries must be finite with |z_i| <= Z_MAX.  The empty tuple is allowed and
    denotes the zero-site prefix used to seed prefix-extension sweeps.
    """

    z: tuple[complex, ...]

    def __post_init__(self):
        z = tuple(complex(v) for v in self.z)
        object.__setattr__(self, "z", z)
        for v in z:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("product parameters must be finite")
            if abs(v) > Z_MAX:
                raise ValueError(f"|z| = {abs(v):.3e} exceeds the cap {Z_MAX:.0e}")

    @property
    def n(self) -> int:
        return len(self.z)

    def asarray(self) -> np.ndarray:
        return np.asarray(self.z, dtype=complex)

    def concat(self, other: "ProductParams") -> "ProductParams":
        return ProductParams(self.z + other.z)


def _onto_cap(value: complex) -> complex:
    """A value scaled onto the Z_MAX circle, pulled in while rounding left it outside.

    Scaling by Z_MAX/|value| can leave |value| one ulp above Z_MAX; each step
    moves both parts one ulp toward zero.  A value within the cap is returned
    unchanged.
    """
    while abs(value) > Z_MAX:
        value = complex(math.nextafter(value.real, 0.0), math.nextafter(value.imag, 0.0))
    return value


def cap_param(value: complex) -> complex:
    """Clamp a single parameter's magnitude to Z_MAX, preserving its phase."""
    value = complex(value)
    mag = abs(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)) or mag == 0.0:
        if mag == 0.0:
            return 0.0 + 0.0j
        # An infinite/NaN ratio means the |1> component dominates completely.
        return complex(Z_MAX)
    if mag > Z_MAX:
        return _onto_cap(value / mag * Z_MAX)
    return value


@dataclass(frozen=True, eq=False)
class FactoredDensity:
    """The PSD operator W W* + c I, kept as its factor W (dim x r) and shift c >= 0.

    It answers rho @ x at O(dim r) per column without forming rho.
    """

    factor: np.ndarray
    shift: float = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        dim = self.factor.shape[0]
        return (dim, dim)

    def trace(self) -> float:
        """||W||_F^2 + c dim."""
        w = self.factor
        return float(np.vdot(w, w).real + self.shift * w.shape[0])

    def __matmul__(self, x):
        w = self.factor
        return w @ (w.conj().T @ x) + self.shift * x


@dataclass(frozen=True)
class QuantumState:
    """A normalized state on n qubits: a pure state vector or a factored density.

    kind is "pure" (data: unit amplitude vector of length 2**n) or "mixed"
    (data: a FactoredDensity whose factor has 2**n rows and whose trace is
    1).
    """

    n: int
    kind: str
    data: np.ndarray | FactoredDensity

    def __post_init__(self):
        if self.kind not in ("pure", "mixed"):
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("need n >= 1 qubits")
        dim = self.dim
        if self.kind == "mixed":
            data = self._checked_factor(dim)
        elif isinstance(self.data, FactoredDensity):
            raise ValueError("a factored density needs kind 'mixed'")
        else:
            data = np.array(self.data, dtype=complex)
            if data.shape != (dim,):
                raise ValueError(f"pure state needs shape ({dim},), got {data.shape}")
            if abs(np.linalg.norm(data) - 1.0) > DEFAULT_ATOL:
                raise ValueError("pure state vector is not normalized")
            data.setflags(write=False)
        object.__setattr__(self, "data", data)

    def _checked_factor(self, dim: int) -> FactoredDensity:
        """A read-only copy of the factored data, validated at O(dim r)."""
        if not isinstance(self.data, FactoredDensity):
            raise ValueError(_FACTOR_FORM)
        w = np.array(self.data.factor, dtype=complex)
        shift = float(self.data.shift)
        if w.ndim != 2 or w.shape[0] != dim:
            raise ValueError(f"density factor needs shape ({dim}, r), got {w.shape}")
        if not (np.isfinite(w).all() and math.isfinite(shift)):
            raise ValueError("density factor must be finite")
        if shift < 0.0:
            raise ValueError("density shift must be >= 0")
        w.setflags(write=False)
        data = FactoredDensity(w, shift)
        if abs(data.trace() - 1.0) > DEFAULT_ATOL:
            raise ValueError("density matrix trace differs from 1")
        return data

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        vector = np.asarray(vector, dtype=complex)
        return cls(n=_infer_qubits(vector.shape[0]), kind="pure", data=vector)

    @classmethod
    def mixed(cls, rho: FactoredDensity) -> "QuantumState":
        """A mixed state from its factor form rho = W W* + c I; ValueError for anything else."""
        if not isinstance(rho, FactoredDensity):
            raise ValueError(_FACTOR_FORM)
        return cls(n=_infer_qubits(rho.factor.shape[0]), kind="mixed", data=rho)

    @property
    def dim(self) -> int:
        return 2**self.n


# --- reading the state -----------------------------------------------------


def _operator(s: QuantumState) -> FactoredDensity:
    """The state's rho as a FactoredDensity: a pure psi is the factor (psi, 0).

    rho @ block is then one product, at O(dim r k).
    """
    if s.kind == "pure":
        return FactoredDensity(s.data[:, None])
    return s.data


def _marginal(rho: FactoredDensity, n: int, sites) -> FactoredDensity:
    """rho on n qubits reduced to `sites` (0-based, increasing).

    A factor stays a factor: W with the kept sites' axes moved to the front,
    regrouped as (2^|S|, 2^(n-|S|) r), and the shift c 2^(n-|S|).
    """
    sites = list(sites)
    if len(sites) == n:
        return rho
    w = np.moveaxis(rho.factor.reshape((2,) * n + (-1,)), sites, range(len(sites)))
    return FactoredDensity(w.reshape(2 ** len(sites), -1), rho.shift * 2 ** (n - len(sites)))


def _sandwich(rho: FactoredDensity, rows) -> np.ndarray:
    """rows rho rows* for a (k, dim) matrix of rows; the block rho[rows, rows] for an index.

    An index is a slice or a list of basis indices.  This is y y* + c rows
    rows* with y = rows W, at O(k dim r + k^2 dim); the shift term is
    skipped when c = 0.
    """
    matrix = isinstance(rows, np.ndarray) and rows.ndim == 2
    y = rows @ rho.factor if matrix else rho.factor[rows]
    out = y @ y.conj().T
    if not rho.shift:
        return out
    if matrix:
        out += rho.shift * (rows @ rows.conj().T)
    else:
        out[np.diag_indices_from(out)] += rho.shift
    return out


def _apply_chain(maps, x) -> np.ndarray:
    """A chain of maps applied in order to the leading axis of x.

    Each map is a (2^a, 2^b) matrix acting on the leading b qubits of the
    register the maps before it left, which it replaces by a qubits; any
    trailing axis of x is kept.
    """
    for m in maps:
        shape = (m.shape[0] * x.shape[0] // m.shape[1],) + x.shape[1:]
        x = (m @ x.reshape(m.shape[1], x.size // m.shape[1])).reshape(shape)
    return x


def _mapped(rho: FactoredDensity, maps) -> FactoredDensity:
    """M rho M* for the chain M of `maps`: the factor (M W, c).

    M (W W* + c I) M* is (M W)(M W)* + c M M*, so the shift term needs
    M M* = I: with c > 0 every map's rows must be orthonormal, or ValueError.
    """
    if rho.shift and any(np.abs(m @ m.conj().T - np.eye(len(m))).max() > DEFAULT_ATOL
                         for m in maps):
        raise ValueError("a state with a shift maps only through maps with orthonormal rows")
    return FactoredDensity(_apply_chain(maps, rho.factor), rho.shift)


def _flip_read(rho: FactoredDensity, us: np.ndarray) -> np.ndarray:
    """Y = rows W for the n + 1 rows <0^n| U and <e_i| U, U the product of the n sites' us.

    us is an (n, 2, 2) stack of single-site unitaries.  The rows are product
    rows, so W is contracted one site at a time, site 1 first: the all-zero
    row is carried on with each site's row 0, every row flipped at an
    earlier site likewise, and the site's row 1 on the all-zero row adds
    one flipped row per site.  Y has shape (n + 1, r), the all-zero row
    first, at O(2^n r) time; no 2^n-long row is formed.
    """
    x = rho.factor.reshape(1, -1)
    for u in us:
        x = x.reshape(len(x), 2, -1)
        out = np.empty((len(x) + 1, x.shape[2]), dtype=complex)
        np.matmul(u[0], x, out=out[:-1])
        np.matmul(u[1], x[0], out=out[-1])
        x = out
    return x


def _infer_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if n < 1 or 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2 above 1")
    return n


@lru_cache(maxsize=None)
def hamming_weights(n: int) -> np.ndarray:
    """Number of 1 bits of every n-qubit basis index (site 1 most significant)."""
    idx = np.arange(2**n)
    weights = np.zeros(2**n, dtype=np.int64)
    for site in range(n):
        weights += (idx >> (n - 1 - site)) & 1
    weights.setflags(write=False)
    return weights


def _site_vector(z: complex) -> np.ndarray:
    v = np.array([1.0, z], dtype=complex)
    return v / math.sqrt(1.0 + abs(z) ** 2)


def _fix_global_phase(vector: np.ndarray) -> np.ndarray:
    mags = np.abs(vector)
    top = mags.max()
    if top == 0.0:
        return vector
    first = int(np.argmax(mags > top * 1e-12))
    phase = vector[first] / abs(vector[first])
    return vector / phase


def product_state_vector(p: ProductParams) -> QuantumState:
    """The pure product state with amplitudes Π_i z_i^{x_i} / Π_i √(1+|z_i|²).

    The global phase is fixed so that the lexicographically-first nonzero
    amplitude is real positive (which makes the |0...0> amplitude real positive
    whenever it is nonzero).
    """
    if p.n == 0:
        raise ValueError("cannot build a state on zero sites")
    vec = product_vectors(site_stack([p]))[0]
    return QuantumState.pure(_fix_global_phase(vec))


def site_stack(params) -> np.ndarray:
    """The (k, n, 2) site vectors of k product states of n >= 1 sites given by parameters.

    Entry [j, i] is (1, z_i)/√(1+|z_i|²) for params[j]; `product_vectors`
    turns the stack into amplitude rows, and `oracle.estimate_fidelity`
    reads it as it is.
    """
    return np.array([[_site_vector(z) for z in p.z] for p in params], dtype=complex)


def product_vectors(sites) -> np.ndarray:
    """Amplitude rows of product vectors: (batch, n, d) site vectors to (batch, d^n).

    Row j is sites[j, 0] ⊗ ... ⊗ sites[j, n-1] (site 1 most significant),
    grown one site at a time at O(batch d^n) in total.
    """
    sites = np.asarray(sites)
    batch, n, d = sites.shape
    out = np.ones((batch, 1), dtype=sites.dtype)
    for k in range(n):
        out = (out[:, :, None] * sites[:, None, k, :]).reshape(batch, d ** (k + 1))
    return out


def tangent_distance(p: ProductParams, q: ProductParams) -> float:
    """sqrt(Σ_i |(z_i − a_i)/(1 + conj(z_i)·a_i)|²); +inf on an orthogonal site.

    Not a metric (the triangle inequality can fail), but symmetric, zero iff
    the states coincide, and invariant under joint single-site unitaries.
    A site contributes +inf exactly when its denominator vanishes while the
    numerator does not; comparisons should treat +inf as exceeding any
    threshold.
    """
    if p.n != q.n:
        raise ValueError("parameter vectors must have the same number of sites")
    total = 0.0
    for z, a in zip(p.z, q.z):
        num = abs(z - a)
        den = abs(1.0 + z.conjugate() * a)
        if den == 0.0:
            if num == 0.0:
                continue
            return math.inf
        total += (num / den) ** 2
    return math.sqrt(total)


def recenter_unitaries(p: ProductParams) -> list[np.ndarray]:
    """Single-site unitaries U_i whose tensor product maps |π_p> to |0...0>."""
    out = []
    for z in p.z:
        scale = 1.0 / math.sqrt(1.0 + abs(z) ** 2)
        u = scale * np.array([[1.0, z.conjugate()], [-z, 1.0]], dtype=complex)
        out.append(u)
    return out


def product_unitary(unitaries) -> np.ndarray:
    """Tensor (Kronecker) product of a list of single-site unitaries."""
    full = np.array([[1.0 + 0.0j]])
    for u in unitaries:
        full = np.kron(full, u)
    return full


def apply_sites(ops, x) -> np.ndarray:
    """(op_1 ⊗ ... ⊗ op_n) applied to the leading axis of a vector or matrix x.

    ops[k] is an (r_k, d_k) matrix acting on site k+1 (site 1 most
    significant); it need not be square.  The leading axis of x must have
    length prod d_k; the result's has length prod r_k and any trailing axis
    is kept.  One contraction per site, so the dense Kronecker product is
    never formed.  K rho K* is apply_sites(ops, apply_sites(ops, rho).conj().T)
    conjugate-transposed.
    """
    x = np.asarray(x)
    ops = [np.asarray(op) for op in ops]
    if math.prod(op.shape[1] for op in ops) != x.shape[0]:
        raise ValueError("site operators do not match the leading axis")
    left, right = 1, x.size
    out = x
    for op in ops:
        right //= op.shape[1]
        out = np.matmul(op, out.reshape(left, op.shape[1], right))
        left *= op.shape[0]
    return out.reshape((left,) + x.shape[1:])


def transform_params(unitaries, p: ProductParams, inverse: bool = False) -> ProductParams:
    """Parameters of (⊗U_i)|π_p> (each U_i maps product states to product states).

    With inverse=True applies each U_i's adjoint instead.  A site whose |0>
    component is annihilated gets the capped parameter Z_MAX with the correct
    phase.
    """
    if len(unitaries) != p.n:
        raise ValueError("need exactly one unitary per site")
    new = []
    for u, z in zip(unitaries, p.z):
        mat = u.conj().T if inverse else u
        v0 = mat[0, 0] + mat[0, 1] * z
        v1 = mat[1, 0] + mat[1, 1] * z
        new.append(_ratio_param(v0, v1))
    return ProductParams(tuple(new))


def _ratio_param(v0: complex, v1: complex) -> complex:
    """The capped parameter v1/v0, keeping the ratio's phase when it overflows."""
    if abs(v0) * Z_MAX <= abs(v1):
        if abs(v0) == 0.0:
            return complex(Z_MAX)
        ph = cmath.phase(v1) - cmath.phase(v0)
        return _onto_cap(complex(Z_MAX * math.cos(ph), Z_MAX * math.sin(ph)))
    return cap_param(v1 / v0)


def vector_fidelity(s: QuantumState, vec: np.ndarray) -> float:
    """⟨v|ρ|v⟩ for mixed s, |⟨v|ψ⟩|² for pure s, without clamping to [0, 1].

    One read of ρ: O(dim·r) on a pure or factored state.
    """
    return float(np.real(vec.conj() @ (_operator(s) @ vec)))


def fidelity(s: QuantumState, p: ProductParams) -> float:
    """⟨π_p|ρ|π_p⟩ for mixed s, |⟨π_p|ψ⟩|² for pure s, clamped to [0, 1]."""
    if p.n != s.n:
        raise ValueError("site-count mismatch between state and parameters")
    val = vector_fidelity(s, product_state_vector(p).data)
    return float(min(max(val, 0.0), 1.0))


def weight_tail_bound(mu: float, d: float) -> float:
    """Upper bound exp(−d·log(d/μ) + (d−μ)) on the mass at weight ≥ d, for d ≥ μ."""
    if d < mu:
        raise ValueError("the tail bound needs d >= mu")
    if mu == 0.0:
        return 1.0 if d == 0 else 0.0
    if d == 0:
        return 1.0
    return math.exp(-d * math.log(d / mu) + (d - mu))


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random rows x cols isometry (QR of a complex Gaussian, phases fixed)."""
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random pure state vector."""
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return g / np.linalg.norm(g)


def haar_product_params(rng: np.random.Generator, n: int) -> ProductParams:
    """Parameters of a product of independent Haar-random qubit states."""
    return vector_to_params([haar_state(2, rng) for _ in range(n)])


def vector_to_params(vector) -> ProductParams:
    """Parameters (ratio amp1/amp0, capped) of a qubit vector or an (n, 2) stack, one per site."""
    v = np.asarray(vector, dtype=complex)
    if v.ndim not in (1, 2) or v.shape[-1:] != (2,):
        raise ValueError("expected a single-qubit state vector or an (n, 2) stack of them")
    return ProductParams(tuple(_ratio_param(a, b) for a, b in v.reshape(-1, 2)))


def _top_pair(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenvalue and unit eigenvector of a 2x2 Hermitian matrix, in closed form.

    Reads the real diagonal and the lower entry, as `np.linalg.eigh` does,
    and returns e_1 when the two eigenvalues coincide, as `eigh` does.
    """
    a, c, lower = float(mat[0, 0].real), float(mat[1, 1].real), complex(mat[1, 0])
    half = 0.5 * (a - c)
    radius = math.hypot(half, abs(lower))
    top = 0.5 * (a + c) + radius
    if radius == 0.0:
        return top, np.array([0.0, 1.0], dtype=complex)
    # Of the two forms of the eigenvector, take the one without cancellation.
    if half >= 0.0:
        x, y = half + radius, lower
    else:
        x, y = lower.conjugate(), radius - half
    scale = 1.0 / math.hypot(abs(x), abs(y))
    return top, np.array([x * scale, y * scale], dtype=complex)
