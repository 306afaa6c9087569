"""Copy-based access to an unknown quantum state.

A :class:`StateOracle` wraps a hidden mixed state and exposes only the
measurement-driven estimators a learner is allowed to call: amplitude-vector
estimation in a rotated frame, low-weight-subspace tomography, subnormalized
tomography behind a measured prefix, and direct fidelity estimation.  Two
backends share identical signatures and copy accounting:

* ``exact`` — returns ground-truth values plus optional seeded noise.  Copy
  counts are still charged using the sampling formulas, so resource reports
  are backend-independent.
* ``sampling`` — simulates single-copy randomized measurements (Haar-basis
  shadows on a compressed register) with explicit copy consumption.  Each
  shot records the basis state u its outcome projects onto, drawn as one
  Gamma-weighted Gaussian in the eigenbasis of the compressed state sigma
  (one eigh per call, 2 dim + 2 random draws per shot); chunks of SHADOW_CHUNK
  shots add into per-group sums in that eigenbasis, rotated back once per
  call, so memory is O(SHADOW_CHUNK * dim) whatever the shot count.

Sampling measures a compressed register, the block read plus one junk slot
(`_with_junk_slot`): on the product columns U*|0^n>, U*|e_i> for amplitudes
(`_z_columns`), on the weight-<= d strings for subspace tomography.

The estimators read the hidden state through the `states` readers
(`_operator`, `_marginal`, `_sandwich`); see that module's docstring.

Copy-cost formulas are exported as plain functions so tests can assert the
counter matches them exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceBudgetError
from .states import (
    ProductParams,
    QuantumState,
    _marginal,
    _operator,
    _sandwich,
    check_dense_budget,
    hamming_weights,
    haar_state,
    product_state_vector,
    product_vectors,
)

# Hard cap on simulated measurement shots per oracle call; beyond this a
# sampling run is not a desk-scale experiment and is refused.
DEFAULT_SHOT_BUDGET = 50_000_000
# Shots the sampler draws at a time; bounds its working memory at
# O(SHADOW_CHUNK * dim) whatever the shot count.
SHADOW_CHUNK = 20_000


def _check_unit_interval(value: float, name: str) -> None:
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


# --- copy-cost formulas (the documented accounting) -----------------------


def median_group_count(delta: float) -> int:
    """Number of independent estimate groups whose median boosts 2/3 to 1-delta."""
    return max(1, math.ceil(18.0 * math.log(1.0 / delta)))


def z_group_size(n: int, eps: float) -> int:
    """Shots per group so one group mean of the amplitude vector errs < eps/3 w.p. 2/3."""
    return math.ceil(81.0 * n / eps**2)


def z_copy_cost(n: int, eps: float, delta: float) -> int:
    return median_group_count(delta) * z_group_size(n, eps)


def tomography_group_size(dim: int, eps: float) -> int:
    """Shots per group for a compressed-register shadow estimate of a dim x dim block."""
    return math.ceil(27.0 * (dim * dim + dim - 1) * (1.0 + math.sqrt(dim)) ** 2 / eps**2)


def tomography_copy_cost(dim: int, eps: float, delta: float) -> int:
    return median_group_count(delta) * tomography_group_size(dim, eps)


def fidelity_copy_cost(eps: float, delta: float) -> int:
    """Single-basis Bernoulli estimation shot count (Hoeffding)."""
    return math.ceil(math.log(2.0 / delta) / (2.0 * eps**2))


def subnormalized_budget(dim_suffix: int, eps: float, delta: float) -> tuple[int, int, int]:
    """(prefix-rate shots, wanted suffix shadows, group count) for subnormalized tomography.

    The accuracy budget is split evenly: half of eps to the prefix success
    rate, half to the conditional suffix state (estimated in Frobenius norm at
    eps / (2 sqrt(dim)) so the trace-norm error stays below eps/2).
    """
    n_mu = math.ceil(2.0 * math.log(4.0 / delta) / eps**2)
    r = eps / (2.0 * math.sqrt(dim_suffix))
    groups = max(1, math.ceil(18.0 * math.log(2.0 / delta)))
    per_group = math.ceil(27.0 * (dim_suffix**2 + dim_suffix - 1) / r**2)
    return n_mu, groups * per_group, groups


def subnormalized_attempts(wanted_shadows: int, mu_hat: float) -> int:
    """Copies spent hunting for `wanted_shadows` prefix successes at estimated rate mu_hat."""
    return math.ceil(2.0 * wanted_shadows / mu_hat)


def weight_leq_indices(m: int, d: int) -> list[int]:
    """Basis indices (ascending) of m-qubit strings with Hamming weight <= d."""
    if not (0 <= d <= m):
        raise ValueError("need 0 <= d <= m")
    return np.flatnonzero(hamming_weights(m) <= d).tolist()


# --- oracle handle ---------------------------------------------------------


class StateOracle:
    """Single-threaded handle dispensing measurement results on a hidden state.

    ``backend`` is ``"exact"`` (ground truth + noise of strength up to
    ``noise_opnorm``) or ``"sampling"`` (simulated single-copy measurements,
    which refuses a positive ``noise_opnorm`` rather than ignore it).
    ``copies_consumed`` counts every copy any estimator has used; it only
    grows, and both backends charge the same documented formulas.
    """

    def __init__(self, hidden: QuantumState, backend: str = "exact", seed: int = 0,
                 noise_opnorm: float = 0.0, shot_budget: int = DEFAULT_SHOT_BUDGET):
        if backend not in ("exact", "sampling"):
            raise ValueError(f"unknown backend {backend!r}")
        if noise_opnorm < 0:
            raise ValueError("noise_opnorm must be >= 0")
        if backend == "sampling" and noise_opnorm > 0:
            raise ValueError("noise_opnorm applies to the exact backend only; the "
                             "sampling backend's error is its shot noise")
        self.hidden = hidden
        self.backend = backend
        self.seed = int(seed)
        self.noise_opnorm = float(noise_opnorm)
        self.shot_budget = int(shot_budget)
        self.copies_consumed = 0
        self._rng = np.random.default_rng(self.seed)

    @property
    def n(self) -> int:
        return self.hidden.n

    def _charge(self, copies: int) -> None:
        self.copies_consumed += int(copies)

    def _check_shots(self, shots: int) -> None:
        if self.backend == "sampling" and shots > self.shot_budget:
            raise ResourceBudgetError(
                f"sampling call needs {shots} copies, above the {self.shot_budget} budget")

    def _noise_scale(self, eps: float) -> float:
        """Magnitude of the injected error on the exact backend (0 disables it)."""
        if self.noise_opnorm == 0.0:
            return 0.0
        return min(eps, self.noise_opnorm) * float(self._rng.uniform())


# --- shared internals ------------------------------------------------------


def _z_columns(o: StateOracle, basis: list[np.ndarray]) -> np.ndarray:
    """The n+1 columns U*|b> for b in {0^n, e_1, .., e_n}, with U the product of `basis`.

    <b| U rho U* |b'> is then cols[:, b]* rho cols[:, b'], so no rotation of
    the full register is formed.
    """
    n = o.n
    if len(basis) != n:
        raise ValueError("need one single-site unitary per site")
    # Every column is a product vector: column b takes U_k*|1> at site k when
    # b = e_k and U_k*|0> elsewhere.
    adj = np.stack([np.asarray(u, dtype=complex).conj().T for u in basis])
    sites = np.repeat(adj[None, :, :, 0], n + 1, axis=0)
    sites[np.arange(1, n + 1), np.arange(n)] = adj[:, :, 1]
    # C order matters: a Fortran-ordered result takes another BLAS path in
    # _sandwich, which can rotate a degenerate eigenbasis of the sampled sigma.
    return np.ascontiguousarray(product_vectors(sites).T)


def _with_junk_slot(block: np.ndarray) -> np.ndarray:
    """A compressed register: `block` plus one junk slot for the leftover population.

    The compression is the channel that first checks membership in the
    span `block` is written in and dumps everything else into a fixed extra
    basis state; the block's matrix elements are unchanged.
    """
    dim = block.shape[0] + 1
    sigma = np.zeros((dim, dim), dtype=complex)
    sigma[:-1, :-1] = block
    sigma[-1, -1] = max(0.0, 1.0 - float(np.real(np.trace(sigma))))
    return sigma


def _geometric_median(points: np.ndarray) -> np.ndarray:
    """The group estimate minimizing the median distance to all groups.

    Robust selection: whenever a strict majority of groups lies within r of
    the truth, the winner lies within 3r.  Ties resolve to the lowest index.
    """
    k = points.shape[0]
    if k == 1:
        return points[0]
    # Squared distances from the k x k Gram matrix: O(k^2 + k dim^2) memory
    # instead of the (k, k, dim^2) array of pairwise differences.
    flat = points.reshape(k, -1)
    gram = np.real(flat.conj() @ flat.T)
    norms = np.diagonal(gram)
    sq = norms[:, None] + norms[None, :] - 2.0 * gram
    sq = np.clip((sq + sq.T) / 2.0, 0.0, None)
    np.fill_diagonal(sq, 0.0)
    med = np.median(np.sqrt(sq), axis=1)
    return points[int(np.argmin(med))]


def _shadow_basis(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cdf, vecs): sigma's cumulative spectrum, clipped at 0 and normalized, and eigenvectors."""
    vals, vecs = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
    cdf = np.cumsum(np.clip(vals, 0.0, None))
    cdf /= cdf[-1]
    return cdf, vecs


def _shadow_coord_chunks(rng: np.random.Generator, cdf: np.ndarray, shots: int):
    """Unit eigenbasis coordinates c of the rows u = vecs @ c that measuring sigma records.

    Measuring sigma = sum_k lam_k |e_k><e_k| in a Haar-random basis gives the
    row u its outcome projects onto the Haar law reweighted by dim <u|sigma|u>:
    pick k with probability lam_k, then weight the Haar law by |<e_k|u>|^2.  A
    shot draws g ~ CN(0, I), raises |g_k|^2 by 2E, E ~ Exp(1), keeping its
    phase, and takes c = g / |g|.  This is exact: the |g_j|^2 / 2 are Exp(1),
    whose normalized values are the Haar squared moduli, and the weight
    |u_k|^2 makes coordinate k a Gamma(2) with a uniform phase.  Yields
    arrays of shape (<= SHADOW_CHUNK, dim) that together hold `shots` shots.
    """
    dim = cdf.shape[0]
    for done in range(0, shots, SHADOW_CHUNK):
        b = min(SHADOW_CHUNK, shots - done)
        picks = cdf.searchsorted(rng.random(b), side="right")
        g = rng.standard_normal((b, 2 * dim)).view(complex)
        extra = 2.0 * rng.standard_exponential(b)
        hit = (np.arange(b), picks)
        h = g[hit]
        g[hit] = h * np.sqrt(1.0 + extra / (h.real ** 2 + h.imag ** 2))
        flat = g.view(float)
        flat /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
        yield g


def _shadow_group_means(rng: np.random.Generator, sigma: np.ndarray, groups: int,
                        per: int) -> np.ndarray:
    """Per-group means of the shadow matrices (dim+1)|u><u| - I, shape (groups, dim, dim).

    Draws groups * per shots of sigma and adds each chunk's slice of a group
    into that group's sum in sigma's eigenbasis, rotated back once at the
    end, so no row is formed and memory stays O(SHADOW_CHUNK * dim) beyond
    the (groups, dim, dim) result, whatever the shot count.
    """
    dim = sigma.shape[0]
    cdf, vecs = _shadow_basis(sigma)
    sums = np.zeros((groups, dim, dim), dtype=complex)
    shot = 0
    for coords in _shadow_coord_chunks(rng, cdf, groups * per):
        start = 0
        while start < len(coords):
            group, offset = divmod(shot + start, per)
            stop = min(len(coords), start + per - offset)
            part = coords[start:stop]
            sums[group] += part.T @ part.conj()
            start = stop
        shot += len(coords)
    return (dim + 1) / per * (vecs @ sums @ vecs.conj().T) - np.eye(dim)


def _project_psd(mat: np.ndarray, trace_cap: float = 1.0) -> np.ndarray:
    """Hermitize, clip negative eigenvalues, and rescale only if trace exceeds the cap."""
    h = (mat + mat.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(h)
    np.clip(vals, 0.0, None, out=vals)
    out = (vecs * vals) @ vecs.conj().T
    t = float(np.real(np.trace(out)))
    if t > trace_cap and t > 0.0:
        out *= trace_cap / t
    return out


def _random_hermitian_unit(rng: np.random.Generator, dim: int, norm: str) -> np.ndarray:
    """Random Hermitian matrix normalized to unit operator ("op") or trace ("tr") norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    if norm == "op":
        h /= np.linalg.norm(h, 2)
    else:
        h /= np.abs(np.linalg.eigvalsh(h)).sum()
    return h


# --- estimators ------------------------------------------------------------


def estimate_z(o: StateOracle, basis: list[np.ndarray], eps: float, delta: float) -> np.ndarray:
    """Estimate the first-excitation amplitude vector in the rotated frame.

    With U the product of the per-site `basis` unitaries and rho' = U rho U*,
    the target is z_i = <e_i| rho' |0^n>.  Returns a vector within l2 distance
    eps of z with probability >= 1 - delta (always, on the exact backend with
    zero noise).

    Copies: median_group_count(delta) * z_group_size(n, eps) on both backends.
    """
    _check_unit_interval(eps, "eps")
    _check_unit_interval(delta, "delta")
    n = o.n
    copies = z_copy_cost(n, eps, delta)
    cols = _z_columns(o, basis)
    rho = _operator(o.hidden)

    if o.backend == "exact":
        o._charge(copies)
        z = cols[:, 1:].conj().T @ (rho @ cols[:, 0])
        scale = o._noise_scale(eps)
        if scale == 0.0:
            return z
        return z + scale * haar_state(n, o._rng)

    o._check_shots(copies)
    groups = median_group_count(delta)
    per = z_group_size(n, eps)
    # z_i = <e_i| sigma |0^n> is entry (i, 0) of each group's shadow mean.
    sigma = _with_junk_slot(_sandwich(rho, cols.conj().T))
    means = _shadow_group_means(o._rng, sigma, groups, per)
    o._charge(copies)
    return _geometric_median(means[:, 1: n + 1, 0])


def subspace_tomography(o: StateOracle, prefix_m: int, d: int, eps: float,
                        delta: float) -> np.ndarray:
    """Estimate the low-excitation block of the first-`prefix_m`-sites marginal.

    Returns a 2^m x 2^m PSD matrix of trace <= 1 supported on computational
    strings of Hamming weight <= d, within operator-norm eps of the true
    weight-truncated marginal with probability >= 1 - delta.  A matrix above
    states.DENSE_BUDGET raises ResourceBudgetError before any copy is drawn.

    Copies: median_group_count(delta) * tomography_group_size(W + 1, eps)
    where W counts the weight-<= d strings, on both backends.
    """
    _check_unit_interval(eps, "eps")
    _check_unit_interval(delta, "delta")
    n = o.n
    if not (1 <= prefix_m <= n):
        raise ValueError("prefix_m out of range")
    if not (0 <= d <= prefix_m):
        raise ValueError("d out of range")
    check_dense_budget((2**prefix_m, 2**prefix_m))
    idx = weight_leq_indices(prefix_m, d)
    w = len(idx)
    dim = w + 1
    copies = tomography_copy_cost(dim, eps, delta)

    block = _sandwich(_marginal(_operator(o.hidden), n, range(prefix_m)), idx)
    full = np.zeros((2**prefix_m, 2**prefix_m), dtype=complex)

    if o.backend == "exact":
        o._charge(copies)
        scale = o._noise_scale(eps)
        if scale != 0.0:
            block = block + scale * _random_hermitian_unit(o._rng, w, "op")
            block = _project_psd(block)
        full[np.ix_(idx, idx)] = block
        return full

    o._check_shots(copies)
    groups = median_group_count(delta)
    per = tomography_group_size(dim, eps)
    sigma = _with_junk_slot(block)
    est = _geometric_median(_shadow_group_means(o._rng, sigma, groups, per))[:w, :w]
    o._charge(copies)
    full[np.ix_(idx, idx)] = _project_psd(est)
    return full


def subnormalized_tomography(o: StateOracle, frame: np.ndarray | None, zeroed_prefix: int,
                             eps: float, delta: float) -> np.ndarray:
    """Estimate the suffix block left after projecting the first sites onto zero.

    With rho' the hidden state conjugated by `frame` and i = zeroed_prefix,
    the target is sigma = (<0^i| (x) I) rho' (|0^i> (x) I), a PSD matrix on the
    remaining n - i sites with trace mu <= 1.  The estimate is within
    trace-norm eps with probability >= 1 - delta.

    Frame contract: `frame` is None (no rotation) or a matrix with 2^n
    columns and at least 2^(n-i) rows.  Only its leading 2^(n-i) rows, the
    |0^i>-prefix rows of the rotation, are read, as rows rho rows*; so a
    full 2^n x 2^n unitary and its leading row block give identical results.
    Any other shape raises ValueError.

    Copies: n_mu + attempts with (n_mu, wanted, groups) =
    subnormalized_budget(2^(n-i), eps, delta) and attempts =
    subnormalized_attempts(wanted, mu_hat); the reported success rate mu_hat
    is the exact mu on the exact backend.  A zero rate returns the zero
    matrix after the n_mu rate-estimation copies.
    """
    _check_unit_interval(eps, "eps")
    _check_unit_interval(delta, "delta")
    n = o.n
    if not (0 <= zeroed_prefix < n):
        raise ValueError("zeroed_prefix out of range")
    dim_s = 2 ** (n - zeroed_prefix)
    n_mu, wanted, groups = subnormalized_budget(dim_s, eps, delta)
    rho = _operator(o.hidden)
    if frame is None:
        block = _sandwich(rho, slice(dim_s))
    else:
        frame = np.asarray(frame)
        if frame.ndim != 2 or frame.shape[0] < dim_s or frame.shape[1] != o.hidden.dim:
            raise ValueError(f"frame needs {o.hidden.dim} columns and at least {dim_s} "
                             f"rows, got shape {frame.shape}")
        block = _sandwich(rho, frame[:dim_s])
    mu = float(np.real(np.trace(block)))

    if o.backend == "exact":
        mu_hat = mu
        if mu_hat <= 0.0:
            o._charge(n_mu)
            return np.zeros((dim_s, dim_s), dtype=complex)
        o._charge(n_mu + subnormalized_attempts(wanted, mu_hat))
        scale = o._noise_scale(eps)
        if scale == 0.0:
            return block.copy()
        noisy = block + scale * _random_hermitian_unit(o._rng, dim_s, "tr")
        return _project_psd(noisy)

    o._check_shots(n_mu)
    mu = min(max(mu, 0.0), 1.0)
    mu_hat = o._rng.binomial(n_mu, mu) / n_mu
    if mu_hat <= 0.0:
        o._charge(n_mu)
        return np.zeros((dim_s, dim_s), dtype=complex)
    attempts = subnormalized_attempts(wanted, mu_hat)
    o._check_shots(n_mu + attempts)
    successes = int(o._rng.binomial(attempts, mu))
    o._charge(n_mu + attempts)
    shots = min(wanted, successes)
    if shots == 0 or mu == 0.0:
        return np.zeros((dim_s, dim_s), dtype=complex)
    k = min(groups, shots)
    tau_hat = _geometric_median(_shadow_group_means(o._rng, block / mu, k, shots // k))
    return _project_psd(mu_hat * tau_hat)


def estimate_fidelity(o: StateOracle, prefix_m: int, p: ProductParams, eps: float,
                      delta: float) -> float:
    """Estimate the overlap of a product state with the first-`prefix_m`-sites marginal.

    Measures each copy in a product basis containing the candidate state, so
    the outcome is a Bernoulli with mean <pi| rho_[m] |pi>.  The estimate is
    within eps with probability >= 1 - delta.

    Copies: fidelity_copy_cost(eps, delta) on both backends.
    """
    _check_unit_interval(eps, "eps")
    _check_unit_interval(delta, "delta")
    n = o.n
    if not (1 <= prefix_m <= n):
        raise ValueError("prefix_m out of range")
    if p.n != prefix_m:
        raise ValueError("product parameters must cover exactly the measured prefix")
    copies = fidelity_copy_cost(eps, delta)
    rho_m = _marginal(_operator(o.hidden), n, range(prefix_m))
    vec = product_state_vector(p).data
    f = float(np.real(vec.conj() @ rho_m @ vec))
    f = min(max(f, 0.0), 1.0)

    if o.backend == "exact":
        o._charge(copies)
        scale = o._noise_scale(eps)
        if scale == 0.0:
            return f
        return min(max(f + scale * (1.0 if o._rng.uniform() < 0.5 else -1.0), 0.0), 1.0)

    o._check_shots(copies)
    hits = int(o._rng.binomial(copies, f))
    o._charge(copies)
    return hits / copies
