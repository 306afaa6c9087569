"""Copy-based access to an unknown quantum state.

A :class:`StateOracle` holds a hidden state as its factor W W* + c I and
exposes only the measurement-driven estimators a learner may call:
amplitude-vector estimation in a rotated frame, low-weight-subspace
tomography, subnormalized tomography behind a measured prefix, and direct
fidelity estimation.  Two backends share signatures and copy accounting:

* ``exact`` — returns ground-truth values plus optional seeded noise.  Copy
  counts are still charged using the sampling formulas, so resource reports
  are backend-independent.
* ``sampling`` — simulates single-copy randomized measurements (Haar-basis
  shadows on a compressed register) with explicit copy consumption.  Each
  shot records the basis state u its outcome projects onto, drawn as one
  Gamma-weighted Gaussian along a column of sigma^(1/2), for the compressed
  state sigma (one eigh per call, 2 dim + 2 random draws per shot).  The
  draws come SHADOW_CHUNK shots at a time, in a fixed order; the per-shot
  arithmetic then runs in cache-sized row blocks of each drawn chunk, which
  leaves every draw as it is, and each block adds into one sum in the
  computational basis, so memory is O(SHADOW_CHUNK * dim) whatever the shot
  count.

Sampling measures a compressed register, the block read plus one junk slot
(`_with_junk_slot`): on the product rows <b|U of a frame, b of weight <= 1
for amplitudes (`_frame_read`) and of weight <= d for subspace tomography,
both read off the factor site by site by `states._frame_rows`; in the
identity frame subspace tomography reads rows of the marginal's factor.

The shadow primitives average all their shots in one group, sized by matrix
Bernstein (`bernstein_shots`): N(d, eps, delta) =
ceil((4d + 2(d+1) eps / 3) / eps^2 * ln(2d / delta)) shots of a d-dim
register put the shadow mean within operator-norm eps of sigma with
probability >= 1 - delta.  Each estimator's docstring gives the accuracy it
asks of that mean and why.  Subnormalized tomography owes a trace-norm
error, and trace norm is at most sqrt(d) times Frobenius norm but d times
operator norm, so it sizes its window by the same theorem in Frobenius norm,
on the d^2 x 1 vectorized shadow (`subnormalized_budget`), with 5 to 6
times fewer shots at d = 2...16 than operator norm eps / (4d) would take.

The estimators read the oracle's factor `rho` only through the `states`
readers, which map it to the factor measured and turn that into numbers, so
no estimator forms a Gram of rows or touches a shift; see that module's
docstring, and `states._check_rotations` for the frames they refuse.

The oracle keeps two single-slot reads, and neither moves an output, a
charge or a draw: `estimate_z`'s last frame read (`_frame_read`), so the
rungs of a ladder read the state once, and the factor after
`subnormalized_tomography`'s last stack of window maps (`_chain_read`),
keyed by each map's bytes.  A stack that starts with the kept one applies,
and checks against the shift rule, only its new maps, so the MPS sweep,
whose stack grows by one map per step, maps the factor once; a repeated
stack maps nothing, and any other stack reads the factor afresh.

Copy-cost formulas are exported as plain functions so tests can assert the
counter matches them exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceBudgetError
from .states import (
    FactoredDensity,
    QuantumState,
    _flip_schedule,
    _frame_rows,
    _mapped,
    _marginal,
    _operator,
    _overlaps,
    _sandwich,
    check_dense_budget,
    haar_state,
)

# Hard cap on simulated measurement shots per oracle call; beyond this a
# sampling run is not a desk-scale experiment and is refused.
SHOT_BUDGET = 50_000_000
# Shots the sampler draws at a time; bounds its working memory at
# O(SHADOW_CHUNK * dim) whatever the shot count.
SHADOW_CHUNK = 20_000
# Rows of a drawn chunk the sampler's per-shot arithmetic runs on at a time,
# so that its temporaries stay in cache; the draws do not depend on it.
SHADOW_BLOCK = 2_048


def _check_unit_interval(value: float, name: str) -> None:
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


# --- copy-cost formulas (the documented accounting) -----------------------


def bernstein_shots(dim: int, eps: float, delta: float) -> int:
    """Shots whose shadow mean on a dim-dim register is within operator-norm eps w.p. 1 - delta.

    One shot's shadow X = (dim+1)|u><u| - I has E X = sigma and
    ||X - sigma|| <= dim + 1, and since E|u><u| = (sigma + I)/(dim + 1),
    ||E (X - sigma)^2|| <= ||E X^2|| = ||(dim-1)(sigma + I) + I|| <= 2 dim - 1.
    Matrix Bernstein (Tropp, arXiv:1004.4389, Thm 1.6 with d1 = d2 = dim)
    bounds P(||mean of N shots - sigma|| >= eps) by
    2 dim exp(-N eps^2 / (2 (2 dim - 1) + 2 (dim + 1) eps / 3)), at most delta
    at this N.
    """
    return math.ceil((4.0 * dim + 2.0 * (dim + 1) * eps / 3.0) / eps**2
                     * math.log(2.0 * dim / delta))


def z_copy_cost(n: int, eps: float, delta: float) -> int:
    """Shots for `estimate_z`: operator-norm eps on its (n+2)-dim compressed register."""
    return bernstein_shots(n + 2, eps, delta)


def tomography_copy_cost(dim: int, eps: float, delta: float) -> int:
    """Shots for `subspace_tomography` on a dim-dim compressed register: eps/2 before `_project_psd`."""
    return bernstein_shots(dim, eps / 2.0, delta)


def fidelity_copy_cost(eps: float, delta: float) -> int:
    """Single-basis Bernoulli estimation shot count (Hoeffding)."""
    return math.ceil(math.log(2.0 / delta) / (2.0 * eps**2))


def subnormalized_budget(dim: int, eps: float, delta: float) -> tuple[int, int]:
    """(prefix-rate shots, wanted window shadows) for subnormalized tomography.

    dim is the dimension d of the measured window, 2^w: the qubits of the
    suffix outside it are traced out, not measured.  The accuracy is split
    evenly: half of eps, at confidence 1 - delta/2, to the prefix success
    rate mu (Hoeffding), and half, at confidence 1 - delta/2, to the window,
    mu ||tau_hat - tau||_1 <= eps/2 for its unit-trace state tau.

    The window is sized in Frobenius norm, at e = eps / (2 sqrt(d)).  One
    shot's shadow X = (d+1)|u><u| - I has ||X||_F^2 = V = d^2 + d - 1, so
    E ||X - tau||_F^2 = V - ||tau||_F^2 <= V - 1/d and ||X - tau||_F <= R =
    sqrt(V) + 1.  Matrix Bernstein (Tropp, arXiv:1004.4389, Thm 1.6) on the
    d^2 x 1 vectorized shadows bounds P(||M - tau||_F >= e), M the mean of N
    shots, by (d^2 + 1) exp(-N e^2 / A), A = 2V + 2Re/3, at most delta/2 at
    N = ceil(A / e^2 * L), L = ln(2 (d^2 + 1) / delta), the count returned.
    `_project_psd` is the Frobenius projection onto the convex set {X psd,
    tr X <= 1}, which holds tau, so it moves no estimate away from tau, and
    ||tau_hat - tau||_1 <= sqrt(d) ||tau_hat - tau||_F <= sqrt(d) e = eps/2.

    A short hunt averages the s < N successes it found, and the weight mu
    absorbs the shortfall.  At s >= mu N shots Bernstein's exponent for
    ||M - tau||_F >= e / mu, where mu ||tau_hat - tau||_1 reaches eps/2, is
    s e^2 / (mu (2 mu (V - 1/d) + 2Re/3)) >= L' = N e^2 / (A - 2/d), which a
    full hunt (s = N) meets too.  The successes are Binomial(attempts, mu)
    with attempts >= 2N (mu_hat <= 1), so s < mu N has probability at most
    exp(-mu N / 4) (Chernoff).  If mu <= eps/4 the window term is at most
    2 mu <= eps/2 whatever the shots.  Otherwise the short hunt takes a share
    exp(-mu N / 4) <= exp(-d A L / 4) of the window's delta/2, which the
    Bernstein term leaves free: (d^2 + 1) exp(-L') <= delta/2 exp(-2L / (dA - 2)),
    and exp(-d A L / 4) <= delta/2 (1 - exp(-2L / (dA - 2))) for every d >= 2.
    """
    n_mu = math.ceil(2.0 * math.log(4.0 / delta) / eps**2)
    e = eps / (2.0 * math.sqrt(dim))
    v = dim * dim + dim - 1.0
    a = 2.0 * v + 2.0 * (math.sqrt(v) + 1.0) * e / 3.0
    return n_mu, math.ceil(a / e**2 * math.log(2.0 * (dim * dim + 1) / delta))


def subnormalized_attempts(wanted_shadows: int, mu_hat: float) -> int:
    """Copies spent hunting for `wanted_shadows` prefix successes at estimated rate mu_hat.

    The exact ceiling of 2 wanted / mu_hat, in integers on the float's exact
    rational value: a float quotient near 1e18 is spaced 128 apart.
    """
    num, den = float(mu_hat).as_integer_ratio()
    return -(-2 * int(wanted_shadows) * den // num)


def weight_leq_indices(m: int, d: int) -> list[int]:
    """Basis indices (ascending) of m-qubit strings with Hamming weight <= d."""
    if not (0 <= d <= m):
        raise ValueError("need 0 <= d <= m")
    return _flip_schedule(m, d)[2].tolist()


# --- oracle handle ---------------------------------------------------------


class StateOracle:
    """Single-threaded handle dispensing measurement results on a hidden state.

    It holds the state, validated when it was built, as its factor ``rho``
    on ``n`` qubits.  ``backend`` is ``"exact"`` (ground truth + noise of
    strength up to ``noise_opnorm``) or ``"sampling"`` (simulated single-copy
    measurements, which refuses a positive ``noise_opnorm`` rather than
    ignore it, and any call above SHOT_BUDGET shots).  ``copies_consumed``
    counts every copy any estimator has used; it only grows, and both
    backends charge the same documented formulas.
    """

    def __init__(self, hidden: QuantumState, backend: str = "exact", seed: int = 0,
                 noise_opnorm: float = 0.0):
        if backend not in ("exact", "sampling"):
            raise ValueError(f"unknown backend {backend!r}")
        if noise_opnorm < 0:
            raise ValueError("noise_opnorm must be >= 0")
        if backend == "sampling" and noise_opnorm > 0:
            raise ValueError("noise_opnorm applies to the exact backend only; the "
                             "sampling backend's error is its shot noise")
        self.rho = _operator(hidden)
        self.n = hidden.n
        self.backend = backend
        self.noise_opnorm = float(noise_opnorm)
        self.copies_consumed = 0
        self._rng = np.random.default_rng(int(seed))
        # estimate_z's last frame read (`_frame_read`) and the key of its frame.
        self._frame_key: bytes | None = None
        self._frame: FactoredDensity | None = None
        # subnormalized_tomography's last window-map stack (`_chain_read`): the
        # bytes of each map, and the factor after them.
        self._chain_keys: list[bytes] | None = None
        self._chain: FactoredDensity | None = None

    def _charge(self, copies: int) -> None:
        self.copies_consumed += int(copies)

    def _check_shots(self, shots: int) -> None:
        if self.backend == "sampling" and shots > SHOT_BUDGET:
            raise ResourceBudgetError(
                f"sampling call needs {shots} copies, above the {SHOT_BUDGET} budget")

    def _noise_scale(self, eps: float) -> float:
        """Magnitude of the injected error on the exact backend (0 disables it)."""
        if self.noise_opnorm == 0.0:
            return 0.0
        return min(eps, self.noise_opnorm) * float(self._rng.uniform())


# --- shared internals ------------------------------------------------------


def _frame_read(o: StateOracle, us: np.ndarray) -> FactoredDensity:
    """`estimate_z`'s read in the frame of the (n, 2, 2) stack us: the factor of its n+1 rows.

    The rows <0^n| U, <e_i| U are `states._frame_rows` at d = 1.  The oracle
    keeps the last read, keyed by the bytes of us, so the rungs of a ladder
    on one frame read the state once.
    """
    key = us.tobytes()
    if key != o._frame_key:
        o._frame_key, o._frame = key, _frame_rows(o.rho, us, 1)[0]
    return o._frame


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


# Eigenvalues of a unit-trace sigma below this are taken as the rounding of
# a zero: clipping them keeps sigma^(1/2), whose square root would blow a
# 1e-17 eigenvalue up to 3e-9, at rounding distance from its exact value.
_SHADOW_ZERO = 1e-10


def _shadow_basis(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cdf, cols): sigma's cumulative normalized diagonal and the unit columns of sigma^(1/2).

    With v_j the unit column j of R = sigma^(1/2), sigma = R R = sum_j
    sigma_jj v_j v_j*, so measuring sigma is measuring the pure state v_j for
    j drawn with probability sigma_jj.  R is a function of sigma, not of the
    eigenbasis `eigh` returns, so a rounding-level change of sigma moves
    every seeded draw at rounding level, inside a degenerate eigenspace too.
    """
    vals, vecs = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
    vals[vals < _SHADOW_ZERO] = 0.0
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    weights = np.einsum("ij,ij->j", root.conj(), root).real
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf, root / np.sqrt(np.where(weights > 0.0, weights, 1.0))


def _shadow_coord_chunks(rng: np.random.Generator, cdf: np.ndarray, cols: np.ndarray,
                         shots: int):
    """Computational-basis coordinates of the rows u that measuring sigma records.

    Measuring the pure state v in a Haar-random basis gives the row u its
    outcome projects onto the Haar law reweighted by dim |<v|u>|^2.  A shot
    picks j by `cdf` and takes v = cols[:, j] (see `_shadow_basis`), draws
    g ~ CN(0, I), raises the component h = <v|g> so that |h|^2 grows by 2E,
    E ~ Exp(1), keeping its phase, and takes u = g / |g|.  This is exact: in
    any orthonormal basis g is CN(0, I), the |g_k|^2 / 2 are Exp(1), whose
    normalized values are the Haar squared moduli, and the weight |<v|u>|^2
    makes the v-coordinate a Gamma(2) with a uniform phase.

    The draws come SHADOW_CHUNK shots at a time, in the same order whatever
    the block size; the arithmetic then runs in place on blocks of at most
    SHADOW_BLOCK rows of the chunk, so each shot's row depends only on its own
    draws.  Yields arrays of shape (<= SHADOW_BLOCK, dim) that together hold
    `shots` shots.
    """
    dim = cdf.shape[0]
    rows = cols.T
    conj_rows = rows.conj()
    for done in range(0, shots, SHADOW_CHUNK):
        b = min(SHADOW_CHUNK, shots - done)
        picks = cdf.searchsorted(rng.random(b), side="right")
        chunk = rng.standard_normal((b, 2 * dim)).view(complex)
        extra = 2.0 * rng.standard_exponential(b)
        for lo in range(0, b, SHADOW_BLOCK):
            block = slice(lo, lo + SHADOW_BLOCK)
            g, pick = chunk[block], picks[block]
            h = np.einsum("ij,ij->i", conj_rows.take(pick, axis=0), g)
            grow = np.sqrt(1.0 + extra[block] / (h.real ** 2 + h.imag ** 2))
            g += rows.take(pick, axis=0) * (h * (grow - 1.0))[:, None]
            flat = g.view(float)
            flat /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
            yield g
        del chunk, g, flat  # hold one drawn chunk, not two, through the next draw


def _shadow_mean(rng: np.random.Generator, sigma: np.ndarray, shots: int) -> np.ndarray:
    """The mean of the shadow matrices (dim+1)|u><u| - I over `shots` shots of sigma.

    Each block of rows `_shadow_coord_chunks` yields adds its Gram into one
    dim x dim sum while it is still in cache, so no more than a drawn chunk
    of rows is held and memory stays O(SHADOW_CHUNK * dim) whatever the shot
    count.
    """
    dim = sigma.shape[0]
    cdf, cols = _shadow_basis(sigma)
    total = np.zeros((dim, dim), dtype=complex)
    for rows in _shadow_coord_chunks(rng, cdf, cols, shots):
        total += rows.T @ rows.conj()
        del rows  # a view of the drawn chunk: release it before the next draw
    return (dim + 1) / shots * total - np.eye(dim)


def _project_psd(mat: np.ndarray) -> np.ndarray:
    """Hermitize, lower the spectrum by the least x >= 0 that brings its clipped sum to <= 1, clip.

    x is 0 when clipping alone leaves trace <= 1.  The result is mat's
    Frobenius projection onto the convex set {B psd, tr B <= 1}: the
    eigenvalues go to their Euclidean projection onto {v >= 0, sum v <= 1},
    and the dropped anti-Hermitian part is orthogonal to every Hermitian B.
    So ||result - B||_F <= ||mat - B||_F for every B in the set.

    In operator norm, if ||mat - B|| <= e for a PSD B of trace <= 1, the
    result is within 2e of B: by Weyl tr((mat - e I)_+) <= tr(B) <= 1, so
    x <= e; with C = mat - x I, C - B <= C_+ - B = (C - B) + C_-, where
    C - B lies in [-e - x, e - x] and ||C_-|| <= e + x.
    """
    h = (mat + mat.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(h)
    if np.clip(vals, 0.0, None).sum() > 1.0:
        top = vals[::-1]
        shifts = (np.cumsum(top) - 1.0) / np.arange(1, len(top) + 1)
        vals = vals - shifts[top > shifts][-1]
    np.clip(vals, 0.0, None, out=vals)
    return (vecs * vals) @ vecs.conj().T


def _random_hermitian_unit(rng: np.random.Generator, dim: int, norm: str) -> np.ndarray:
    """Random Hermitian matrix normalized to unit operator ("op") or trace ("tr") norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    mags = np.abs(np.linalg.eigvalsh(h))
    h /= mags.max() if norm == "op" else mags.sum()
    return h


# --- estimators ------------------------------------------------------------


def estimate_z(o: StateOracle, basis: list[np.ndarray], eps: float, delta: float) -> np.ndarray:
    """Estimate the first-excitation amplitude vector in the rotated frame.

    With U the product of the per-site `basis` unitaries and rho' = U rho U*,
    the target is z_i = <e_i| rho' |0^n>.  Returns a vector within l2 distance
    eps of z with probability >= 1 - delta (always, on the exact backend with
    zero noise).

    The sampling backend reads z as entries (1..n, 0) of the shadow mean on
    the (n+2)-dim compressed register, a part of one column, so its l2 error
    is at most the mean's operator-norm error, eps w.p. 1 - delta at
    `bernstein_shots(n + 2, eps, delta)` shots.

    The state is read one site at a time, at O(2^n r) time and memory, into
    the factor (Y, c) of the n+1 frame rows (`_frame_read`): the exact
    backend takes z = Y[1:] conj(Y[0]) (c adds nothing off the diagonal),
    and the sampling backend measures its `_sandwich`.  Consecutive calls in
    one frame share that read; each call still charges its copies and draws
    its noise or shots as a call with a fresh read would.  On a state with a
    shift, a basis that is not unitary raises ValueError
    (`states._check_rotations`) before any copy is drawn.

    Copies: z_copy_cost(n, eps, delta) on both backends.
    """
    _check_unit_interval(eps, "eps")
    _check_unit_interval(delta, "delta")
    n = o.n
    us = np.array(basis, dtype=complex)
    if us.shape != (n, 2, 2):
        raise ValueError("need one single-site unitary per site")
    copies = z_copy_cost(n, eps, delta)

    if o.backend == "exact":
        y = _frame_read(o, us).factor
        z = y[1:] @ y[0].conj()
        o._charge(copies)
        scale = o._noise_scale(eps)
        if scale == 0.0:
            return z
        return z + scale * haar_state(n, o._rng)

    o._check_shots(copies)
    mean = _shadow_mean(o._rng, _with_junk_slot(_sandwich(_frame_read(o, us))), copies)
    o._charge(copies)
    return mean[1: n + 1, 0]


def subspace_tomography(o: StateOracle, prefix_m: int, d: int, eps: float,
                        delta: float, frame=None) -> np.ndarray:
    """Estimate the low-excitation block of the first-`prefix_m`-sites marginal.

    Returns the W x W block of rho_[m] on the W strings of Hamming weight
    <= d, in `weight_leq_indices` order: PSD, of trace <= 1, and within
    operator-norm eps of the true block w.p. 1 - delta.  `frame`, a stack of
    m single-site unitaries U_i, measures U rho_[m] U* instead, U = (x) U_i;
    None is the identity frame.  A stack of another shape, or not unitary on
    a state with a shift (`states._check_rotations`), raises ValueError, and
    a block above states.DENSE_BUDGET ResourceBudgetError, before any copy is
    drawn.  The W rows <b| U are read off the marginal's factor site by
    site (`states._frame_rows`); no rotated copy of the marginal is formed.
    In the identity frame they are rows of the marginal's factor, which the
    whole block (d = m) reads in place.  Either way the block is
    `states._sandwich` of the selected rows, the marginal's shift included.

    The sampling backend averages the (W+1)-dim compressed register's
    shadows to operator-norm eps/2 w.p. 1 - delta; their W x W block is as
    close to the target, and `_project_psd` at most doubles the error.  The
    exact backend's noise is likewise at most eps/2 before `_project_psd`.

    Copies: tomography_copy_cost(W + 1, eps, delta) on both backends.
    """
    _check_unit_interval(eps, "eps")
    _check_unit_interval(delta, "delta")
    n = o.n
    if not (1 <= prefix_m <= n):
        raise ValueError("prefix_m out of range")
    if not (0 <= d <= prefix_m):
        raise ValueError("d out of range")
    if frame is not None:
        us = np.asarray(frame, dtype=complex)
        if us.shape != (prefix_m, 2, 2):
            raise ValueError(f"frame needs shape ({prefix_m}, 2, 2), got {us.shape}")
    idx = weight_leq_indices(prefix_m, d)
    w = len(idx)
    check_dense_budget((w, w))
    copies = tomography_copy_cost(w + 1, eps, delta)
    read = _marginal(o.rho, n, range(prefix_m))
    if frame is None:
        rows = idx if d < prefix_m else slice(None)
    else:
        read, rows = _frame_rows(read, us, d)
    block = _sandwich(FactoredDensity(read.factor[rows], read.shift))

    if o.backend == "exact":
        o._charge(copies)
        scale = o._noise_scale(eps / 2.0)
        if scale == 0.0:
            return block
        return _project_psd(block + scale * _random_hermitian_unit(o._rng, w, "op"))

    o._check_shots(copies)
    est = _shadow_mean(o._rng, _with_junk_slot(block), copies)[:w, :w]
    o._charge(copies)
    return _project_psd(est)


def _frame_maps(frame, n: int, zeroed_prefix: int) -> tuple[list[np.ndarray], int]:
    """(maps, w): the chain of maps (`states._apply_chain`) that `frame` takes the
    register through, and the w leading sites of the n - i left that it measures.

    None projects the first i = zeroed_prefix sites onto zero; a dense row
    block is one map, its leading 2^(n-i) rows; both measure w = n - i.  A
    stack of k-site window maps is its maps in order, as complex arrays
    (their bytes key the oracle's kept chain), w = min(k, n - i).
    """
    suffix = n - zeroed_prefix
    if frame is None:
        return ([np.eye(1, 2**zeroed_prefix)] if zeroed_prefix else []), suffix
    frame = np.asarray(frame)
    if frame.ndim == 3:
        steps, rows, cols = frame.shape
        kappa = cols.bit_length() - 1
        if not (rows >= 1 and cols == 2 * rows == 1 << kappa and steps == zeroed_prefix
                and kappa <= suffix + 1):
            raise ValueError(f"window maps need shape ({zeroed_prefix}, 2^(k-1), 2^k) with "
                             f"1 <= k <= {suffix + 1}, got shape {frame.shape}")
        return list(frame.astype(complex, copy=False)), min(kappa, suffix)
    if frame.ndim != 2 or frame.shape[0] < 2**suffix or frame.shape[1] != 2**n:
        raise ValueError(f"frame needs {2**n} columns and at least {2**suffix} rows, got "
                         f"shape {frame.shape}")
    return [frame[:2**suffix]], suffix


def _chain_read(o: StateOracle, frame, maps) -> tuple[FactoredDensity, tuple]:
    """(rho, slot): o's factor mapped through `maps`, and the kept chain
    (keys, factor) that `subnormalized_tomography` stores once it returns.

    A window-map stack that starts with the kept one maps the kept factor
    through its new maps alone (`states._mapped`); since `_apply_chain`
    applies maps one at a time, that is bit for bit the fresh read.  Any
    other stack maps o.rho and is kept; None and a dense row block map o.rho
    and keep nothing.
    """
    if frame is None or np.ndim(frame) != 3:
        return _mapped(o.rho, maps), (o._chain_keys, o._chain)
    keys = [m.tobytes() for m in maps]
    kept = o._chain_keys
    if kept is not None and keys[:len(kept)] == kept:
        rho = _mapped(o._chain, maps[len(kept):])
    else:
        rho = _mapped(o.rho, maps)
    return rho, (keys, rho)


def _exact_window(o: StateOracle, block: np.ndarray, mu: float, n_mu: int, wanted: int,
                  eps: float) -> np.ndarray:
    """`subnormalized_tomography`'s exact read: `block`, of trace mu, with its charge and noise."""
    if mu <= 0.0:
        o._charge(n_mu)
        return np.zeros_like(block)
    o._charge(n_mu + subnormalized_attempts(wanted, mu))
    scale = o._noise_scale(eps)
    if scale == 0.0:
        return block
    noisy = block + scale * _random_hermitian_unit(o._rng, len(block), "tr")
    return _project_psd(noisy)


def _sampled_window(o: StateOracle, block: np.ndarray, n_mu: int, wanted: int) -> np.ndarray:
    """`subnormalized_tomography`'s sampled read of `block`: a rate, then window shadows."""
    # The shadows sample block / mu, so mu is the trace of the block itself.
    mu = float(np.real(np.trace(block)))
    o._check_shots(n_mu)
    mu = min(max(mu, 0.0), 1.0)
    mu_hat = o._rng.binomial(n_mu, mu) / n_mu
    if mu_hat <= 0.0:
        o._charge(n_mu)
        return np.zeros_like(block)
    attempts = subnormalized_attempts(wanted, mu_hat)
    o._check_shots(n_mu + attempts)
    successes = int(o._rng.binomial(attempts, mu))
    o._charge(n_mu + attempts)
    shots = min(wanted, successes)
    if shots == 0 or mu == 0.0:
        return np.zeros_like(block)
    return mu_hat * _project_psd(_shadow_mean(o._rng, block / mu, shots))


def subnormalized_tomography(o: StateOracle, frame: np.ndarray | None, zeroed_prefix: int,
                             eps: float, delta: float) -> np.ndarray:
    """Estimate the window left after projecting the first sites onto zero.

    With rho' the hidden state conjugated by `frame` and i = zeroed_prefix,
    the suffix block is (<0^i| (x) I) rho' (|0^i> (x) I), a PSD matrix on the
    remaining n - i sites with trace mu <= 1.  The target sigma is that block
    reduced to its first w sites, the window the frame measures: a PSD
    matrix of trace mu on d = 2^w dimensions.  The estimate is within
    trace-norm eps of sigma with probability >= 1 - delta.

    Frame contract: `frame` is None (no rotation) or an ndarray, either
    * a dense row block with 2^n columns and at least 2^(n-i) rows, of which
      only the leading 2^(n-i), the |0^i>-prefix rows of the rotation, are
      read, as rows rho rows*; so a full 2^n x 2^n unitary and its leading
      row block give identical results; or
    * a stack of i window maps of shape (i, 2^(k-1), 2^k), k <= n - i + 1:
      map j takes the leading k sites of the n - j + 1 sites the maps before
      it left to k - 1 sites, and the composed rows are those maps in order.
    A stack measures w = min(k, n - i) sites; None and a row block all n - i.
    Either way the frame is rows of a rotation: on a mixed state with a
    shift c > 0, maps whose rows are not orthonormal raise ValueError
    before any copy is drawn (`states._mapped`).  Any other shape raises
    ValueError.  Both backends apply the maps to the state's factor and form
    only the 2^w x 2^w window; a window above states.DENSE_BUDGET
    raises ResourceBudgetError before any copy is drawn.

    The oracle keeps the factor after the last stack's maps
    (`_chain_read`), keyed by the bytes of each map.  A stack that starts
    with the kept one maps the kept factor through its new maps alone, and
    only those meet the shift rule, each the first time it is applied; a
    repeated stack maps nothing; a shorter or diverging stack reads the
    factor afresh.  None and a row block always read it afresh and leave
    the kept stack as it is, and so does a call that raises.  A kept read
    returns, charges and draws exactly what a fresh one would.

    Each copy is postselected on the zeroed prefix and only the window's
    w qubits are measured; the other suffix qubits are traced out at no
    cost.  The sampling backend estimates mu by the prefix success rate
    mu_hat, and the unit-trace window state tau = sigma / mu by
    `_project_psd` of the mean of `wanted` shadows; the result is
    mu_hat * tau_hat.  Its trace-norm error is at most
    |mu_hat - mu| + mu ||tau_hat - tau||_1 <= eps/2 + mu sqrt(d) ||tau_hat - tau||_F
    <= eps/2 + eps/2 w.p. 1 - delta: `_project_psd` moves the shadow mean no
    farther from tau in Frobenius norm (see `subnormalized_budget`).  A hunt
    that finds fewer than `wanted` prefix successes averages the shadows it
    has; with about 2 wanted mu / mu_hat of them, the weight mu absorbs the
    shortfall, and the rare hunt below mu wanted takes its share of delta
    from the window's delta/2 (see `subnormalized_budget`).

    Copies: n_mu + attempts with (n_mu, wanted) =
    subnormalized_budget(2^w, eps, delta) and attempts =
    subnormalized_attempts(wanted, mu_hat); the reported success rate mu_hat
    is the exact mu on the exact backend.  A zero rate returns the zero
    matrix after the n_mu rate-estimation copies.
    """
    _check_unit_interval(eps, "eps")
    _check_unit_interval(delta, "delta")
    n = o.n
    if not (0 <= zeroed_prefix < n):
        raise ValueError("zeroed_prefix out of range")
    maps, w = _frame_maps(frame, n, zeroed_prefix)
    dim = 2**w
    check_dense_budget((dim, dim))
    n_mu, wanted = subnormalized_budget(dim, eps, delta)
    rho, slot = _chain_read(o, frame, maps)
    block = _sandwich(_marginal(rho, n - zeroed_prefix, range(w)))
    if o.backend == "exact":
        est = _exact_window(o, block, rho.trace(), n_mu, wanted, eps)
    else:
        est = _sampled_window(o, block, n_mu, wanted)
    o._chain_keys, o._chain = slot
    return est


def estimate_fidelity(o: StateOracle, prefix_m: int, sites, eps: float,
                      delta: float) -> np.ndarray:
    """Estimate the overlaps of k product states with the first-`prefix_m`-sites marginal.

    `sites` is a (k, prefix_m, 2) stack of site vectors, one product state
    per row (`states.site_stack` builds it from parameters).  Each row is
    measured as one call: every copy in a product basis containing the
    candidate, so the outcome is a Bernoulli with mean <pi| rho_[m] |pi>,
    and the estimate is within eps with probability >= 1 - delta.  Rows are
    shot-checked, charged and noised in order, so k rows charge and draw
    exactly what k one-row calls would, and k = 0 charges and draws nothing.
    The exact overlaps read the marginal's factor once, site by site
    (`states._overlaps`), forming no 2^prefix_m product row.

    Copies: fidelity_copy_cost(eps, delta) per row, on both backends.
    """
    _check_unit_interval(eps, "eps")
    _check_unit_interval(delta, "delta")
    n = o.n
    if not (1 <= prefix_m <= n):
        raise ValueError("prefix_m out of range")
    sites = np.asarray(sites, dtype=complex)
    if sites.ndim != 3 or sites.shape[1:] != (prefix_m, 2):
        raise ValueError("site vectors must be a (k, prefix_m, 2) stack covering exactly "
                         "the measured prefix")
    copies = fidelity_copy_cost(eps, delta)
    f = np.clip(_overlaps(_marginal(o.rho, n, range(prefix_m)), sites), 0, 1)

    for j, fj in enumerate(f):
        if o.backend == "sampling":
            o._check_shots(copies)
            f[j] = o._rng.binomial(copies, fj) / copies
        else:
            scale = o._noise_scale(eps)
            if scale:
                f[j] = min(max(fj + scale * (1.0 if o._rng.uniform() < 0.5 else -1.0), 0.0),
                           1.0)
        o._charge(copies)
    return f
