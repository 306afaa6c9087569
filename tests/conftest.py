"""Shared pytest hooks (acceptance-criteria summary lines), random product parameters,
the test-only state readers (product fidelity, excitation weights, Schmidt rank,
partial trace, Hamming weights of basis strings),
the test-only state constructors (GHZ, W, Bell, maximally mixed, diagonal,
mixtures),
the dense density-matrix references (`dense_mixed` in, `density` out),
the sitewise rotation (`apply_sites`) and the single-flip frame read,
dense test references, the brute-force grid and multistart oracles, the
spectral-norm oracle's previous half-step kernel, the dense
product-fidelity sweep, the local optimizer's certified fidelity ceiling, the
complex power-row polynomial evaluator and the per-support polynomial search,
the cover audit, the dense per-root cover cut, the per-member discrete learner, the
half-register oracle built through a validated state, the whole-chunk shadow
sampler, and the reference JSON pair codec."""

import math
from itertools import combinations

import numpy as np
from scipy.optimize import minimize

from prodstate.errors import PromiseViolationError, ResourceBudgetError
from prodstate.discrete import member_vector
from prodstate.hardness import _MAX_STEPS, _rise_bounds
from prodstate.mps import MatrixProductState
from prodstate.oracle import (
    SHADOW_CHUNK,
    StateOracle,
    _frame_maps,
    _frame_read,
    _shadow_basis,
    _shadow_coord_chunks,
    _with_junk_slot,
    estimate_fidelity,
    subnormalized_attempts,
    subnormalized_budget,
)
from prodstate.polyopt import (
    PolySystem,
    _certainly_empty,
    _orthonormal_columns,
    effective_subspace,
    evaluate_poly,
)
from prodstate.states import (
    DEFAULT_ATOL,
    FactoredDensity,
    ProductParams,
    QuantumState,
    _mapped,
    _marginal,
    _operator,
    _sandwich,
    check_dense_budget,
    _site_vector,
    fidelity,
    haar_isometry,
    haar_product_params,
    haar_state,
    product_state_vector,
    product_unitary,
    product_vectors,
    recenter_unitaries,
    site_stack,
    tangent_distance,
    vector_to_params,
)


def random_product_params(rng: np.random.Generator, n: int, scale: float = 1.0) -> ProductParams:
    """Parameters drawn uniformly from the complex disk of radius scale, per site."""
    radii = scale * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return ProductParams(tuple(radii * np.exp(1j * angles)))


def product_fidelity(p: ProductParams, q: ProductParams) -> float:
    """|<pi_p|pi_q>|^2 computed sitewise (cheap at any n)."""
    if p.n != q.n:
        raise ValueError("parameter vectors must have the same number of sites")
    log_f = 0.0
    for z, a in zip(p.z, q.z):
        overlap_sq = abs(1.0 + z.conjugate() * a) ** 2 / ((1.0 + abs(z) ** 2) * (1.0 + abs(a) ** 2))
        if overlap_sq == 0.0:
            return 0.0
        log_f += math.log(overlap_sq)
    return math.exp(log_f)


def excitation_probs(p: ProductParams) -> np.ndarray:
    """Per-site probability |z_i|^2/(1+|z_i|^2) of measuring 1 on site i."""
    mags = np.abs(p.asarray()) ** 2
    return mags / (1.0 + mags)


def mean_excitation(p: ProductParams) -> float:
    """Expected Hamming weight mu = sum_i |z_i|^2/(1+|z_i|^2) of a measurement."""
    return float(excitation_probs(p).sum())


def weight_distribution(site_probs) -> np.ndarray:
    """Distribution of the total weight for independent per-site 1-probabilities."""
    dist = np.array([1.0])
    for q in np.asarray(site_probs, dtype=float):
        dist = np.convolve(dist, [1.0 - q, q])
    return dist


def hamming_weights(n: int) -> np.ndarray:
    """Number of 1 bits of every n-qubit basis index (site 1 most significant)."""
    idx = np.arange(2**n)
    weights = np.zeros(2**n, dtype=np.int64)
    for site in range(n):
        weights += (idx >> (n - 1 - site)) & 1
    return weights


def schmidt_rank(s: QuantumState, cut: int, tol: float = 1e-10) -> int:
    """Number of Schmidt coefficients above tol across sites [1..cut]|[cut+1..n]."""
    if s.kind != "pure":
        raise ValueError("Schmidt rank is defined for pure states")
    if not 1 <= cut < s.n:
        raise ValueError("cut must split the register into two nonempty parts")
    mat = s.data.reshape(2**cut, -1)
    sing = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sing > tol))


def partial_trace(matrix: np.ndarray, n: int, keep) -> np.ndarray:
    """Partial trace of an n-qubit density matrix, keeping the listed sites.

    keep is an iterable of 0-based site indices in increasing order.
    """
    keep = list(keep)
    if keep != sorted(set(keep)) or any(not 0 <= k < n for k in keep):
        raise ValueError("keep must be strictly increasing valid site indices")
    tensor = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * n))
    drop = [site for site in range(n) if site not in keep]
    m = n
    for site in sorted(drop, reverse=True):
        tensor = np.trace(tensor, axis1=site, axis2=site + m)
        m -= 1
    side = 2 ** len(keep)
    return tensor.reshape(side, side)


def w_state(n: int) -> QuantumState:
    """Uniform superposition of the n weight-1 basis strings."""
    if n < 2:
        raise ValueError("need n >= 2")
    vec = np.zeros(2**n, dtype=complex)
    for i in range(n):
        vec[2 ** (n - 1 - i)] = 1.0 / math.sqrt(n)
    return QuantumState.pure(vec)


def ghz_state(n: int) -> QuantumState:
    """(|0...0> + |1...1>)/sqrt(2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = vec[-1] = 1.0 / math.sqrt(2.0)
    return QuantumState.pure(vec)


def bell_state() -> QuantumState:
    """(|00> + |11>)/sqrt(2)."""
    return ghz_state(2)


def maximally_mixed(n: int) -> QuantumState:
    """I/2^n: the factor with no columns and shift 1/2^n."""
    dim = 2**n
    return QuantumState.mixed(FactoredDensity(np.zeros((dim, 0), dtype=complex), 1.0 / dim))


def diagonal_state(probs) -> QuantumState:
    """The mixed state diag(probs), as the factor diag(sqrt(probs))."""
    return QuantumState.mixed(FactoredDensity(np.diag(np.sqrt(probs)).astype(complex)))


def dense_mixed(matrix) -> QuantumState:
    """A mixed state from a dense Hermitian PSD unit-trace matrix, stored as its eigh factor.

    The reference for a test whose rho is no known mixture.  One eigh gives
    the check and the factor V sqrt(lam) with shift 0: the columns keep the
    eigenvalues lam above the numerical-rank cutoff dim * eps * max(lam), so
    a rank-r input gets r columns.
    """
    data = np.array(matrix, dtype=complex)
    dim = data.shape[0]
    if data.shape != (dim, dim):
        raise ValueError(f"density matrix needs shape ({dim},{dim})")
    check_dense_budget((dim, dim))
    if np.max(np.abs(data - data.conj().T)) > DEFAULT_ATOL:
        raise ValueError("density matrix is not Hermitian")
    eigs, vecs = np.linalg.eigh((data + data.conj().T) / 2)
    if eigs.min() < -DEFAULT_ATOL:
        raise ValueError("density matrix has a negative eigenvalue")
    if abs(np.trace(data).real - 1.0) > DEFAULT_ATOL:
        raise ValueError("density matrix trace differs from 1")
    kept = eigs > eigs[-1] * dim * np.finfo(float).eps
    return QuantumState.mixed(FactoredDensity(vecs[:, kept] * np.sqrt(eigs[kept])))


def mixture(weight: float, psi: np.ndarray, rest: QuantumState) -> QuantumState:
    """weight |psi><psi| + (1 - weight) rest, written as its factor.

    The factor stacks sqrt(weight) psi beside sqrt(1 - weight) W for rest's
    factor W (psi itself for a pure rest), with shift (1 - weight) c.
    """
    rho = _operator(rest)
    w = np.hstack([math.sqrt(weight) * psi[:, None], math.sqrt(1.0 - weight) * rho.factor])
    return QuantumState.mixed(FactoredDensity(w, (1.0 - weight) * rho.shift))


def density(state: QuantumState) -> np.ndarray:
    """The state's dense density matrix (outer product for a pure state), within DENSE_BUDGET."""
    check_dense_budget((state.dim, state.dim))
    if state.kind == "pure":
        return np.outer(state.data, state.data.conj())
    return operator_matrix(state.data)


def operator_matrix(rho: FactoredDensity) -> np.ndarray:
    """The dense matrix W W* + c I of a factored operator."""
    w = rho.factor
    out = w @ w.conj().T
    out[np.diag_indices_from(out)] += rho.shift
    return out


def haar_unitary(dim, rng):
    """A Haar-random dim x dim unitary: the square case of `haar_isometry`."""
    return haar_isometry(dim, dim, rng)


def tuple_overlap(t, x, y, u, v) -> complex:
    """Hilbert-Schmidt overlap <x (x) y (x) u (x) v, T> of a `Tensor4`."""
    return complex(np.einsum("ijkl,i,j,k,l", t.entries,
                             np.conj(x), np.conj(y), np.conj(u), np.conj(v)))


def apply_product_unitary(state, unitaries):
    """The state rotated by the dense Kronecker product of `unitaries`."""
    full = product_unitary(unitaries)
    if state.kind == "pure":
        return QuantumState.pure(full @ state.data)
    return QuantumState.mixed(FactoredDensity(full @ state.data.factor, state.data.shift))


def exact_z(state, basis=None):
    """Ground-truth amplitude vector z_i = <e_i| U rho U* |0^n>, from the dense U."""
    n = state.n
    rho = density(state)
    if basis is None:
        col = rho[:, 0]
    else:
        u = product_unitary(list(basis))
        col = u @ (rho @ u[0, :].conj())
    return np.array([col[1 << (n - 1 - i)] for i in range(n)])


def window_charge(state, frame, zeroed_prefix, keep, eps, delta):
    """(copies, mu): the exact backend's `subnormalized_tomography` charge at dimension 2^keep.

    mu is the suffix block's trace as the oracle forms it, the trace of the
    mapped factor.  The trace of the returned window agrees with it only to
    rounding, and once the wanted shadows near 1e15 a rounding-level change
    of mu moves ceil(2 wanted / mu).
    """
    mu = _mapped(_operator(state), _frame_maps(frame, state.n, zeroed_prefix)[0]).trace()
    n_mu, wanted = subnormalized_budget(2**keep, eps, delta)
    return (n_mu + subnormalized_attempts(wanted, mu) if mu > 0.0 else n_mu), mu


def fidelity_upper_bound(alpha2: float, norm_z: float, c: float) -> float:
    """Certified ceiling on every product-state fidelity from one measurement frame.

    With alpha2 = <0^n| rho |0^n> = 2/3 + c for some c > 0 and norm_z the l2
    norm of the first-excitation amplitude vector in that frame, no product
    state has fidelity above alpha2 + min(3 * norm_z, norm_z^2 / c): the
    bound behind `local_optimize`'s stopping rule.
    """
    if c <= 0.0:
        raise ValueError("the bound requires the candidate fidelity to exceed 2/3")
    return alpha2 + min(3.0 * norm_z, norm_z * norm_z / c)


def exact_prefix_fidelity(rho, cls, member):
    """Exact fidelity of a prefix member against the matching marginal."""
    m = len(member)
    vec = member_vector(cls, member)
    reduced = partial_trace(density(rho), rho.n, range(m))
    return float(np.real(np.vdot(vec, reduced @ vec)))


def _effective_site_operator(rho_tensor: np.ndarray, sites: list[np.ndarray], i: int) -> np.ndarray:
    """The 2x2 operator E with <a|E|b> = <v_-i, a| rho |v_-i, b> at site i."""
    n = len(sites)
    t = rho_tensor
    # Contract column sites j != i with v_j, then row sites j != i with conj(v_j).
    # Both loops run in decreasing j, so earlier removals never shift later axes.
    for j in reversed(range(n)):
        if j == i:
            continue
        t = np.tensordot(t, sites[j], axes=([n + j], [0]))
    for j in reversed(range(n)):
        if j == i:
            continue
        t = np.tensordot(sites[j].conj(), t, axes=([0], [j]))
    return t.reshape(2, 2)


def reference_best_product_fidelity(state: QuantumState, restarts: int = 12, sweeps: int = 300,
                                    tol: float = 1e-12,
                                    seed: int = 0) -> tuple[float, ProductParams]:
    """`bruteforce.best_product_fidelity` on the dense 2n-axis tensor of `density(state)`."""
    rng = np.random.default_rng(seed)
    rho = density(state)
    n = state.n
    rho_tensor = rho.reshape((2,) * (2 * n))
    best_val, best_sites = -1.0, None
    for start in range(restarts):
        if start == 0:
            sites = []
            for i in range(n):
                local = partial_trace(rho, n, [i])
                _, vecs = np.linalg.eigh(local)
                sites.append(vecs[:, -1])
        else:
            sites = [haar_state(2, rng) for _ in range(n)]
        val = 0.0
        for _ in range(sweeps):
            prev = val
            for i in range(n):
                eff = _effective_site_operator(rho_tensor, sites, i)
                eff = (eff + eff.conj().T) / 2.0
                _, vecs = np.linalg.eigh(eff)
                sites[i] = vecs[:, -1]
                val = float(np.real(sites[i].conj() @ eff @ sites[i]))
            if val - prev < tol:
                break
        if val > best_val:
            best_val, best_sites = val, [s.copy() for s in sites]
    return min(max(best_val, 0.0), 1.0), vector_to_params(best_sites)


def reference_spectral_norm(t, restarts, seed):
    """The best value over `restarts` power iterations from the oracle's seeded starts, one at a time.

    Restart j starts from the j-th of the seeded draws that
    `hardness.spectral_norm_oracle` takes, but is its own ascent: each
    half-step fixes two legs and takes both others at once from the top
    singular pair (an SVD) of the contracted matrix, while the oracle's
    `_leg_steps` updates one leg at a time, three times per half-step, on
    the tensor's multilinear-rank core, and drops restarts that cannot
    reach the best.
    Both climb to a stationary value, but from one start they may reach
    different local maxima, so the two agree on the best value only where
    some restart on each side reaches the same largest one.
    """
    rng = np.random.default_rng(seed)
    entries = t.entries
    best = 0.0
    for _ in range(restarts):
        vecs = rng.normal(size=(4, t.side)) + 1j * rng.normal(size=(4, t.side))
        x, y, u, v = (w / np.linalg.norm(w) for w in vecs)
        value = 0.0
        for _ in range(200):
            front = np.einsum("ijkl,k,l->ij", entries, np.conj(u), np.conj(v))
            left, sing, right = np.linalg.svd(front)
            x, y = left[:, 0], right[0]
            back = np.einsum("ijkl,i,j->kl", entries, np.conj(x), np.conj(y))
            left, sing, right = np.linalg.svd(back)
            u, v = left[:, 0], right[0]
            if sing[0] - value <= 1e-12 * max(1.0, value):
                value = float(sing[0])
                break
            value = float(sing[0])
        best = max(best, value)
    return best


def reference_alternating_max(unfolded, legs, best=0.0):
    """`hardness._alternating_max` with the half-step kernel it replaced, kept as its reference.

    Each half-step forms the fixed pair by broadcasting and multiplies it
    into the strided transpose of the unfolding; `_reference_leg_steps`
    normalizes all three of its updates, each through `np.linalg.norm` and a
    masked divide into a copy of the previous rows.  The iteration, starts,
    floor, drop rules and tally are the oracle's, so the two agree to rounding.
    """
    x, y, u, v = (w / np.linalg.norm(w, axis=1, keepdims=True) for w in legs)
    front, back = (x.shape[1], y.shape[1]), (u.shape[1], v.shape[1])
    value = np.zeros(len(x))
    prev = np.full(len(x), np.inf)
    tally = np.zeros(5, dtype=int)
    for step in range(_MAX_STEPS):
        tally[0] += 2
        pair = (u.conj()[:, :, None] * v.conj()[:, None, :]).reshape(len(u), -1)
        _, x, y = _reference_leg_steps((pair @ unfolded.T).reshape(-1, *front), x, y)
        pair = (x.conj()[:, :, None] * y.conj()[:, None, :]).reshape(len(x), -1)
        sing, u, v = _reference_leg_steps((pair @ unfolded).reshape(-1, *back), u, v)
        gain = sing - value
        done = gain <= 1e-12 * np.maximum(1.0, value)
        value = sing
        if done.any():
            best = max(best, float(value[done].max()))
        linear, geometric = _rise_bounds(gain, prev, _MAX_STEPS - 1 - step)
        floor = best + 1e-12 * max(1.0, best)
        by_linear = ~done & (value + linear <= floor)
        by_tail = ~done & ~by_linear & (value + geometric <= floor)
        tally[1:4] += done.sum(), by_linear.sum(), by_tail.sum()
        keep = ~(done | by_linear | by_tail)
        prev = gain
        if not keep.all():
            best = max(best, float(value[~keep].max()))
            x, y, u, v, value, prev = x[keep], y[keep], u[keep], v[keep], value[keep], prev[keep]
            if not len(value):
                return best, tally
    tally[4] += len(value)
    return max(best, float(value.max())), tally


def _reference_leg_steps(mats, x, y):
    """Exact updates of x, then y, then x again for the value |x^H M conj(y)|.

    With the other leg fixed, each update is the unit vector that maximizes
    the value, so it never decreases; a row whose image is zero keeps its
    previous unit vector.  Returns the final value s = ||M conj(y)|| and the
    unit rows x, y, with x^H M conj(y) = s.
    """
    x, _ = _reference_unit(np.einsum("bij,bj->bi", mats, y.conj()), x)
    y, _ = _reference_unit(np.einsum("bij,bi->bj", mats, x.conj()), y)
    x, sing = _reference_unit(np.einsum("bij,bj->bi", mats, y.conj()), x)
    return sing, x, y


def _reference_unit(rows, fallback):
    """Rows scaled to unit length, and their norms; zero rows take the fallback's."""
    norms = np.linalg.norm(rows, axis=1)
    unit = np.divide(rows, norms[:, None], out=fallback.copy(), where=norms[:, None] > 0.0)
    return unit, norms


def reference_membership_mask(dom, points, factor):
    """`OptDomain.membership_mask` by its three constraints, each always tested."""
    g = factor * dom.gamma
    shell = np.abs(np.linalg.norm(points, axis=1) - dom.nu) <= g
    flat = (np.abs(points) <= dom.mu + g).all(axis=1)
    pin = np.linalg.norm(points @ dom.a.T - dom.v, axis=1) <= g
    return shell & flat & pin


def reference_poly_values(sys, points):
    """f at each row of `points`: one power vector and one matrix product per
    degree, 10,000 rows at a time."""
    vals = np.full(points.shape[0], sys.constant, dtype=complex)
    for lo in range(0, points.shape[0], 10_000):
        block = points[lo:lo + 10_000]
        power = np.ones((len(block), 1), dtype=complex)
        for k, t in enumerate(sys.tensors, start=1):
            power = (power[:, :, None] * block[:, None, :]).reshape(len(block), -1)
            vals[lo:lo + 10_000] += (power.conj() * (power @ t.reshape(sys.n**k, -1).T)).sum(axis=1)
    return vals


def reference_evaluate_poly_batch(systems, points):
    """`polyopt.evaluate_poly_batch` on complex power rows: per degree k, the
    rows vec(conj(P_k) (x) P_k) of P_k = x^(x)k meet the stacked vec(M_k) of
    every system in one product."""
    group = [systems] if isinstance(systems, PolySystem) else list(systems)
    p, n = points.shape
    vals = np.tile(np.array([s.constant for s in group]), (p, 1))
    power = np.ones((p, 1), dtype=complex)
    for k in range(group[0].degree):
        power = (power[:, :, None] * points[:, None, :]).reshape(p, -1)
        rows = (power.conj()[:, :, None] * power[:, None, :]).reshape(p, -1)
        vals += rows @ np.stack([s.tensors[k].reshape(-1) for s in group], axis=1)
    return vals[:, 0] if isinstance(systems, PolySystem) else vals


def reference_ball_grid(q, radius, pitch):
    """Complex q-coordinates of the lattice of `pitch` inside the radius ball,
    filtered from the whole 2q-cube in lex order (real parts, then imaginary)."""
    steps = math.floor(radius / pitch)
    axis = np.arange(-steps, steps + 1) * pitch
    if q == 0:
        return np.zeros((1, 0), dtype=complex)
    total = len(axis) ** (2 * q)
    parts = []
    for start in range(0, total, 100_000):
        multi = np.unravel_index(np.arange(start, min(start + 100_000, total)),
                                 (len(axis),) * (2 * q))
        reals = axis[np.stack(multi, axis=1)]
        reals = reals[(reals**2).sum(axis=1) <= radius**2]
        parts.append(reals[:, :q] + 1j * reals[:, q:])
    return np.concatenate(parts)


def reference_support_nets(base, max_support, radius, spacing, budget):
    """(basis, coords) of each support's net, one support at a time.

    Supports S of at most `max_support` coordinates come in size-then-lex
    order; `basis` spans (base, axes of S) orthonormally, and `coords` is
    `reference_ball_grid` at pitch spacing / sqrt(2 max(q, 1)) in its q
    coordinates.  Before each net, the raw lattice points of every net so far
    are counted against `budget`, raising ResourceBudgetError above it.
    """
    n = base.shape[0]
    used = 0
    for size in range(min(n, max_support) + 1):
        for support in combinations(range(n), size):
            basis = _orthonormal_columns(
                np.concatenate([base, np.eye(n, dtype=complex)[:, list(support)]], axis=1))
            q = basis.shape[1]
            pitch = spacing / math.sqrt(2.0 * max(q, 1))
            used += (2 * math.floor(radius / pitch) + 1) ** (2 * q)
            if used > budget:
                raise ResourceBudgetError(f"nets need {used} grid points, above {budget}")
            yield basis, reference_ball_grid(q, radius, pitch)


def ambient_solve_constrained(sys, dom, eps, net_budget):
    """`solve_constrained` one support at a time on the ambient points B c:
    membership by `reference_membership_mask`, values by
    `reference_poly_values`, the same 1e-12 tie rule, and B c of its choice."""
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
    for basis, coords in reference_support_nets(wide, max_support, radius, dom.gamma,
                                                net_budget):
        points = coords @ basis.T
        mask = reference_membership_mask(dom, points, 2.0)
        vals = np.full(len(points), -math.inf)
        vals[mask] = np.abs(reference_poly_values(sys, points[mask]))
        top = vals.max(initial=-math.inf)
        if top > best_val + 1e-12:
            first = int(np.argmax(vals >= top - 1e-12))
            best_val, best_x = float(top), basis @ coords[first]
        if best_val >= ceiling - eps:
            break
    return best_x


def verify_cover(rho: QuantumState, cover, trials: int, rng_seed: int = 0) -> dict:
    """Audit the three properties of a `cover.Cover` against the exact state.

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


def apply_sites(ops, x) -> np.ndarray:
    """(op_1 ⊗ ... ⊗ op_n) applied to the leading axis of a vector or matrix x.

    ops[k] is an (r_k, d_k) matrix acting on site k+1 (site 1 most
    significant); it need not be square.  The leading axis of x must have
    length prod d_k; the result's has length prod r_k and any trailing axis
    is kept.  One contraction per site, so the dense Kronecker product is
    never formed.  K rho K* is apply_sites(ops, apply_sites(ops, rho).conj().T)
    conjugate-transposed.  The reference the rotations and frame reads are
    checked against.
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


def reference_flip_read(rho, us):
    """Y = rows W for the n + 1 rows <0^n| U, <e_i| U of the (n, 2, 2) stack us, all-zero row first.

    The d = 1 read that `states._frame_rows` generalises: W contracted one
    site at a time, the all-zero row and every earlier flipped row carried on
    with each site's row 0, and the site's row 1 on the all-zero row adding
    one flipped row per site.
    """
    x = rho.factor.reshape(1, -1)
    for u in us:
        x = x.reshape(len(x), 2, -1)
        out = np.empty((len(x) + 1, x.shape[2]), dtype=complex)
        np.matmul(u[0], x, out=out[:-1])
        np.matmul(u[1], x[0], out=out[-1])
        x = out
    return x


def reference_rotated_cut(truncation, units, d):
    """herm(U truncation U^dagger) cut to excitation weight <= d, U = ⊗ units,
    by two `apply_sites` passes over the whole matrix."""
    rotated = apply_sites(units, apply_sites(units, truncation).conj().T).conj().T
    keep = hamming_weights(len(units)) <= d
    cut = np.where(np.outer(keep, keep), rotated, 0.0)
    return 0.5 * (cut + cut.conj().T)


def reference_prepare_root(truncation, root, params):
    """(units, rho) of a dense per-root preparation: `truncation` rotated to the
    root's frame and cut to weight <= params.degree(m), the matrix on which
    `cover._polish`'s purchase-frame scores must agree with `reference_overlap`."""
    units = recenter_unitaries(root)
    return units, reference_rotated_cut(truncation, units, params.degree(root.n))


def reference_overlap(rho, points):
    """<pi_z| rho |pi_z> for each parameter row z, on a matrix in the rows' own frame."""
    scale = 1.0 / np.sqrt(1.0 + np.abs(points) ** 2)
    amps = product_vectors(np.stack([scale, scale * points], axis=-1))
    return np.real(((amps @ rho.T) * amps.conj()).sum(axis=1))


def reference_kron(vectors):
    """The Kronecker product of site vectors, grown by one np.kron per site."""
    vec = np.array([1.0 + 0.0j])
    for v in vectors:
        vec = np.kron(vec, v)
    return vec


def reference_product_state_vector(p):
    """`product_state_vector` by the np.kron loop it replaced."""
    return QuantumState.pure(reference_kron(_site_vector(z) for z in p.z))


def reference_member_vector(cls, member):
    """`discrete.member_vector` by the np.kron loop it replaced."""
    return reference_kron(cls.site_states[site][idx] for site, idx in enumerate(member))


def reference_discrete_learn(o, cls, eta, eps, delta):
    """`discrete.discrete_learn` by one one-row `estimate_fidelity` call per
    candidate, each read through its parameters, with the survivor guard run
    after every call: the per-member loop one call per prefix level replaced."""
    n, s = cls.n, cls.s
    spread = math.log(1.0 / cls.gamma)
    log_base = math.log(10.0 * n * s)
    log_calls = math.log(20.0 / eta) / spread * log_base
    delta_call = delta * math.exp(-min(max(log_calls, 0.0), 690.0))
    log_guard = math.log(4.0) + math.log(2.0 / (eta - eps)) / spread * log_base
    survivors = [()]
    for m in range(1, n + 1):
        new = []
        for prefix in survivors:
            for idx in range(len(cls.site_states[m - 1])):
                member = prefix + (idx,)
                sites = [cls.site_states[k][i] for k, i in enumerate(member)]
                (est,) = estimate_fidelity(o, m, site_stack([vector_to_params(sites)]),
                                           eps / 2.0, delta_call)
                if est >= eta - eps / 2.0:
                    if math.log(len(new) + 1.0) > log_guard:
                        raise PromiseViolationError(f"prefix-{m} survivor count exceeded")
                    new.append(member)
        survivors = sorted(new)
    return set(survivors)


def reference_reduced_oracle(o, sites):
    """The oracle on the marginal of `sites`, built as a new validated `QuantumState`.

    A fresh `StateOracle` on the marginal's state, seeded by one draw from
    o's stream: the half-register oracle as built before it held the parent's
    marginal factor directly.
    """
    hidden = QuantumState.mixed(_marginal(o.rho, o.n, sites))
    return StateOracle(hidden, backend=o.backend, seed=int(o._rng.integers(2**63)),
                       noise_opnorm=o.noise_opnorm)


def reference_weight_leq_indices(m, d):
    """Basis indices of weight-<= d strings, enumerated by placing the ones."""
    idx = []
    for k in range(d + 1):
        for ones in combinations(range(m), k):
            idx.append(sum(1 << (m - 1 - i) for i in ones))
    return sorted(idx)


def reference_z_columns(basis):
    """The n+1 columns U*|b>, b in {0^n, e_1, .., e_n}, by `apply_sites` on a pick matrix."""
    n = len(basis)
    picks = np.zeros((2**n, n + 1), dtype=complex)
    picks[[0] + [1 << (n - 1 - i) for i in range(n)], range(n + 1)] = 1.0
    return apply_sites([np.asarray(u).conj().T for u in basis], picks)


def bloch_grid(pitch: float) -> np.ndarray:
    """Single-qubit grid states (g, 2) covering the sphere at the given angular pitch."""
    n_theta = int(math.ceil(math.pi / pitch)) + 1
    n_phi = int(math.ceil(2.0 * math.pi / pitch))
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    return np.stack([np.cos(tt / 2.0), np.exp(1j * pp) * np.sin(tt / 2.0)], axis=1)


def grid_product_opt(state, pitch: float = 0.3) -> float:
    """Dense product-state grid maximum of <pi|rho|pi> (n <= 3 only).

    Never overestimates the true optimum; the per-site undershoot is
    O(pitch^2).  Vectorized site-by-site contraction.
    """
    n = state.n
    if n > 3:
        raise ValueError("the dense grid oracle is limited to n <= 3")
    grid = bloch_grid(pitch)
    g = grid.shape[0]
    # K[a, (i,l)] = conj(g_a)_i (g_a)_l : the per-site sandwich factors.
    k = (grid.conj()[:, :, None] * grid[:, None, :]).reshape(g, 4)
    rho = density(state)
    t = rho.reshape((2,) * (2 * n))
    # Regroup to pair each site's row/col indices: (i1 l1)(i2 l2)...
    order = [axis for i in range(n) for axis in (i, n + i)]
    t = np.transpose(t, order).reshape((4,) * n)
    for _ in range(n):
        t = np.tensordot(k, t, axes=([1], [0]))
        t = np.moveaxis(t, 0, -1)
    return float(np.max(t.real))


def planted_grid_opt(params_star: ProductParams, w: float, pitch: float = 0.05) -> float:
    """Grid-oracle optimum for the planted mixture, via its per-site factorization.

    For rho = w|π*><π*| + (1−w) I/2^n the fidelity of any product state is
    w·Π_i |<v_i|π*_i>|² + (1−w)/2^n, so the grid maximum factorizes exactly
    into independent per-site grid maxima.
    """
    n = params_star.n
    grid = bloch_grid(pitch)
    prod = 1.0
    for z in params_star.z:
        site = product_state_vector(ProductParams((z,))).data
        overlaps = np.abs(grid @ site.conj()) ** 2
        prod *= float(np.max(overlaps))
    return w * prod + (1.0 - w) / 2.0**n


def _realify(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x.real, x.imag])


def _complexify(r: np.ndarray) -> np.ndarray:
    half = r.shape[0] // 2
    return r[:half] + 1j * r[half:]


def reference_constrained_max(sys, dom, restarts: int = 60, seed: int = 0,
                              gamma_factor: float = 1.0) -> float:
    """Multistart smooth maximization of |f| over the constrained domain.

    Reference oracle for the net-search solver: maximizes |f(x)| subject to
    | ||x||−ν | <= γ', ||Ax−v|| <= γ', ||x||_inf <= μ+γ' with γ' = γ·gamma_factor,
    using SLSQP from many seeded starts.  Returns the best value found (a
    lower bound on the true constrained maximum; with generous restarts it is
    tight at desk scale on smooth low-degree objectives).
    """
    rng = np.random.default_rng(seed)
    n = sys.n
    gamma = dom.gamma * gamma_factor
    a_mat, v_vec, nu, mu = dom.a, dom.v, dom.nu, dom.mu

    def value(r):
        return abs(evaluate_poly(sys, _complexify(r)))

    def neg_value(r):
        return -value(r)

    cons = [
        {"type": "ineq", "fun": lambda r: gamma - abs(np.linalg.norm(_complexify(r)) - nu)},
        {"type": "ineq",
         "fun": lambda r: (mu + gamma) - np.max(np.abs(_complexify(r))) if n else 1.0},
    ]
    if a_mat.shape[0] > 0:
        cons.append({"type": "ineq",
                     "fun": lambda r: gamma - np.linalg.norm(a_mat @ _complexify(r) - v_vec)})

    best = -1.0
    feasible_seen = False
    for _ in range(restarts):
        x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm0 = np.linalg.norm(x0)
        if norm0 > 0:
            x0 *= min(nu, mu * math.sqrt(n)) / norm0
        res = minimize(neg_value, _realify(x0), method="SLSQP", constraints=cons,
                       options={"maxiter": 300, "ftol": 1e-12})
        x = _complexify(res.x)
        ok = (
            abs(np.linalg.norm(x) - nu) <= gamma + 1e-8
            and np.max(np.abs(x), initial=0.0) <= mu + gamma + 1e-8
            and (a_mat.shape[0] == 0 or np.linalg.norm(a_mat @ x - v_vec) <= gamma + 1e-8)
        )
        if ok:
            feasible_seen = True
            best = max(best, value(res.x))
    return best if feasible_seen else float("nan")


def reference_pairs(values):
    """The list-comprehension [re, im] pair encoder the vectorized codec must match."""
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def reference_unpairs(pairs, shape):
    """The element-by-element pair decoder the vectorized codec must match."""
    arr = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    return arr.reshape(shape)


def decode_mps(d):
    """The MatrixProductState of a `serialize.mps_to_json` object."""
    return MatrixProductState([reference_unpairs(t["data"], tuple(t["shape"]))
                               for t in d["tensors"]])


def shadow_rows(rng, sigma, shots):
    """The sampler's rows u for `shots` shots of sigma, as one (shots, dim) array."""
    return np.concatenate(list(_shadow_coord_chunks(rng, *_shadow_basis(sigma), shots)))


def reference_shadow_rows(rng, sigma, shots):
    """`shadow_rows` with each drawn chunk's arithmetic done on the whole chunk at once.

    The draws per SHADOW_CHUNK shots are the sampler's: one `random`, one
    `standard_normal` and one `standard_exponential` call, in that order.
    """
    cdf, cols = _shadow_basis(sigma)
    dim = cdf.shape[0]
    rows = cols.T
    out = []
    for done in range(0, shots, SHADOW_CHUNK):
        b = min(SHADOW_CHUNK, shots - done)
        picks = cdf.searchsorted(rng.random(b), side="right")
        g = rng.standard_normal((b, 2 * dim)).view(complex)
        extra = 2.0 * rng.standard_exponential(b)
        v = rows[picks]
        h = np.einsum("ij,ij->i", v.conj(), g)
        g += v * (h * (np.sqrt(1.0 + extra / (h.real ** 2 + h.imag ** 2)) - 1.0))[:, None]
        flat = g.view(float)
        flat /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
        out.append(g)
    return np.concatenate(out)


def raw_z_shadows(o, basis, shots):
    """Single-shot amplitude-vector estimates before any averaging.

    Returns a (shots, n) array whose rows are unbiased one-copy estimates of
    the amplitude vector z in the rotated frame.  Sampling backend only;
    charges `shots` copies.
    """
    if o.backend != "sampling":
        raise ValueError("raw shadows exist only on the sampling backend")
    n = o.n
    o._check_shots(shots)
    sigma = _with_junk_slot(_sandwich(_frame_read(o, np.array(basis, dtype=complex))))
    rows = shadow_rows(o._rng, sigma, shots)
    o._charge(shots)
    return (sigma.shape[0] + 1) * rows[:, 1: n + 1] * rows[:, [0]].conj()

CRITERIA = {
    1: "geometry",
    2: "tail-bounds",
    3: "high-fidelity-learner",
    4: "cover-soundness",
    5: "opt-estimation",
    6: "polyopt-oracle-equivalence",
    7: "discrete-learner",
    8: "mps-learner",
    9: "hardness-benchmark",
    10: "reproducibility",
}


def pytest_terminal_summary(terminalreporter):
    """Print one PASS/FAIL line per acceptance criterion that ran."""
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            tag = nodeid.split("test_criterion_")[1]
            number = int(tag.split("_")[0])
            ok = status == "passed"
            outcomes[number] = outcomes.get(number, True) and ok
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(outcomes):
        name = CRITERIA.get(number, "unknown")
        verdict = "PASS" if outcomes[number] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number} {name}: {verdict}")
