"""Oracle backends: ground-truth values, sampling accuracy, copy accounting."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from prodstate import oracle
from prodstate.errors import ResourceBudgetError
from prodstate.instances import planted_mixture, random_mixed
from prodstate.localopt import _reduced_oracle, single_site_estimate
from prodstate.oracle import (
    SHADOW_BLOCK,
    SHADOW_CHUNK,
    StateOracle,
    _shadow_basis,
    _shadow_coord_chunks,
    _shadow_mean,
    _with_junk_slot,
    bernstein_shots,
    estimate_fidelity,
    estimate_z,
    fidelity_copy_cost,
    subnormalized_attempts,
    subnormalized_budget,
    subspace_tomography,
    subnormalized_tomography,
    tomography_copy_cost,
    weight_leq_indices,
    z_copy_cost,
)
from prodstate.states import (
    FactoredDensity,
    ProductParams,
    QuantumState,
    _apply_chain,
    _frame_rows,
    _marginal,
    _operator,
    _sandwich,
    haar_isometry,
    haar_state,
    product_state_vector,
    product_unitary,
    product_vectors,
    recenter_unitaries,
    site_stack,
    vector_fidelity,
)

from conftest import (
    apply_sites,
    bell_state,
    count_map_applications,
    dense_mixed,
    density,
    exact_z,
    haar_unitary,
    maximally_mixed,
    operator_matrix,
    partial_trace,
    random_product_params,
    raw_z_shadows,
    reference_flip_read,
    reference_project_psd,
    reference_rotated_cut,
    reference_shadow_rows,
    reference_weight_leq_indices,
    reference_z_columns,
    shadow_rows,
    window_charge,
)


def identity_basis(n):
    return [np.eye(2, dtype=complex) for _ in range(n)]


def zero_state(n):
    vec = np.zeros(2**n)
    vec[0] = 1.0
    return QuantumState.pure(vec)


# --- estimate_z ------------------------------------------------------------


def test_z_zero_state_identity_frame():
    for backend in ("exact", "sampling"):
        o = StateOracle(zero_state(3), backend=backend, seed=5)
        a = estimate_z(o, identity_basis(3), eps=0.5, delta=0.3)
        assert np.linalg.norm(a) <= 0.5


def test_z_single_excitation_closed_form():
    # psi = alpha|000> + beta|100>  ->  z = (alpha*beta, 0, 0).
    alpha, beta = 0.8, 0.6
    vec = np.zeros(8)
    vec[0], vec[4] = alpha, beta
    state = QuantumState.pure(vec)
    z = exact_z(state)
    assert np.allclose(z, [alpha * beta, 0.0, 0.0], atol=1e-12)

    o = StateOracle(state, backend="exact")
    a = estimate_z(o, identity_basis(3), eps=0.2, delta=0.3)
    assert np.allclose(a, z)  # noise 0: exact

    o = StateOracle(state, backend="sampling", seed=9)
    a = estimate_z(o, identity_basis(3), eps=0.5, delta=1 / 3)
    assert np.linalg.norm(a - z) <= 0.5


def test_z_exact_noise_bounded_and_seeded():
    rng = np.random.default_rng(0)
    state = random_mixed(2, rng)
    z = exact_z(state)
    o1 = StateOracle(state, backend="exact", seed=3, noise_opnorm=0.05)
    o2 = StateOracle(state, backend="exact", seed=3, noise_opnorm=0.05)
    a1 = estimate_z(o1, identity_basis(2), eps=0.5, delta=0.3)
    a2 = estimate_z(o2, identity_basis(2), eps=0.5, delta=0.3)
    assert np.linalg.norm(a1 - z) <= 0.05 + 1e-12
    assert np.array_equal(a1, a2)


def test_z_respects_rotated_frame():
    rng = np.random.default_rng(4)
    params = random_product_params(rng, 3)
    state = QuantumState.pure(product_state_vector(params).data)
    basis = recenter_unitaries(params)
    # Recentred onto |000>, the amplitude vector vanishes.
    o = StateOracle(state, backend="exact")
    a = estimate_z(o, basis, eps=0.4, delta=0.3)
    assert np.linalg.norm(a) < 1e-9


def test_z_columns_match_pick_matrix_reference():
    # The sitewise read of the factor against the frame's n+1 product rows
    # equals those rows, built densely from a pick matrix, times the factor.
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 9):
        state = product_state_vector(random_product_params(rng, n))
        basis = [haar_unitary(2, rng) for _ in range(n)]
        got = _frame_rows(_operator(state), np.array(basis), 1)[0].factor
        want = reference_z_columns(basis).conj().T @ _operator(state).factor
        assert got.shape == want.shape == (n + 1, 1)
        assert np.abs(got - want).max() <= 1e-14


def test_frame_rows_are_the_rotated_factor_rows():
    # Every k <= n <= 7 and d <= k, in Haar and identity frames: the
    # weight-<= d rows of the marginal's factor rotated by `apply_sites`,
    # listed by basis index through `order`.  At d = 1 the rows are the
    # single-flip read's, bit for bit and in its order; in the identity
    # frame at d = k they are the factor's own rows, bit for bit.
    rng = np.random.default_rng(10)
    for n in range(1, 8):
        for state in factored_cases(n, rng):
            rho = _operator(state)
            for k in range(1, n + 1):
                identity = np.array(identity_basis(k))
                for us in (np.array([haar_unitary(2, rng) for _ in range(k)]), identity):
                    rows = rho.factor.reshape(2**k, -1)
                    rotated = apply_sites(us, rows)
                    for d in range(k + 1):
                        read, order = _frame_rows(_marginal(rho, n, range(k)), us, d)
                        y = read.factor
                        idx = weight_leq_indices(k, d)
                        assert sorted(order.tolist()) == list(range(len(idx)))
                        assert y.shape == (len(idx), rows.shape[1])
                        assert np.abs(y[order] - rotated[idx]).max() <= 1e-12
                        if d == 1:
                            assert np.array_equal(y, reference_flip_read(rho, us))
                        if us is identity and d == k:
                            assert np.array_equal(y[order], rows)


def test_frame_rows_pass_the_shift_and_sandwich_to_the_dense_block():
    # On shifted states, every k <= n <= 7 and d <= k, in Haar and identity
    # frames: the read of the k-site marginal keeps its shift c 2^(n-k), and
    # `_sandwich` of the rows `order` selects is the dense U rho_[k] U* on the
    # weight-<= d strings, shift on the diagonal included.  A factor of more
    # than k sites is refused.
    rng = np.random.default_rng(11)
    for n in range(1, 8):
        for state in factored_cases(n, rng)[3:]:
            rho = _operator(state)
            for k in range(1, n + 1):
                marginal = _marginal(rho, n, range(k))
                dense = partial_trace(operator_matrix(rho), n, range(k))
                for us in (np.array([haar_unitary(2, rng) for _ in range(k)]),
                           np.array(identity_basis(k))):
                    u = product_unitary(us)
                    rotated = u @ dense @ u.conj().T
                    for d in range(k + 1):
                        read, order = _frame_rows(marginal, us, d)
                        assert read.shift == marginal.shift == rho.shift * 2 ** (n - k) > 0
                        idx = weight_leq_indices(k, d)
                        got = _sandwich(FactoredDensity(read.factor[order], read.shift))
                        assert np.abs(got - rotated[np.ix_(idx, idx)]).max() <= 1e-12
                    if k < n:
                        # The whole state is not a k-site factor: its shift is unscaled.
                        with pytest.raises(ValueError, match="frame of"):
                            _frame_rows(rho, us, 1)


def reference_frame_reads(state, basis):
    """(z, sigma) from the dense product columns: cols* rho cols, with its junk slot."""
    cols = reference_z_columns(basis)
    block = cols.conj().T @ (_operator(state) @ cols)
    return block[1:, 0], _with_junk_slot(block)


def test_sitewise_frame_reads_match_the_product_columns():
    rng = np.random.default_rng(12)
    for n in range(1, 9):
        basis = [haar_unitary(2, rng) for _ in range(n)]
        for state in factored_cases(n, rng):
            z, sigma = reference_frame_reads(state, basis)
            for backend in ("exact", "sampling"):
                read = oracle._frame_read(StateOracle(state, backend=backend), np.array(basis))
                y = read.factor
                for got, want in ((y[1:] @ y[0].conj(), z),
                                  (_with_junk_slot(_sandwich(read)), sigma)):
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-13


def test_a_ladder_on_one_frame_reads_the_factor_once(monkeypatch):
    reads = []
    inner = oracle._frame_rows

    def counted(rho, us, d):
        reads.append((len(us), d))
        return inner(rho, us, d)

    monkeypatch.setattr(oracle, "_frame_rows", counted)
    rng = np.random.default_rng(14)
    n = 5
    state = planted_mixture(random_product_params(rng, n), 0.9)
    basis = recenter_unitaries(random_product_params(rng, n))
    for backend in ("exact", "sampling"):
        reads.clear()
        o = StateOracle(state, backend=backend, seed=2)
        for rung in range(1, 5):
            estimate_z(o, basis, math.exp(-rung), 0.1)
        assert reads == [(n, 1)]
        # A new frame misses the one-slot cache, and the old frame misses after it.
        other = recenter_unitaries(random_product_params(rng, n))
        estimate_z(o, other, 0.5, 0.1)
        estimate_z(o, basis, 0.5, 0.1)
        assert reads == [(n, 1)] * 3


def test_shared_frame_reads_leave_every_draw_as_it_was():
    # A ladder that reuses the read returns, charges and draws exactly what
    # one that reads afresh for every rung does, with noise on the exact backend.
    rng = np.random.default_rng(15)
    n = 4
    state = planted_mixture(random_product_params(rng, n), 0.9)
    bases = [recenter_unitaries(random_product_params(rng, n)) for _ in range(2)]
    for backend, noise in (("exact", 0.05), ("sampling", 0.0)):
        runs = []
        for fresh in (False, True):
            o = StateOracle(state, backend=backend, seed=8, noise_opnorm=noise)
            outs = []
            for basis in bases:
                for rung in range(1, 5):
                    if fresh:
                        o._frame_key = None
                    outs.append(estimate_z(o, basis, math.exp(-rung), 0.1))
            runs.append((outs, o.copies_consumed, o._rng.bit_generator.state))
        (outs_a, copies_a, rng_a), (outs_b, copies_b, rng_b) = runs
        assert all(np.array_equal(a, b) for a, b in zip(outs_a, outs_b))
        assert copies_a == copies_b and rng_a == rng_b
        assert not all(np.array_equal(outs_a[0], a) for a in outs_a[1:4])


def test_exact_z_reads_product_frames_in_factor_memory():
    # At n=16 a 2^16 x 17 block of product columns alone takes 17.8 MB; the
    # sitewise read holds a few factor-sized arrays.
    rng = np.random.default_rng(16)
    n = 16
    state = planted_mixture(random_product_params(rng, n), 0.95)
    basis = recenter_unitaries(random_product_params(rng, n))
    o = StateOracle(state, backend="exact")
    tracemalloc.start()
    try:
        estimate_z(o, basis, 0.1, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**n * 16


def test_z_norm_at_most_half():
    # For any state and any product frame the amplitude vector obeys |z| <= 1/2.
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        state = random_mixed(n, rng)
        basis = [u for u in recenter_unitaries(random_product_params(rng, n))]
        z = exact_z(state, basis)
        worst = max(worst, float(np.linalg.norm(z)))
    assert worst <= 0.5 + 1e-9


def test_raw_shadows_unbiased_5_sigma():
    rng = np.random.default_rng(21)
    state = random_mixed(2, rng)
    basis = [u for u in recenter_unitaries(random_product_params(rng, 2))]
    z = exact_z(state, basis)
    o = StateOracle(state, backend="sampling", seed=11)
    shots = raw_z_shadows(o, basis, 10_000)
    for part in (np.real, np.imag):
        mean = part(shots).mean(axis=0)
        sem = part(shots).std(axis=0) / math.sqrt(shots.shape[0])
        assert np.all(np.abs(mean - part(z)) <= 5 * sem + 1e-12)


def test_raw_shadow_variance_dimension_free():
    # Mean squared single-shot error stays below 3n (the design bound).
    rng = np.random.default_rng(31)
    state = random_mixed(2, rng)
    z = exact_z(state)
    o = StateOracle(state, backend="sampling", seed=13)
    shots = raw_z_shadows(o, identity_basis(2), 10_000)
    mse = float(np.mean(np.abs(shots - z) ** 2) * shots.shape[1])
    assert mse <= 3 * 2 * 1.1


# --- shadow sampler ----------------------------------------------------------


def haar_reference_rows(rng, sigma, shots):
    """The per-shot definition of the sampler: measure in a Haar basis, record the row."""
    dim = sigma.shape[0]
    rows = np.empty((shots, dim), dtype=complex)
    for s in range(shots):
        v = haar_unitary(dim, rng)
        probs = np.clip(np.einsum("bi,ij,bj->b", v, sigma, v.conj()).real, 0.0, None)
        rows[s] = v[rng.choice(dim, p=probs / probs.sum())].conj()
    return rows


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def within_5_sigma(samples, target):
    """Every entry's sample mean lies within 5 standard errors of the target."""
    for part in (np.real, np.imag):
        mean = part(samples).mean(axis=0)
        sem = part(samples).std(axis=0) / math.sqrt(samples.shape[0])
        if not np.all(np.abs(mean - part(target)) <= 5 * sem + 1e-12):
            return False
    return True


@pytest.mark.parametrize("dim", [3, 5, 10])
def test_shadow_sampler_matches_haar_law(dim):
    rng = np.random.default_rng(100 + dim)
    sigma = random_density(rng, dim)
    a = haar_unitary(dim, rng)[0]
    s = float(np.real(a.conj() @ sigma @ a))
    second = (np.eye(dim) + sigma) / (dim + 1)
    # E|<a|u>|^4 = dim * E_Haar[|<a|u>|^4 <u|sigma|u>] from the third Haar moment.
    fourth = (2.0 + 4.0 * s) / ((dim + 1) * (dim + 2))

    fast = shadow_rows(rng, sigma, 100_000)
    ref = haar_reference_rows(rng, sigma, 20_000)
    stats = []
    for rows in (fast, ref):
        outer = rows[:, :, None] * rows[:, None, :].conj()
        assert within_5_sigma(outer.reshape(len(rows), -1), second.reshape(-1))
        quartic = np.abs(rows.conj() @ a) ** 4
        sem = quartic.std() / math.sqrt(len(rows))
        assert abs(quartic.mean() - fourth) <= 5 * sem
        stats.append((quartic.mean(), sem))
    (m1, e1), (m2, e2) = stats
    assert abs(m1 - m2) <= 5 * math.hypot(e1, e2)


@pytest.mark.parametrize("dim", [3, 5, 10])
def test_shadow_sampler_rank_one_overlap_law(dim):
    # For sigma = |e><e| every shot picks e, so |<e|u>|^2 ~ Beta(2, dim - 1)
    # with a uniform phase.
    rng = np.random.default_rng(200 + dim)
    e = haar_unitary(dim, rng)[0]
    overlap = shadow_rows(rng, np.outer(e, e.conj()), 100_000) @ e.conj()
    weight = np.abs(overlap) ** 2
    checks = [
        (weight, 2.0 / (dim + 1)),
        (weight**2, 6.0 / ((dim + 1) * (dim + 2))),
        (np.real(overlap) / np.sqrt(weight), 0.0),
        (np.imag(overlap) / np.sqrt(weight), 0.0),
    ]
    for samples, target in checks:
        sem = samples.std() / math.sqrt(len(samples))
        assert abs(samples.mean() - target) <= 5 * sem


@pytest.mark.parametrize(
    "shots", [1, SHADOW_BLOCK, SHADOW_BLOCK + 1, SHADOW_CHUNK, SHADOW_CHUNK + 1])
def test_shadow_coord_chunks_count_shots(shots):
    cdf, cols = _shadow_basis(random_density(np.random.default_rng(5), 3))
    chunks = list(_shadow_coord_chunks(np.random.default_rng(0), cdf, cols, shots))
    assert sum(len(c) for c in chunks) == shots
    assert all(0 < len(c) <= SHADOW_BLOCK for c in chunks)
    # Every shot is a unit vector.
    assert np.allclose(np.linalg.norm(np.concatenate(chunks), axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("dim", [3, 4, 10, 17])
def test_shadow_blocks_keep_every_draw(dim):
    # The shots span two drawn chunks and several blocks of each; the rows
    # and the generator's state after them match whole-chunk arithmetic.
    sigma = random_density(np.random.default_rng(dim), dim)
    shots = SHADOW_CHUNK + 3 * SHADOW_BLOCK + 17
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    assert np.array_equal(shadow_rows(rng, sigma, shots),
                          reference_shadow_rows(ref_rng, sigma, shots))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_shadow_mean_stream_equals_one_block():
    rng = np.random.default_rng(3)
    sigma = random_density(rng, 4)
    # The shots span two full chunks and part of a third.
    shots = 2 * SHADOW_CHUNK + 7_001
    streamed = _shadow_mean(np.random.default_rng(8), sigma, shots)
    rows = shadow_rows(np.random.default_rng(8), sigma, shots)
    block = 5 * np.einsum("ni,nj->ij", rows, rows.conj()) / shots - np.eye(4)
    assert np.max(np.abs(streamed - block)) <= 1e-12


def test_shadow_mean_memory_stays_chunked():
    # 2M materialized rows at dim 5 would take 160 MB; the stream holds one
    # drawn chunk (1.6 MB) and block-sized temporaries.  Holding the last
    # chunk through the next draw peaked at 4.07 MB.
    sigma = random_density(np.random.default_rng(4), 5)
    tracemalloc.start()
    try:
        _shadow_mean(np.random.default_rng(0), sigma, 2_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


# --- subspace tomography ---------------------------------------------------


def test_weight_leq_indices():
    assert weight_leq_indices(3, 0) == [0]
    assert weight_leq_indices(3, 1) == [0, 1, 2, 4]
    assert weight_leq_indices(2, 2) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        weight_leq_indices(2, 3)


def test_weight_leq_indices_match_the_reference_through_twelve_sites():
    for m in range(13):
        for d in range(m + 1):
            assert weight_leq_indices(m, d) == reference_weight_leq_indices(m, d)


def test_weight_leq_indices_enumerate_only_the_kept_strings():
    # O(W) work and memory for the W = 211 strings of weight <= 2 on 20
    # sites: a mask over all 2^20 strings alone takes 1 MiB.
    tracemalloc.start()
    try:
        idx = weight_leq_indices(20, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(idx) == 211 and peak < 512 * 1024


def test_subspace_zero_state():
    for backend in ("exact", "sampling"):
        o = StateOracle(zero_state(3), backend=backend, seed=2)
        est = subspace_tomography(o, prefix_m=2, d=1, eps=0.9, delta=0.5)
        # The block on the weight-<= 1 strings 00, 01, 10.
        target = np.zeros((3, 3))
        target[0, 0] = 1.0
        tol = 1e-12 if backend == "exact" else 0.9
        assert np.linalg.norm(est - target, 2) <= tol


def test_subspace_exact_is_truncation_bitwise():
    rng = np.random.default_rng(8)
    state = random_mixed(3, rng)
    o = StateOracle(state, backend="exact")
    est = subspace_tomography(o, prefix_m=2, d=1, eps=0.3, delta=0.3)
    # The first-two-sites marginal of W W* is W' W'* with W' = W regrouped (4, -1).
    w = state.data.factor.reshape(4, -1)
    idx = weight_leq_indices(2, 1)
    assert np.array_equal(est, w[idx] @ w[idx].conj().T)


def test_framed_subspace_tomography_is_the_rotated_cut():
    # In a frame U = (x) U_i the exact, noiseless block is the weight-<= d
    # block of U rho_[m] U*: the dense reference rotates the whole marginal
    # and cuts it.  Every d < m up to m = 6, on pure and shifted mixed
    # states; d = m reads the whole rotated marginal.
    rng = np.random.default_rng(4141)
    n = 6
    states = (QuantumState.pure(haar_state(2**n, rng)),
              planted_mixture(random_product_params(rng, n), 0.8),
              planted_mixture(haar_state(2**n, rng), 0.6))
    assert all(_operator(state).shift > 0.0 for state in states[1:])
    for state in states:
        full = density(state)
        for m in range(1, n + 1):
            units = recenter_unitaries(random_product_params(rng, m))
            marginal = partial_trace(full, n, range(m))
            for d in range(m + 1):
                idx = weight_leq_indices(m, d)
                want = reference_rotated_cut(marginal, units, d)[np.ix_(idx, idx)]
                o = StateOracle(state)
                got = subspace_tomography(o, m, d, 0.3, 0.1, frame=np.array(units))
                assert got.shape == want.shape and np.abs(got - want).max() <= 1e-12
                assert o.copies_consumed == tomography_copy_cost(len(idx) + 1, 0.3, 0.1)


def test_subspace_tomography_refuses_a_bad_frame_before_any_copy():
    # A stack of the wrong shape is refused on any state; a stack that is
    # not unitary only on a state with a shift, whose c I part it would not
    # carry (as `states._mapped` refuses), and both before any copy.
    rng = np.random.default_rng(4242)
    shifted = planted_mixture(random_product_params(rng, 3), 0.8)
    unshifted = QuantumState.pure(haar_state(8, rng))
    skew = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    for backend in ("exact", "sampling"):
        for state in (shifted, unshifted):
            for bad in (np.stack([np.eye(2)] * 3), np.eye(2)[None], np.ones((2, 2, 3))):
                o = StateOracle(state, backend=backend)
                with pytest.raises(ValueError, match="frame"):
                    subspace_tomography(o, 2, 1, 0.9, 0.5, frame=bad)
                assert o.copies_consumed == 0
        o = StateOracle(shifted, backend=backend)
        with pytest.raises(ValueError, match="unitary"):
            subspace_tomography(o, 2, 1, 0.9, 0.5, frame=np.stack([np.eye(2), skew]))
        assert o.copies_consumed == 0
        o = StateOracle(unshifted, backend=backend)
        subspace_tomography(o, 2, 1, 0.9, 0.5, frame=np.stack([np.eye(2), skew]))
        assert o.copies_consumed > 0


def test_subspace_psd_trace_and_support():
    # The estimate is the block on the weight-<= d strings alone, in
    # `weight_leq_indices` order: PSD, of trace <= 1, and within eps of the
    # reference block there.
    rng = np.random.default_rng(14)
    state = random_mixed(3, rng)
    idx = weight_leq_indices(3, 1)
    target = density(state)[np.ix_(idx, idx)]
    for backend, noise in (("exact", 0.2), ("sampling", 0.0)):
        o = StateOracle(state, backend=backend, seed=6, noise_opnorm=noise)
        est = subspace_tomography(o, prefix_m=3, d=1, eps=0.8, delta=0.5)
        assert est.shape == (len(idx), len(idx))
        assert np.allclose(est, est.conj().T)
        assert np.linalg.eigvalsh(est).min() >= -1e-10
        assert np.real(np.trace(est)) <= 1 + 1e-10
        assert np.linalg.norm(est - target, 2) <= 0.8


def test_subspace_sampling_monte_carlo_failure_rate():
    # 200 seeded runs: the op-norm guarantee fails at most a delta fraction
    # of the time (plus 3-sigma binomial slack).
    rng = np.random.default_rng(55)
    state = random_mixed(2, rng)
    rho1 = partial_trace(density(state), 2, [0])
    eps, delta, runs = 0.9, 1 / 3, 200
    errors = []
    for seed in range(runs):
        o = StateOracle(state, backend="sampling", seed=seed)
        est = subspace_tomography(o, prefix_m=1, d=1, eps=eps, delta=delta)
        errors.append(np.linalg.norm(est - rho1, 2))
    failures = sum(e > eps for e in errors)
    assert failures <= delta * runs + 3 * math.sqrt(runs * delta * (1 - delta))
    # And the estimator is genuinely accurate, not just under a loose bound.
    assert np.median(errors) <= eps / 2


# --- subnormalized tomography ----------------------------------------------


def test_subnormalized_attempts_is_the_exact_ceiling():
    # c mu >= 2 wanted > (c - 1) mu in exact rationals, at the ~1e17 shadow
    # counts of MPS windows, where a float quotient is spaced 128 apart, and
    # at small counts and rates.
    rng = np.random.default_rng(61)
    cases = [(int(w), float(mu)) for w, mu in zip(rng.integers(10**16, 10**18, size=1000),
                                                     rng.uniform(0.01, 1.0, size=1000))]
    cases += [(1, 1.0), (3, 0.5), (7, 1.0 / 3.0), (10**17, 1e-300), (12345, 0.1)]
    for wanted, mu in cases:
        c = subnormalized_attempts(wanted, mu)
        assert isinstance(c, int)
        exact = Fraction(mu)
        assert c * exact >= 2 * wanted > (c - 1) * exact, (wanted, mu, c)


def test_subnormalized_zero_state():
    o = StateOracle(zero_state(4), backend="exact")
    est = subnormalized_tomography(o, None, zeroed_prefix=2, eps=0.5, delta=0.3)
    target = np.zeros((4, 4))
    target[0, 0] = 1.0
    assert np.allclose(est, target, atol=1e-12)


def test_subnormalized_orthogonal_prefix_returns_zero():
    vec = np.zeros(4)
    vec[3] = 1.0  # |11>: prefix qubit is never 0
    o = StateOracle(QuantumState.pure(vec), backend="exact")
    est = subnormalized_tomography(o, None, zeroed_prefix=1, eps=0.5, delta=0.3)
    assert np.array_equal(est, np.zeros((2, 2)))
    n_mu, _ = subnormalized_budget(2, 0.5, 0.3)
    assert o.copies_consumed == n_mu


def test_subnormalized_exact_matches_block():
    rng = np.random.default_rng(19)
    # The maximally mixed state's factor has no columns.
    for state in (random_mixed(3, rng), maximally_mixed(3)):
        o = StateOracle(state, backend="exact")
        est = subnormalized_tomography(o, None, zeroed_prefix=1, eps=0.4, delta=0.3)
        assert np.allclose(est, density(state)[:4, :4], atol=1e-12)


def test_subnormalized_respects_frame():
    rng = np.random.default_rng(23)
    state = random_mixed(2, rng)
    frame = product_unitary([u for u in recenter_unitaries(random_product_params(rng, 2))])
    o = StateOracle(state, backend="exact")
    est = subnormalized_tomography(o, frame, zeroed_prefix=1, eps=0.4, delta=0.3)
    rot = frame @ density(state) @ frame.conj().T
    assert np.allclose(est, rot[:2, :2], atol=1e-12)


def test_subnormalized_reads_leading_frame_rows_only(monkeypatch):
    monkeypatch.setattr(oracle, "SHOT_BUDGET", 10**10)
    rng = np.random.default_rng(41)
    state = random_mixed(4, rng)
    frame = product_unitary(recenter_unitaries(random_product_params(rng, 4)))
    for backend, noise, prefixes in (("exact", 0.0, (1, 2, 3)), ("exact", 0.05, (1, 2, 3)),
                                     ("sampling", 0.0, (3,))):
        for i in prefixes:
            outs = []
            for f in (frame, frame[: 2 ** (4 - i)], frame[: 2 ** (4 - i) + 3]):
                o = StateOracle(state, backend=backend, seed=5, noise_opnorm=noise)
                outs.append((subnormalized_tomography(o, f, i, 0.6, 0.5), o.copies_consumed))
            for est, copies in outs[1:]:
                assert np.array_equal(est, outs[0][0])
                assert copies == outs[0][1]


def test_subnormalized_rejects_bad_frame_shapes():
    o = StateOracle(maximally_mixed(3), backend="exact")
    frame = np.eye(8, dtype=complex)
    for bad in (frame[:3], frame[:, :4], frame[:4, :7], frame[0], frame[None, None]):
        with pytest.raises(ValueError, match="frame needs 8 columns"):
            subnormalized_tomography(o, bad, zeroed_prefix=1, eps=0.4, delta=0.3)
    # Window maps that do not chain: the wrong count for the prefix, maps
    # that keep or do not halve the window, and a window wider than the
    # register the last map acts on.
    maps = np.zeros((2, 2, 4), dtype=complex)
    for bad, i in ((maps, 1), (maps[:1], 2), (np.zeros((1, 4, 4)), 1),
                   (np.zeros((1, 3, 6)), 1), (np.zeros((1, 0, 0)), 1),
                   (np.zeros((2, 4, 8)), 2)):
        with pytest.raises(ValueError, match="window maps need shape"):
            subnormalized_tomography(o, bad, zeroed_prefix=i, eps=0.4, delta=0.3)
    assert o.copies_consumed == 0


def window_stack(n, kappa, rng):
    """n - kappa + 1 window maps: adjoints of Haar 2^kappa x 2^(kappa-1) isometries."""
    return np.stack([haar_isometry(2**kappa, 2 ** (kappa - 1), rng).conj().T
                     for _ in range(n - kappa + 1)])


@pytest.mark.parametrize("n", [4, 6])
def test_subnormalized_keep_is_the_partial_trace_of_the_suffix(n):
    # On the exact backend a stack of k-site window maps measures the suffix
    # block reduced to its first min(k, n - i) sites, and the dense row block
    # the stack composes to measures the whole suffix; on a factored state
    # and on its dense copy, each charges the copies of the 2^w-dim window
    # it measures, not of the whole suffix.
    rng = np.random.default_rng(300 + n)
    for state in factored_cases(n, rng):
        for kappa in range(1, n + 1):
            maps = window_stack(n, kappa, rng)
            for i in range(min(len(maps) + 1, n)):
                keep = min(kappa, n - i)
                rows = _apply_chain(maps[:i], np.eye(2**n))
                first = None
                for s in (state, dense_mixed(density(state))):
                    o = StateOracle(s, backend="exact")
                    whole = subnormalized_tomography(o, rows, i, 0.3, 0.1)
                    assert o.copies_consumed == window_charge(s, rows, i, n - i, 0.3, 0.1)[0]
                    o = StateOracle(s, backend="exact")
                    part = subnormalized_tomography(o, maps[:i], i, 0.3, 0.1)
                    assert part.shape == (2**keep, 2**keep)
                    first = part if first is None else first
                    assert np.max(np.abs(part - first)) <= 1e-12
                    reduced = partial_trace(whole, n - i, range(keep))
                    assert np.max(np.abs(part - reduced)) <= 1e-12
                    copies, mu = window_charge(s, maps[:i], i, keep, 0.3, 0.1)
                    assert abs(mu - np.trace(whole).real) <= 1e-12
                    assert o.copies_consumed == copies


def test_subnormalized_sampling_keep_meets_eps_on_the_window():
    # The sampling backend measures only the kappa-site window of a stack
    # behind the zeroed prefix, at the window's shadow count: over 40 seeds
    # per prefix every kappa = 2 estimate lies within trace-norm eps of the
    # exact window, and the charge is n_mu plus the attempts at some
    # measured rate for the 2^kappa budget.
    rng = np.random.default_rng(53)
    n, kappa, eps, delta = 5, 2, 0.5, 0.2
    state = QuantumState.pure(haar_state(2**n, rng))
    maps = window_stack(n, kappa, rng)
    n_mu, wanted = subnormalized_budget(2**kappa, eps, delta)
    valid = {n_mu + subnormalized_attempts(wanted, k / n_mu) for k in range(1, n_mu + 1)}
    for i in (1, 2):
        exact = subnormalized_tomography(StateOracle(state, backend="exact"), maps[:i], i,
                                         eps, delta)
        for seed in range(40):
            o = StateOracle(state, backend="sampling", seed=seed)
            est = subnormalized_tomography(o, maps[:i], i, eps, delta)
            assert est.shape == (2**kappa, 2**kappa)
            diff = est - exact
            assert np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum() <= eps
            assert o.copies_consumed in valid


def test_subnormalized_sampling_window_past_the_dense_budget():
    # Behind one zeroed site of a 13-qubit register the suffix block is
    # 4096 x 4096 (256 MiB, 4x DENSE_BUDGET); the sampling backend forms
    # only the 4 x 4 window it measures.  The one 2-site window map <0 a|
    # zeroes site 1 and keeps site 2, so the window is sites 2 and 3.
    rng = np.random.default_rng(59)
    state = QuantumState.pure(haar_state(2**13, rng))
    eps = 0.5
    stack = np.eye(4, dtype=complex)[None, :2]
    exact = subnormalized_tomography(StateOracle(state, backend="exact"), stack, 1, eps, 0.2)
    window = state.data[:2**12].reshape(4, -1)
    assert np.abs(exact - window @ window.conj().T).max() <= 1e-12
    o = StateOracle(state, backend="sampling", seed=2)
    est = subnormalized_tomography(o, stack, 1, eps, 0.2)
    assert est.shape == (4, 4)
    diff = est - exact
    assert np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum() <= eps


def test_a_growing_stack_applies_each_window_map_once(monkeypatch):
    # The oracle keeps the factor after the last stack's maps: a stack that
    # extends it applies its new maps only, a repeat applies none, and a
    # shorter or diverging stack maps the factor afresh.  None and a row
    # block are read afresh and leave the kept stack in place.
    applied = count_map_applications(monkeypatch)
    rng = np.random.default_rng(62)
    n, kappa = 6, 2
    state = factored_cases(n, rng)[-1]
    maps = window_stack(n, kappa, rng)
    other = np.concatenate([maps[:1], window_stack(n, kappa, rng)[1:]])
    rows = _apply_chain(maps[:2], np.eye(2**n))
    reads = [(maps[:0], 0), (maps[:1], 1), (maps[:2], 2), (maps[:2], 2), (None, 2),
             (rows, 2), (maps[:4], 4), (maps[:3], 3), (other[:3], 3), (other[:4], 4),
             (list(other[:4]), 4)]
    for backend in ("exact", "sampling"):
        applied.clear()
        o = StateOracle(state, backend=backend, seed=3)
        for frame, i in reads:
            subnormalized_tomography(o, frame, i, 0.8, 0.8)
        assert applied == [0, 1, 1, 0, 1, 1, 2, 3, 3, 1, 0]


def test_kept_chain_reads_leave_every_draw_as_it_was():
    # Reads that keep the chain return, charge and draw exactly what reads
    # that clear it before every call do, on stacks that extend, repeat,
    # shrink and diverge, with noise on the exact backend.
    rng = np.random.default_rng(63)
    n, kappa = 5, 2
    state = factored_cases(n, rng)[-1]
    maps = window_stack(n, kappa, rng)
    other = np.concatenate([maps[:2], window_stack(n, kappa, rng)[2:]])
    reads = [(maps[:0], 0), (maps[:1], 1), (maps[:2], 2), (maps[:2], 2), (None, 2),
             (maps[:3], 3), (maps[:1], 1), (maps[:3], 3), (other[:3], 3), (other[:4], 4),
             (maps[:4], 4)]
    for backend, noise in (("exact", 0.05), ("sampling", 0.0)):
        runs = []
        for fresh in (False, True):
            o = StateOracle(state, backend=backend, seed=9, noise_opnorm=noise)
            outs = []
            for frame, i in reads:
                if fresh:
                    o._chain_keys = None
                outs.append(subnormalized_tomography(o, frame, i, 0.6, 0.5))
            runs.append((outs, o.copies_consumed, o._rng.bit_generator.state))
        (outs_a, copies_a, rng_a), (outs_b, copies_b, rng_b) = runs
        assert all(np.array_equal(a, b) for a, b in zip(outs_a, outs_b))
        assert copies_a == copies_b and rng_a == rng_b
        assert not np.array_equal(outs_a[2], outs_a[3])  # each repeat draws its own


def test_a_kept_chain_checks_each_new_map_before_any_copy(monkeypatch):
    # On a shifted state a map whose rows are not orthonormal, appended to a
    # kept chain, is refused before any copy or draw, and the chain stays
    # kept: the next valid read matches one on a fresh oracle.  A sampling
    # read refused for its shots after the read keeps the old chain too.
    rng = np.random.default_rng(64)
    n, kappa = 5, 2
    state = factored_cases(n, rng)[-1]
    maps = window_stack(n, kappa, rng)
    bad = maps[:3].copy()
    bad[2] *= 1.5
    for backend, noise in (("exact", 0.05), ("sampling", 0.0)):
        o = StateOracle(state, backend=backend, seed=4, noise_opnorm=noise)
        twin = StateOracle(state, backend=backend, seed=4, noise_opnorm=noise)
        for i in (1, 2):
            assert np.array_equal(subnormalized_tomography(o, maps[:i], i, 0.6, 0.5),
                                  subnormalized_tomography(twin, maps[:i], i, 0.6, 0.5))
        copies, draws, kept = o.copies_consumed, o._rng.bit_generator.state, o._chain
        with pytest.raises(ValueError, match="orthonormal"):
            subnormalized_tomography(o, bad, 3, 0.6, 0.5)
        assert o.copies_consumed == copies and o._rng.bit_generator.state == draws
        assert o._chain is kept
        twin._chain_keys = None
        assert np.array_equal(subnormalized_tomography(o, maps[:3], 3, 0.6, 0.5),
                              subnormalized_tomography(twin, maps[:3], 3, 0.6, 0.5))
        assert o.copies_consumed == twin.copies_consumed
    kept = o._chain
    monkeypatch.setattr(oracle, "SHOT_BUDGET", 1)
    with pytest.raises(ResourceBudgetError):
        subnormalized_tomography(o, maps[:4], 4, 0.6, 0.5)
    assert o._chain is kept


def test_uncapped_tomography_reads_the_marginal_factor_in_place():
    # In the identity frame at d = m the rows are the marginal's factor, a
    # view of the state's: on a rank-1 shifted state at n = 16 (a 1 MiB
    # factor) one call holds only the rows' conjugate and the block, under
    # 1.5 MiB at m = 4 and 2.5 MiB at m = 8 (2.0 and 3.0 MiB when the rows
    # were read site by site and copied into basis order).  The block is
    # the sitewise reader's in the explicit identity frame, bit for bit.
    n = 16
    state = factored_cases(n, np.random.default_rng(44))[3]
    assert state.data.factor.shape == (2**n, 1) and state.data.shift > 0.0
    o = StateOracle(state)
    for m, mib in ((4, 1.5), (8, 2.5)):
        tracemalloc.start()
        try:
            block = subspace_tomography(o, m, m, 0.1, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, (m, peak)
        framed = subspace_tomography(o, m, m, 0.1, 0.1, frame=np.array([np.eye(2)] * m))
        assert np.array_equal(block, framed)


def test_z_exact_allocates_no_dense_frame():
    # One dense 2^10 x 2^10 complex frame is 16.8 MB; the sitewise path
    # builds n+1 columns of the register instead.
    n = 10
    rng = np.random.default_rng(43)
    basis = recenter_unitaries(random_product_params(rng, n))
    state = QuantumState.pure(haar_state(2**n, rng))
    o = StateOracle(state, backend="exact")
    tracemalloc.start()
    try:
        z = estimate_z(o, basis, eps=0.3, delta=0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2e6
    assert np.allclose(z, exact_z(state, basis), atol=1e-12)


def test_subnormalized_sampling_accuracy():
    eps, delta = 0.8, 0.8
    o = StateOracle(bell_state(), backend="sampling", seed=3)
    est = subnormalized_tomography(o, None, zeroed_prefix=1, eps=eps, delta=delta)
    target = density(bell_state())[:2, :2]
    err = float(np.abs(np.linalg.eigvalsh(
        (est - target + (est - target).conj().T) / 2)).sum())
    assert err <= eps
    assert np.linalg.eigvalsh(est).min() >= -1e-10


# --- estimate_fidelity -----------------------------------------------------


def test_fidelity_own_state():
    rng = np.random.default_rng(2)
    params = random_product_params(rng, 3)
    state = QuantumState.pure(product_state_vector(params).data)
    for backend in ("exact", "sampling"):
        o = StateOracle(state, backend=backend, seed=4)
        (est,) = estimate_fidelity(o, 3, site_stack([params]), eps=0.2, delta=0.3)
        assert est >= 1 - 0.2


def test_fidelity_maximally_mixed_prefix():
    o = StateOracle(maximally_mixed(3), backend="sampling", seed=8)
    params = ProductParams((0.0, 0.0))
    (est,) = estimate_fidelity(o, 2, site_stack([params]), eps=0.15, delta=0.1)
    assert abs(est - 0.25) <= 0.15


def test_fidelity_exact_noise_zero():
    rng = np.random.default_rng(44)
    state = random_mixed(2, rng)
    params = random_product_params(rng, 2)
    o = StateOracle(state, backend="exact")
    vec = product_state_vector(params).data
    truth = float(np.real(vec.conj() @ density(state) @ vec))
    (est,) = estimate_fidelity(o, 2, site_stack([params]), eps=0.3, delta=0.3)
    assert est == pytest.approx(truth, abs=1e-15)


def test_fidelity_forms_no_product_row():
    # At m = 16 and k = 8 on a rank-1 shifted state, a (k, 2^m) block of
    # product rows takes 16 k 2^m bytes (8 MiB); `estimate_fidelity` reads
    # the factor site by site and peaks below one such block.
    rng = np.random.default_rng(17)
    m, k = 16, 8
    psi = haar_state(2**m, rng)
    state = planted_mixture(psi, 0.9)
    assert state.data.shift > 0.0
    sites = np.stack([[haar_state(2, rng) for _ in range(m)] for _ in range(k)])
    o = StateOracle(state)
    tracemalloc.start()
    try:
        got = estimate_fidelity(o, m, sites, 0.1, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * k * 2**m
    want = [0.9 * abs(np.vdot(row, psi)) ** 2 + 0.1 / 2**m for row in product_vectors(sites)]
    assert np.abs(got - want).max() <= 1e-12


def test_fidelity_rows_are_single_calls_in_order():
    # A k-row stack estimates, charges and draws exactly what k one-row calls
    # made in row order do; each draw order is pinned through the estimates.
    rng = np.random.default_rng(13)
    n, k = 4, 5
    psi = haar_state(2**n, rng)
    states = (
        QuantumState.pure(psi),
        random_mixed(n, rng, rank=2),        # W W*, rank 2
        planted_mixture(psi, 0.7),           # W W* + c I
    )
    assert states[2].data.shift > 0.0 and states[1].data.factor.shape[1] == 2
    for state in states:
        for m in (2, n):
            sites = np.stack([[haar_state(2, rng) for _ in range(m)] for _ in range(k)])
            reduced = dense_mixed(partial_trace(density(state), n, range(m)))
            truth = [vector_fidelity(reduced, row) for row in product_vectors(sites)]
            for backend, noise in (("exact", 0.0), ("exact", 0.02), ("sampling", 0.0)):
                batch = StateOracle(state, backend=backend, seed=21, noise_opnorm=noise)
                single = StateOracle(state, backend=backend, seed=21, noise_opnorm=noise)
                got = estimate_fidelity(batch, m, sites, 0.1, 0.05)
                want = np.concatenate([estimate_fidelity(single, m, sites[j:j + 1], 0.1, 0.05)
                                       for j in range(k)])
                assert got.shape == (k,)
                if backend == "sampling":
                    assert np.array_equal(got, want)
                else:
                    assert np.max(np.abs(got - want)) <= 1e-12
                if noise == 0.0 and backend == "exact":
                    assert np.max(np.abs(got - truth)) <= 1e-12
                assert batch.copies_consumed == single.copies_consumed \
                    == k * fidelity_copy_cost(0.1, 0.05)
                assert batch._rng.bit_generator.state == single._rng.bit_generator.state
            # No rows: no copies and no draws.
            o = StateOracle(state, backend="sampling", seed=21)
            before = o._rng.bit_generator.state
            assert estimate_fidelity(o, m, sites[:0], 0.1, 0.05).shape == (0,)
            assert o.copies_consumed == 0 and o._rng.bit_generator.state == before


def test_fidelity_dimension_mismatch():
    o = StateOracle(maximally_mixed(3), backend="exact")
    with pytest.raises(ValueError):
        estimate_fidelity(o, 3, site_stack([ProductParams((0.0,))]), eps=0.3, delta=0.3)
    with pytest.raises(ValueError):
        estimate_fidelity(o, 1, np.ones((2, 2)), eps=0.3, delta=0.3)


# --- accounting, budgets, determinism ---------------------------------------


def test_copy_accounting_matches_formulas():
    rng = np.random.default_rng(3)
    state = random_mixed(2, rng)
    for backend in ("exact", "sampling"):
        o = StateOracle(state, backend=backend, seed=1)
        total = 0
        estimate_z(o, identity_basis(2), eps=0.5, delta=0.3)
        total += z_copy_cost(2, 0.5, 0.3)
        assert o.copies_consumed == total
        subspace_tomography(o, prefix_m=1, d=1, eps=0.9, delta=0.5)
        total += tomography_copy_cost(len(weight_leq_indices(1, 1)) + 1, 0.9, 0.5)
        assert o.copies_consumed == total
        estimate_fidelity(o, 2, site_stack([ProductParams((0.0, 0.0))] * 3), eps=0.3, delta=0.3)
        total += 3 * fidelity_copy_cost(0.3, 0.3)
        assert o.copies_consumed == total


def test_subnormalized_accounting():
    rng = np.random.default_rng(9)
    state = random_mixed(2, rng)
    eps, delta = 0.7, 0.6
    n_mu, wanted = subnormalized_budget(2, eps, delta)

    o = StateOracle(state, backend="exact")
    subnormalized_tomography(o, None, zeroed_prefix=1, eps=eps, delta=delta)
    mu = float(np.real(np.trace(density(state)[:2, :2])))
    assert o.copies_consumed == n_mu + subnormalized_attempts(wanted, mu)

    o = StateOracle(state, backend="sampling", seed=5)
    subnormalized_tomography(o, None, zeroed_prefix=1, eps=eps, delta=delta)
    spent = o.copies_consumed - n_mu
    valid = {subnormalized_attempts(wanted, k / n_mu) for k in range(1, n_mu + 1)}
    assert spent in valid


def test_copy_counter_monotone():
    o = StateOracle(maximally_mixed(2), backend="exact")
    seen = [o.copies_consumed]
    for _ in range(3):
        estimate_fidelity(o, 1, site_stack([ProductParams((1.0,))]), eps=0.4, delta=0.4)
        seen.append(o.copies_consumed)
    assert all(b > a for a, b in zip(seen, seen[1:]))


def test_shot_budget_enforced(monkeypatch):
    # Every sampling primitive refuses a call above the budget before charging it.
    monkeypatch.setattr(oracle, "SHOT_BUDGET", 100)
    calls = [
        lambda o: estimate_z(o, identity_basis(1), eps=0.05, delta=0.1),
        lambda o: subspace_tomography(o, prefix_m=1, d=1, eps=0.3, delta=0.3),
        # The rate-estimation shots alone exceed the budget ...
        lambda o: subnormalized_tomography(o, None, 0, eps=0.05, delta=0.1),
        # ... or fit, and the suffix attempts do not.
        lambda o: subnormalized_tomography(o, None, 0, eps=0.3, delta=0.3),
        lambda o: estimate_fidelity(o, 1, site_stack([ProductParams((0.1,))]), eps=0.05,
                                    delta=0.1),
        lambda o: single_site_estimate(o, eps=0.1, delta=0.1),
    ]
    for call in calls:
        o = StateOracle(maximally_mixed(1), backend="sampling", seed=0)
        with pytest.raises(ResourceBudgetError):
            call(o)
        assert o.copies_consumed == 0
        # Exact backend ignores the budget entirely.
        o = StateOracle(maximally_mixed(1), backend="exact")
        call(o)
        assert o.copies_consumed > 100


def test_subspace_tomography_respects_dense_budget():
    # The budget gates the block that is formed: the uncut 2^12 x 2^12 block
    # needs 256 MiB, 4x DENSE_BUDGET, and is refused before any copy, while
    # the weight-<= 2 cut of the same prefix is a 79 x 79 block.
    plant = planted_mixture(ProductParams((0.3 + 0.1j,) * 12), 0.9)
    for backend in ("exact", "sampling"):
        o = StateOracle(plant, backend=backend, seed=0)
        with pytest.raises(ResourceBudgetError):
            subspace_tomography(o, prefix_m=12, d=12, eps=0.5, delta=0.5)
        assert o.copies_consumed == 0
    o = StateOracle(plant, seed=0)
    assert subspace_tomography(o, prefix_m=12, d=2, eps=0.5, delta=0.5).shape == (79, 79)


def test_subnormalized_tomography_respects_dense_budget():
    # The 2^12 x 2^12 suffix block behind an empty prefix needs 256 MiB, 4x
    # DENSE_BUDGET; refuse it before the block is formed or any copy charged.
    plant = planted_mixture(ProductParams((0.3 + 0.1j,) * 12), 0.9)
    for backend in ("exact", "sampling"):
        o = StateOracle(plant, backend=backend, seed=0)
        with pytest.raises(ResourceBudgetError):
            subnormalized_tomography(o, None, 0, 0.5, 0.5)
        assert o.copies_consumed == 0


def test_sampling_deterministic_under_seed():
    rng = np.random.default_rng(6)
    state = random_mixed(2, rng)
    # Both tomography calls below draw more than SHADOW_CHUNK shots, so their
    # shadow sums cross chunk boundaries.
    assert tomography_copy_cost(4, 0.08, 0.4) > SHADOW_CHUNK
    assert subnormalized_budget(2, 0.08, 0.4)[1] > SHADOW_CHUNK
    outs = []
    for _ in range(2):
        o = StateOracle(state, backend="sampling", seed=42)
        outs.append((
            estimate_z(o, identity_basis(2), eps=0.6, delta=0.4),
            estimate_fidelity(o, 2, site_stack([ProductParams((0.1, -0.2j))] * 2), eps=0.3,
                              delta=0.3),
            subspace_tomography(o, prefix_m=2, d=1, eps=0.08, delta=0.4),
            subnormalized_tomography(o, None, 1, eps=0.08, delta=0.4),
            o.copies_consumed,
        ))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert np.array_equal(outs[0][2], outs[1][2])
    assert np.array_equal(outs[0][3], outs[1][3])
    assert outs[0][4] == outs[1][4]


def test_bernstein_count_meets_the_tail_bound():
    # N(d, eps, delta) keeps Tropp's bound 2d exp(-N eps^2 / (2 var + 2 R eps / 3))
    # at variance proxy var = 2d - 1 and range R = d + 1 below delta.
    for dim in (2, 3, 5, 17, 4096):
        for eps in (1e-3, 0.05, 0.5, 0.99):
            for delta in (1e-9, 0.1, 0.9):
                shots = bernstein_shots(dim, eps, delta)
                exponent = shots * eps**2 / (2 * (2 * dim - 1) + 2 * (dim + 1) * eps / 3)
                assert 2 * dim * math.exp(-exponent) <= delta
    assert z_copy_cost(4, 0.05, 1e-3) == bernstein_shots(6, 0.05, 1e-3)
    assert tomography_copy_cost(9, 0.2, 0.1) == bernstein_shots(9, 0.1, 0.1)


def test_subnormalized_count_meets_the_frobenius_tail_bound():
    # The window's N keeps Tropp's bound on the d^2 x 1 vectorized shadow,
    # (d^2 + 1) exp(-N e^2 / (2V + 2Re/3)) at e = eps / (2 sqrt(d)), variance
    # proxy V = d^2 + d - 1 and range R = sqrt(V) + 1, below delta/2; and at
    # the true variance, at most V - 1/d, it leaves room for a short hunt's
    # exp(-d A L / 4) (see `subnormalized_budget`).  Past 2^53 shots the
    # ceiling adds nothing, so the bound holds to rounding (1e-12).
    for dim in (2, 4, 8, 16, 4096):
        for eps in (1e-3, 0.05, 0.5, 0.99):
            for delta in (1e-9, 0.1, 0.9):
                n_mu, shots = subnormalized_budget(dim, eps, delta)
                assert 2 * math.exp(-n_mu * eps**2 / 2) <= delta / 2
                e = eps / (2 * math.sqrt(dim))
                v = dim**2 + dim - 1
                a = 2 * v + 2 * (math.sqrt(v) + 1) * e / 3
                assert (dim**2 + 1) * math.exp(-shots * e**2 / a) <= delta / 2 * (1 + 1e-12)
                tail = (dim**2 + 1) * math.exp(-shots * e**2 / (a - 2 / dim))
                log_term = math.log(2 * (dim**2 + 1) / delta)
                assert tail + math.exp(-dim * a * log_term / 4) <= delta / 2


def random_mixed_matrix(rng, dim):
    """A random unit-trace density matrix of random rank."""
    shape = (dim, rng.integers(1, dim + 1))
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_project_psd_is_the_frobenius_projection_onto_subnormalized_states():
    # `subnormalized_budget`'s trace-norm step rests on this: `_project_psd`
    # takes a Hermitian X to the nearest PSD matrix of trace <= 1 in
    # Frobenius norm, so it moves X no farther from any tau in that set.
    # Some X clip to a trace above 1 (the spectrum is lowered), some do not.
    rng = np.random.default_rng(61)
    lowered = kept = 0
    for dim in (2, 3, 4, 8, 16):
        for _ in range(40):
            x = rng.uniform(0.2, 4.0) * oracle._random_hermitian_unit(rng, dim, "tr")
            if rng.uniform() < 0.5:
                x += random_mixed_matrix(rng, dim)
            clipped = np.clip(np.linalg.eigvalsh(x), 0.0, None).sum()
            lowered += clipped > 1.0
            kept += clipped <= 1.0
            got = oracle._project_psd(x)
            assert np.abs(got - reference_project_psd(x)).max() <= 1e-12
            for _ in range(5):
                tau = rng.uniform() * random_mixed_matrix(rng, dim)
                assert np.linalg.norm(got - tau) <= np.linalg.norm(x - tau) + 1e-12
    assert lowered >= 50 and kept >= 50


def _failures(call, exact, norm, eps, runs):
    """How many of `runs` seeded sampling calls err by more than eps in `norm`."""
    failures = 0
    for seed in range(runs):
        diff = call(seed) - exact
        if norm == "trace":
            err = float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())
        else:
            err = float(np.linalg.norm(diff, 2 if norm == "op" else None))
        failures += err > eps
    return failures


def test_shadow_primitives_fail_below_delta():
    # At the Bernstein counts, 200 seeds of each primitive on a pure, a rank-2
    # and a maximally mixed state err beyond eps less often than delta.  The
    # compressed registers span d = 5, 9, 13 (estimate_z on n = d - 2 qubits),
    # d = 5, 9, 17 (subspace_tomography on the weight-<= m strings of m = 2, 3,
    # 4 sites) and d = 4 and 8 (subnormalized_tomography behind one zeroed
    # site of three and of four, about 4e4 shots a call at d = 8), and d = 4
    # once more on a state whose prefix success rate is 0.1, where about a
    # quarter of the hunts come up short (the rate is read from 10 shots; at
    # a rate of eps/2 none did in 200 seeds).
    rng = np.random.default_rng(91)
    runs, delta = 200, 0.1

    def kinds(n):
        return (QuantumState.pure(haar_state(2**n, rng)), random_mixed(n, rng, rank=2),
                maximally_mixed(n))

    def sampling(state, seed):
        return StateOracle(state, backend="sampling", seed=seed)

    for n in (3, 7, 11):
        basis = recenter_unitaries(random_product_params(rng, n))
        for state in kinds(n):
            exact = estimate_z(StateOracle(state), basis, 0.5, delta)
            call = lambda seed: estimate_z(sampling(state, seed), basis, 0.5, delta)
            assert _failures(call, exact, "l2", 0.5, runs) < delta * runs
    for state in kinds(4):
        for m in (2, 3, 4):
            exact = subspace_tomography(StateOracle(state), m, m, 0.9, delta)
            call = lambda seed: subspace_tomography(sampling(state, seed), m, m, 0.9, delta)
            assert _failures(call, exact, "op", 0.9, runs) < delta * runs
    low = np.concatenate([math.sqrt(0.1) * haar_state(4, rng),
                          math.sqrt(0.9) * haar_state(4, rng)])
    for state in kinds(3) + kinds(4) + (QuantumState.pure(low),):
        exact = subnormalized_tomography(StateOracle(state), None, 1, 0.9, delta)
        call = lambda seed: subnormalized_tomography(sampling(state, seed), None, 1, 0.9, delta)
        assert _failures(call, exact, "trace", 0.9, runs) < delta * runs


def test_seeded_draws_are_stable_under_rounding_of_sigma(monkeypatch):
    # The draws follow sigma^(1/2), a function of sigma, so a rounding-level
    # change of sigma moves a seeded estimate at rounding level, also when
    # sigma has a degenerate eigenspace: the c I part of a planted mixture,
    # the whole block of a maximally mixed state, the null space of a pure
    # state.  C- and F-ordered frame reads take different BLAS paths to sigma.
    rng = np.random.default_rng(17)
    n = 4
    basis = recenter_unitaries(random_product_params(rng, n))
    read = oracle._frame_rows
    states = (planted_mixture(random_product_params(rng, n), 0.95), maximally_mixed(n),
              QuantumState.pure(haar_state(2**n, rng)), random_mixed(n, rng, rank=2))
    for state in states:
        outs = []
        for order in (np.ascontiguousarray, np.asfortranarray):
            monkeypatch.setattr(oracle, "_frame_rows", lambda rho, us, d: (
                FactoredDensity(order(read(rho, us, d)[0].factor), rho.shift), None))
            outs.append(estimate_z(StateOracle(state, backend="sampling", seed=3), basis,
                                   0.3, 0.1))
        assert np.max(np.abs(outs[0] - outs[1])) <= 1e-12
    # A direct perturbation of sigma by 1e-16 in operator norm, on the same states'
    # compressed registers.
    for state in states:
        sigma = _with_junk_slot(_sandwich(oracle._frame_read(StateOracle(state), np.array(basis))))
        nudge = 1e-16 * oracle._random_hermitian_unit(rng, n + 2, "op")
        means = [_shadow_mean(np.random.default_rng(5), s, 30_000) for s in (sigma, sigma + nudge)]
        assert np.max(np.abs(means[0] - means[1])) <= 1e-12


def test_parameter_validation():
    o = StateOracle(maximally_mixed(2), backend="exact")
    with pytest.raises(ValueError):
        estimate_z(o, identity_basis(2), eps=0.0, delta=0.3)
    with pytest.raises(ValueError):
        estimate_z(o, identity_basis(2), eps=0.3, delta=1.0)
    with pytest.raises(ValueError):
        subspace_tomography(o, prefix_m=3, d=1, eps=0.3, delta=0.3)
    with pytest.raises(ValueError):
        subspace_tomography(o, prefix_m=2, d=3, eps=0.3, delta=0.3)
    with pytest.raises(ValueError):
        subnormalized_tomography(o, None, zeroed_prefix=2, eps=0.3, delta=0.3)
    with pytest.raises(ValueError):
        StateOracle(maximally_mixed(2), backend="approximate")
    # Only the exact branches inject noise; the sampling backend must not
    # accept a noise level it would silently ignore.
    with pytest.raises(ValueError, match="exact backend"):
        StateOracle(maximally_mixed(2), backend="sampling", noise_opnorm=0.3)


def factored_cases(n, rng):
    """A pure state and factors of rank 1 and 3, with c = 0 and c > 0, on n qubits."""
    dim = 2**n
    cases = [QuantumState.pure(haar_state(dim, rng))]
    for rank, shift in ((1, 0.0), (3, 0.0), (1, 0.2 / dim), (3, 0.2 / dim)):
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        w = g * math.sqrt(1.0 - shift * dim) / np.linalg.norm(g)
        cases.append(QuantumState.mixed(FactoredDensity(w, shift)))
    return cases


def test_shifted_state_refuses_frames_that_are_not_rotations():
    # M (W W* + c I) M* is a factor only when M M* = I, so a state with a
    # shift refuses rows that are not orthonormal, before any copy is
    # charged; the same frames on a state with no shift are read as given.
    # `estimate_z` reads its frame through the same rule.
    rng = np.random.default_rng(61)
    n, i = 4, 2
    stack = window_stack(n, 3, rng)[:i]
    gauss = 0.3 * (rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape))
    rows = haar_unitary(2**n, rng)[: 2 ** (n - i)]
    rows[0] *= 1.5
    skew = [np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)] * n
    shifted, unshifted = factored_cases(n, rng)[-1], factored_cases(n, rng)[2]
    for backend in ("exact", "sampling"):
        for frame in (gauss, rows):
            o = StateOracle(shifted, backend=backend)
            with pytest.raises(ValueError, match="orthonormal"):
                subnormalized_tomography(o, frame, i, 0.8, 0.8)
            assert o.copies_consumed == 0
            o = StateOracle(unshifted, backend=backend)
            subnormalized_tomography(o, frame, i, 0.8, 0.8)
            assert o.copies_consumed > 0
        o = StateOracle(shifted, backend=backend)
        with pytest.raises(ValueError, match="unitary"):
            estimate_z(o, skew, 0.3, 0.3)
        assert o.copies_consumed == 0
        o = StateOracle(unshifted, backend=backend)
        z = estimate_z(o, skew, 0.3, 0.3)
        assert o.copies_consumed == z_copy_cost(n, 0.3, 0.3)
        if backend == "exact":
            assert np.abs(z - exact_z(unshifted, skew)).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 8])
def test_factored_reads_match_dense(n):
    rng = np.random.default_rng(200 + n)
    basis = recenter_unitaries(random_product_params(rng, n))
    frame = haar_unitary(2**n, rng)[: 2 ** (n - 2)]
    params = random_product_params(rng, n)

    def single_site(o, site):
        child = _reduced_oracle(o, [site])
        return single_site_estimate(child, 0.1, 0.1), child.copies_consumed

    for state in factored_cases(n, rng):
        dense = dense_mixed(density(state))

        def both(call, noise=0.0):
            outs = []
            for s in (state, dense):
                o = StateOracle(s, backend="exact", seed=7, noise_opnorm=noise)
                outs.append((call(o), o.copies_consumed))
            return outs

        for noise in (0.0, 0.05):
            (zf, cf), (zd, cd) = both(lambda o: estimate_z(o, basis, 0.2, 0.1), noise)
            assert np.max(np.abs(zf - zd)) <= 1e-12 and cf == cd
        for m, d in ((n, 1), (2, 2), (n - 1, 1)):
            (tf, cf), (td, cd) = both(lambda o: subspace_tomography(o, m, d, 0.3, 0.1))
            assert np.max(np.abs(tf - td)) <= 1e-12 and cf == cd
        for rows, i in ((None, 1), (frame, 2)):
            (bf, cf), (bd, cd) = both(lambda o: subnormalized_tomography(o, rows, i, 0.3, 0.1))
            assert np.max(np.abs(bf - bd)) <= 1e-12
            n_mu, wanted = subnormalized_budget(2 ** (n - i), 0.3, 0.1)
            for block, copies in ((bf, cf), (bd, cd)):
                mu = float(np.real(np.trace(block)))
                assert copies == n_mu + subnormalized_attempts(wanted, mu)
        for m in (n, 2):
            p = ProductParams(params.z[:m])
            (ff, cf), (fd, cd) = both(lambda o: estimate_fidelity(o, m, site_stack([p]), 0.1, 0.1))
            assert np.max(np.abs(ff - fd)) <= 1e-12 and cf == cd
        for sites in (list(range(n // 2)), list(range(n // 2, n))):
            (rf, _), (rd, _) = both(lambda o: _reduced_oracle(o, sites))
            assert rf.n == rd.n == len(sites)
            assert rf._rng.bit_generator.state == rd._rng.bit_generator.state
            want = _marginal(_operator(state), n, sites)
            assert np.array_equal(rf.rho.factor, want.factor) and rf.rho.shift == want.shift
            assert np.max(np.abs(operator_matrix(rf.rho) - operator_matrix(rd.rho))) <= 1e-12
        for site in (0, n - 1):
            for noise in (0.0, 0.05):
                ((pf, cf), _), ((pd, cd), _) = both(lambda o: single_site(o, site), noise)
                assert abs(pf.z[0] - pd.z[0]) <= 1e-12 * max(1.0, abs(pd.z[0])) and cf == cd
