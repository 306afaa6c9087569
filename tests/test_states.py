"""Geometry tests: parametrization, tangent distance, projections, closed-form bounds."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from prodstate.errors import ResourceBudgetError
from prodstate.instances import random_mixed
from prodstate.states import (
    DENSE_BUDGET,
    apply_sites,
    check_dense_budget,
    FactoredDensity,
    ProductParams,
    QuantumState,
    Z_MAX,
    _ratio_param,
    _top_pair,
    cap_param,
    fidelity,
    haar_product_params,
    hamming_weights,
    product_state_vector,
    product_unitary,
    product_vectors,
    recenter_unitaries,
    tangent_distance,
    transform_params,
    vector_to_params,
    weight_tail_bound,
)

from conftest import (
    apply_product_unitary,
    density,
    excitation_probs,
    haar_unitary,
    maximally_mixed,
    mean_excitation,
    partial_trace,
    product_fidelity,
    random_product_params,
    reference_kron,
    reference_product_state_vector,
    weight_distribution,
)


def test_params_validation():
    ProductParams((0.0, 1.0 + 1.0j, complex(Z_MAX)))
    with pytest.raises(ValueError):
        ProductParams((complex(Z_MAX * 1.001),))
    with pytest.raises(ValueError):
        ProductParams((float("nan"),))
    with pytest.raises(ValueError):
        ProductParams((float("inf"),))
    assert ProductParams(()).n == 0


def test_parameters_scaled_onto_the_cap_stay_valid():
    # Scaling a value onto the Z_MAX circle can round |z| one ulp above the
    # cap; both capping routes must still give valid parameters of the same
    # phase and magnitude.
    phases = np.random.default_rng(29).uniform(-math.pi, math.pi, 100_000)
    capped = [cap_param(cmath.rect(3.0 * Z_MAX, ph)) for ph in phases]
    ratios = [_ratio_param(1e-13, cmath.rect(1.0, ph)) for ph in phases]
    for values in (capped, ratios):
        ProductParams(tuple(values))
        z = np.array(values)
        assert np.abs(np.abs(z) / Z_MAX - 1.0).max() <= 1e-15
        assert np.abs(np.angle(z * np.exp(-1j * phases))).max() <= 1e-12


def test_basis_indexing_round_trip():
    # The product of one-hot site vectors is the basis vector of the string's
    # index, site 1 the most significant digit.
    eye = np.eye(2)
    assert np.argmax(product_vectors(eye[[[1, 0, 1]]])[0]) == 5
    assert np.argmax(product_vectors(eye[[[1, 0, 0]]])[0]) == 4
    for b in range(16):
        digits = [(b >> (3 - i)) & 1 for i in range(4)]
        assert np.argmax(product_vectors(eye[[digits]])[0]) == b
    weights = hamming_weights(3)
    assert list(weights) == [0, 1, 1, 2, 1, 2, 2, 3]


def test_product_state_identity_case():
    st = product_state_vector(ProductParams((0.0, 0.0, 0.0)))
    expect = np.zeros(8)
    expect[0] = 1.0
    assert np.allclose(st.data, expect)


def test_product_state_plus():
    st = product_state_vector(ProductParams((1.0,)))
    assert np.allclose(st.data, np.array([1.0, 1.0]) / math.sqrt(2))


def test_product_state_two_site_amplitudes():
    st = product_state_vector(ProductParams((1.0, 1.0j)))
    assert np.allclose(st.data, np.array([1.0, 1.0j, 1.0, 1.0j]) / 2.0)


def test_global_phase_first_amplitude_real_positive():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = random_product_params(rng, 4, scale=2.0)
        amp0 = product_state_vector(p).data[0]
        assert amp0.imag == pytest.approx(0.0, abs=1e-12)
        assert amp0.real > 0


def test_tangent_distance_basics():
    plus = ProductParams((1.0,))
    zero = ProductParams((0.0,))
    minus = ProductParams((-1.0,))
    assert tangent_distance(plus, plus) == 0.0
    assert tangent_distance(plus, zero) == pytest.approx(1.0, abs=1e-12)
    assert tangent_distance(zero, minus) == pytest.approx(1.0, abs=1e-12)
    assert tangent_distance(plus, minus) == math.inf
    with pytest.raises(ValueError):
        tangent_distance(plus, ProductParams((0.0, 0.0)))


def test_tangent_distance_symmetry_and_unitary_invariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = random_product_params(rng, 3, scale=2.0)
        q = random_product_params(rng, 3, scale=2.0)
        d = tangent_distance(p, q)
        assert d == pytest.approx(tangent_distance(q, p), rel=1e-12)
        us = [haar_unitary(2, rng) for _ in range(3)]
        d_rot = tangent_distance(transform_params(us, p), transform_params(us, q))
        assert d_rot == pytest.approx(d, rel=1e-7, abs=1e-9)


def test_tangent_distance_halfangle_form():
    # Per site the distance equals |tan(theta/2)| for the Bloch angle theta.
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = random_product_params(rng, 1, scale=3.0)
        q = random_product_params(rng, 1, scale=3.0)
        overlap_sq = product_fidelity(p, q)
        theta = 2.0 * math.acos(min(1.0, math.sqrt(overlap_sq)))
        assert tangent_distance(p, q) == pytest.approx(abs(math.tan(theta / 2.0)), rel=1e-6, abs=1e-8)


def test_recenter_unitaries():
    assert all(np.allclose(u, np.eye(2)) for u in recenter_unitaries(ProductParams((0.0, 0.0))))
    p = ProductParams((1.0,))
    u = recenter_unitaries(p)[0]
    mapped = u @ product_state_vector(p).data
    assert abs(mapped[0]) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(19)
    for _ in range(20):
        params = random_product_params(rng, 5, scale=2.0)
        us = recenter_unitaries(params)
        for mat in us:
            assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-9)
        vec = apply_product_unitary(product_state_vector(params), us).data
        target = np.zeros(32)
        target[0] = 1.0
        phase = vec[0] / abs(vec[0])
        assert np.linalg.norm(vec / phase - target) <= 1e-8


def test_fidelity_values():
    n = 3
    zero = ProductParams((0.0,) * n)
    basis_state = product_state_vector(zero)
    assert fidelity(basis_state, zero) == pytest.approx(1.0, abs=1e-12)
    mixed = maximally_mixed(2)
    rng = np.random.default_rng(23)
    for _ in range(10):
        assert fidelity(mixed, random_product_params(rng, 2)) == pytest.approx(0.25, abs=1e-12)
    plus_n = product_state_vector(ProductParams((1.0,) * n))
    assert fidelity(plus_n, zero) == pytest.approx(2.0**-n, abs=1e-12)


def test_product_fidelity_matches_dense():
    rng = np.random.default_rng(29)
    for _ in range(50):
        p = random_product_params(rng, 4, scale=2.0)
        q = random_product_params(rng, 4, scale=2.0)
        dense = abs(np.vdot(product_state_vector(p).data, product_state_vector(q).data)) ** 2
        assert product_fidelity(p, q) == pytest.approx(dense, abs=1e-12)


def test_fidelity_unitary_invariance():
    rng = np.random.default_rng(31)
    for _ in range(30):
        p = random_product_params(rng, 3, scale=2.0)
        q = random_product_params(rng, 3, scale=2.0)
        us = [haar_unitary(2, rng) for _ in range(3)]
        before = fidelity(product_state_vector(q), p)
        after = fidelity(
            apply_product_unitary(product_state_vector(q), us), transform_params(us, p)
        )
        assert after == pytest.approx(before, abs=1e-9)


def test_transform_params_matches_state_action():
    rng = np.random.default_rng(37)
    for _ in range(30):
        p = random_product_params(rng, 3, scale=2.0)
        us = [haar_unitary(2, rng) for _ in range(3)]
        via_params = product_state_vector(transform_params(us, p)).data
        via_state = apply_product_unitary(product_state_vector(p), us).data
        overlap = abs(np.vdot(via_params, via_state))
        assert overlap == pytest.approx(1.0, abs=1e-9)
        # inverse undoes the action
        back = transform_params(us, transform_params(us, p), inverse=True)
        assert tangent_distance(back, p) == pytest.approx(0.0, abs=1e-6)


def test_fidelity_sandwich_bounds():
    # log(1/F) <= dtan^2 <= 1/F - 1, with equality on the left at z = a.
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        p = random_product_params(rng, n, scale=3.0)
        q = random_product_params(rng, n, scale=3.0)
        f = product_fidelity(p, q)
        d2 = tangent_distance(p, q) ** 2
        assert math.log(1.0 / f) <= d2 + 1e-9
        assert d2 <= 1.0 / f - 1.0 + 1e-9
    p = random_product_params(rng, 4, scale=2.0)
    assert tangent_distance(p, p) == 0.0


def test_fidelity_exponential_approx_at_center():
    # e^{-dtan^2(z,0)} <= F(z, 0) <= e^{-dtan^2(z,0) + sum |z_i|^4}
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        p = random_product_params(rng, n, scale=0.9)
        zero = ProductParams((0.0,) * n)
        f = product_fidelity(p, zero)
        d2 = tangent_distance(p, zero) ** 2
        quartic = float(np.sum(np.abs(p.asarray()) ** 4))
        assert math.exp(-d2) <= f + 1e-12
        assert f <= math.exp(-d2 + quartic) + 1e-12


def test_trace_distance_bound():
    # (1/2)||pi_z - pi_a||_1 <= dtan(z, a); trace norm is twice the operator norm.
    rng = np.random.default_rng(47)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = random_product_params(rng, n, scale=2.0)
        q = random_product_params(rng, n, scale=2.0)
        delta = (
            density(product_state_vector(p)) - density(product_state_vector(q))
        )
        eigs = np.linalg.eigvalsh(delta)
        trace_norm = float(np.sum(np.abs(eigs)))
        op_norm = float(np.max(np.abs(eigs)))
        assert trace_norm == pytest.approx(2.0 * op_norm, abs=1e-9)
        assert 0.5 * trace_norm <= tangent_distance(p, q) + 1e-9


def test_tangent_vs_euclidean():
    # |dtan(z,a) - ||z - a||_2| <= dtan(z,a) * max_i |z_i||a_i| for capped params.
    rng = np.random.default_rng(53)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        p = random_product_params(rng, n, scale=1.0)
        q = random_product_params(rng, n, scale=1.0)
        d = tangent_distance(p, q)
        l2 = float(np.linalg.norm(p.asarray() - q.asarray()))
        slack = d * float(np.max(np.abs(p.asarray()) * np.abs(q.asarray())))
        assert abs(d - l2) <= slack + 1e-9


def test_weight_distribution_matches_projection():
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        p = random_product_params(rng, n, scale=2.0)
        probs = np.abs(product_state_vector(p).data) ** 2
        dist = weight_distribution(excitation_probs(p))
        for d in range(n + 1):
            mass = float(probs[hamming_weights(n) >= d].sum())
            assert mass == pytest.approx(float(dist[d:].sum()), abs=1e-10)


def test_weight_tail_bound_holds():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        p = random_product_params(rng, n, scale=2.5)
        mu = mean_excitation(p)
        dist = weight_distribution(excitation_probs(p))
        for d in range(int(math.ceil(mu)), n + 1):
            tail = float(dist[d:].sum())
            assert tail <= weight_tail_bound(mu, d) + 1e-12
    assert weight_tail_bound(0.0, 3) == 0.0
    with pytest.raises(ValueError):
        weight_tail_bound(2.0, 1.0)


def test_partial_trace():
    rng = np.random.default_rng(67)
    ua, ub = haar_unitary(2, rng), haar_unitary(4, rng)
    a = ua @ np.diag([0.7, 0.3]) @ ua.conj().T
    b = ub @ np.diag([0.4, 0.3, 0.2, 0.1]) @ ub.conj().T
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, 3, [0]), a, atol=1e-10)
    assert np.allclose(partial_trace(joint, 3, [1, 2]), b, atol=1e-10)
    assert np.allclose(partial_trace(joint, 3, [0, 1, 2]), joint, atol=1e-12)
    with pytest.raises(ValueError):
        partial_trace(joint, 3, [2, 1])


def test_vector_to_params_round_trip():
    rng = np.random.default_rng(71)
    for _ in range(30):
        v = np.array([rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()])
        v /= np.linalg.norm(v)
        p = vector_to_params(v)
        rebuilt = product_state_vector(p).data
        assert abs(np.vdot(rebuilt, v)) == pytest.approx(1.0, abs=1e-9)
    basis_one = vector_to_params(np.array([0.0, 1.0]))
    assert abs(basis_one.z[0]) == Z_MAX
    # An (n, 2) stack gives one parameter per row.
    stack = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    assert vector_to_params(stack).z == tuple(vector_to_params(v).z[0] for v in stack)
    with pytest.raises(ValueError):
        vector_to_params(np.ones((2, 3)))
    with pytest.raises(ValueError):
        vector_to_params(np.ones((1, 2, 2)))


def test_product_vectors_match_kron_reference():
    rng = np.random.default_rng(73)
    for batch in (1, 3):
        for d in (2, 3):
            for n in range(1, 6):
                sites = rng.normal(size=(batch, n, d)) + 1j * rng.normal(size=(batch, n, d))
                got = product_vectors(sites)
                assert got.shape == (batch, d**n)
                for j in range(batch):
                    assert np.array_equal(got[j], reference_kron(sites[j]))
    for n in range(1, 6):
        p = random_product_params(rng, n, scale=2.0)
        want = reference_product_state_vector(p).data
        assert np.array_equal(product_state_vector(p).data, want)


def test_product_vectors_of_an_empty_batch():
    for d in (2, 3):
        for n in range(4):
            got = product_vectors(np.zeros((0, n, d), dtype=complex))
            assert got.shape == (0, d**n) and got.dtype == complex


def test_quantum_state_validation():
    with pytest.raises(ValueError):
        QuantumState.pure(np.array([1.0, 1.0]))
    st = QuantumState.pure(np.array([1.0, 0.0]))
    assert density(st)[0, 0] == pytest.approx(1.0)


def test_mixed_states_are_given_only_as_factors():
    # A dense matrix is refused, a valid density matrix included, with a
    # message that names the factor form, whether it comes through
    # `mixed` or the constructor.
    for n, dense in ((2, np.eye(4) / 4), (1, np.array([[0.5, 0.2], [0.3, 0.5]])),
                     (1, np.diag([1.5, -0.5]))):
        with pytest.raises(ValueError, match="factor form"):
            QuantumState.mixed(dense)
        with pytest.raises(ValueError, match="factor form"):
            QuantumState(n, "mixed", dense)


def test_factored_state_matches_its_dense_matrix():
    rng = np.random.default_rng(89)
    for n, rank, shift in ((1, 1, 0.0), (3, 1, 0.05), (4, 3, 0.0), (5, 2, 0.01)):
        dim = 2**n
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        w = g * math.sqrt(1.0 - shift * dim) / np.linalg.norm(g)
        state = QuantumState.mixed(FactoredDensity(w, shift))
        rho = w @ w.conj().T + shift * np.eye(dim)
        assert state.kind == "mixed" and state.n == n
        assert np.allclose(density(state), rho, atol=1e-14)
        assert state.data.trace() == pytest.approx(1.0, abs=1e-12)
        x = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        assert np.allclose(state.data @ x, rho @ x, atol=1e-14)
        for _ in range(3):
            p = random_product_params(rng, n, scale=2.0)
            vec = product_state_vector(p).data
            want = float(np.real(np.vdot(vec, rho @ vec)))
            assert fidelity(state, p) == pytest.approx(want, abs=1e-14)


def test_factored_state_validation():
    psi = np.array([1.0, 0.0])
    QuantumState.mixed(FactoredDensity(math.sqrt(0.5) * psi[:, None], 0.25))
    with pytest.raises(ValueError):  # trace 0.5 + 0.5 * 2
        QuantumState.mixed(FactoredDensity(math.sqrt(0.5) * psi[:, None], 0.5))
    with pytest.raises(ValueError):
        QuantumState.mixed(FactoredDensity(psi[:, None], -0.0001))
    with pytest.raises(ValueError):
        QuantumState.mixed(FactoredDensity(np.array([[1.0], [np.nan]])))
    with pytest.raises(ValueError):  # three rows on a qubit register
        QuantumState(1, "mixed", FactoredDensity(np.ones((3, 1)) / math.sqrt(3)))
    with pytest.raises(ValueError):
        QuantumState(1, "pure", FactoredDensity(psi[:, None]))
    w = np.array([[0.6], [0.8j]])
    state = QuantumState.mixed(FactoredDensity(w))
    w[0, 0] = 0.0
    assert state.data.factor[0, 0] == 0.6  # validation keeps a read-only copy
    assert not state.data.factor.flags.writeable


def test_dense_paths_refuse_matrices_above_the_budget():
    # The square random_mixed(12) is refused before anything is allocated,
    # and a factored state at n = 16 reads its fidelity from the factor.
    # The other dense paths are refused before they allocate by
    # test_subspace_tomography_respects_dense_budget (prefix 12),
    # test_contraction_budget_guard (mps_to_state) and
    # test_state_rejects_zero_tensor_and_big_sides (tensor_to_state).
    n = 16
    dim = 2**n
    assert 16 * dim * dim > DENSE_BUDGET
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    factored = QuantumState.mixed(FactoredDensity(math.sqrt(0.9) * psi[:, None], 0.1 / dim))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            random_mixed(12, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert fidelity(factored, ProductParams((0j,) * n)) == pytest.approx(0.9 + 0.1 / dim)


def test_dense_budget_covers_matrices_and_vectors():
    # 16 bytes per complex entry against 64 MiB: 2^11 x 2^11 and 2^22 fit.
    check_dense_budget((2**11, 2**11))
    check_dense_budget((2**22,))
    for shape in ((2**11 + 1, 2**11), (2**22 + 1,)):
        with pytest.raises(ResourceBudgetError, match="budget"):
            check_dense_budget(shape)


def test_haar_product_params_overlap_is_uniform():
    # |<pi|0>|^2 of a Haar site is uniform on [0,1]; check the mean loosely.
    rng = np.random.default_rng(73)
    vals = [product_fidelity(haar_product_params(rng, 1), ProductParams((0.0,))) for _ in range(2000)]
    assert abs(float(np.mean(vals)) - 0.5) < 0.04


def test_unitary_helpers():
    rng = np.random.default_rng(79)
    u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
    full = product_unitary([u1, u2])
    assert np.allclose(full, np.kron(u1, u2))
    assert np.allclose(full @ full.conj().T, np.eye(4), atol=1e-12)


def test_apply_sites_matches_dense_kronecker():
    rng = np.random.default_rng(83)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for n in range(1, 7):
        square = [haar_unitary(2, rng) for _ in range(n)]
        narrow = [gauss(int(r), 2) for r in rng.integers(1, 4, n)]
        for ops in (square, narrow):
            dense = product_unitary(ops)
            for x in (gauss(2**n), gauss(2**n, 3), gauss(2**n, 2**n)):
                got = apply_sites(ops, x)
                assert got.shape == (dense.shape[0],) + x.shape[1:]
                assert np.allclose(got, dense @ x, atol=1e-12)
            rho = gauss(2**n, 2**n)
            sandwich = apply_sites(ops, apply_sites(ops, rho).conj().T).conj().T
            assert np.allclose(sandwich, dense @ rho @ dense.conj().T, atol=1e-10)
    with pytest.raises(ValueError):
        apply_sites([np.eye(2)] * 3, np.zeros(4))


def test_top_pair_matches_eigh():
    # The closed-form top eigenpair of a 2x2 Hermitian matrix: its eigenvalue
    # within 1e-14 of eigh's, its eigenvector parallel to eigh's when the gap
    # is nonzero, and e_1, eigh's choice, when the two eigenvalues coincide.
    rng = np.random.default_rng(3232)
    gapped = []
    for _ in range(500):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        gapped.append(g + g.conj().T)
    gapped += [np.diag(d).astype(complex)
               for d in ((2.0, 1.0), (1.0, 2.0), (-1.0, -3.0), (0.0, 1e-300))]
    degenerate = [c * np.eye(2, dtype=complex) for c in (0.0, 1.0, -2.5)]
    for mat in gapped + degenerate:
        vals, vecs = np.linalg.eigh(mat)
        top, vec = _top_pair(mat)
        assert abs(top - vals[-1]) <= 1e-14
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-15
        if vals[-1] > vals[0]:
            assert abs(np.vdot(vecs[:, -1], vec)) >= 1.0 - 1e-12
        else:
            assert np.array_equal(vec, vecs[:, -1]) and np.array_equal(vec, [0.0, 1.0])
