"""Tensor trains, disentangling rotations, and the sweep learner."""

import logging
import tracemalloc

import numpy as np
import pytest

from prodstate import mps
from prodstate.errors import PromiseViolationError, ResourceBudgetError
from prodstate.instances import planted_mixture, random_mixed
from prodstate.mps import (
    MatrixProductState,
    mps_learn,
    mps_to_state,
    state_to_mps,
)
from prodstate.oracle import StateOracle
from prodstate.states import (
    QuantumState,
    _apply_chain,
    haar_product_params,
    haar_state,
    product_state_vector,
    vector_fidelity,
)

from conftest import density, ghz_state, partial_trace, schmidt_rank, w_state, window_charge


def zero_train(n):
    site = np.zeros((1, 2, 1), dtype=complex)
    site[0, 0, 0] = 1.0
    return MatrixProductState([site] * n)


def ghz_train(n):
    first = np.zeros((1, 2, 2), dtype=complex)
    first[0, 0, 0] = first[0, 1, 1] = 1.0
    middle = np.zeros((2, 2, 2), dtype=complex)
    middle[0, 0, 0] = middle[1, 1, 1] = 1.0
    last = np.zeros((2, 2, 1), dtype=complex)
    last[0, 0, 0] = last[1, 1, 0] = 2.0**-0.5
    return MatrixProductState([first] + [middle] * (n - 2) + [last])


def random_pure(rng, n):
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QuantumState.pure(vec / np.linalg.norm(vec))


def overlap(a: QuantumState, b: QuantumState) -> float:
    return abs(np.vdot(a.data, b.data)) ** 2


def record_tomography(monkeypatch):
    """Record the window maps mps_learn passes to each tomography, and each result's trace."""
    calls = []
    tomography = mps.subnormalized_tomography

    def recorded(o, frame, zeroed_prefix, eps, delta):
        out = tomography(o, frame, zeroed_prefix, eps, delta)
        calls.append((frame.copy(), float(np.real(np.trace(out)))))
        return out

    monkeypatch.setattr(mps, "subnormalized_tomography", recorded)
    return calls


def test_train_validation():
    good = np.zeros((1, 2, 1), dtype=complex)
    good[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        MatrixProductState([])
    with pytest.raises(ValueError):
        MatrixProductState([good.reshape(2, 1)])
    with pytest.raises(ValueError):
        MatrixProductState([np.ones((1, 1, 1), dtype=complex)])
    wide = np.zeros((1, 2, 2), dtype=complex)
    wide[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        MatrixProductState([wide])  # right boundary bond is 2
    with pytest.raises(ValueError):
        MatrixProductState([wide, good])  # 2 vs 1 bond mismatch
    with pytest.raises(ValueError):
        MatrixProductState([2.0 * good])  # norm 2, not 1
    qutrit = np.zeros((1, 3, 1), dtype=complex)
    qutrit[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        MatrixProductState([qutrit])  # physical dimension 3
    m = zero_train(4)
    assert m.n == 4
    assert m.bond_dims == (1, 1, 1, 1, 1)
    assert m.max_bond == 1


def test_contraction_of_basis_train():
    s = mps_to_state(zero_train(5))
    expected = np.zeros(32)
    expected[0] = 1.0
    assert np.allclose(s.data, expected, atol=1e-12)


def test_contraction_of_hand_built_ghz_train():
    n = 6
    s = mps_to_state(ghz_train(n))
    expected = np.zeros(2**n, dtype=complex)
    expected[0] = expected[-1] = 2.0**-0.5
    assert np.allclose(s.data, expected, atol=1e-12)


def test_contraction_budget_guard():
    # 2^23 amplitudes need 128 MiB, above DENSE_BUDGET; the check runs before
    # any allocation.
    with pytest.raises(ResourceBudgetError):
        mps_to_state(zero_train(23))


def test_factorization_round_trip():
    rng = np.random.default_rng(7)
    for n in (2, 4, 5):
        s = random_pure(rng, n)
        m = state_to_mps(s)
        assert overlap(mps_to_state(m), s) >= 1.0 - 1e-10
        for cut in range(1, n):
            assert m.bond_dims[cut] == schmidt_rank(s, cut)


def test_factorization_respects_bond_cap():
    m = state_to_mps(ghz_state(4), max_bond=1)
    assert m.max_bond == 1
    # The best bond-1 approximation of the GHZ state keeps half the mass.
    assert overlap(mps_to_state(m), ghz_state(4)) == pytest.approx(0.5, abs=1e-9)


def test_factorization_rejects_mixed_input():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        state_to_mps(random_mixed(2, rng))


def test_schmidt_rank_examples():
    rng = np.random.default_rng(3)
    params = haar_product_params(rng, 4)
    product = product_state_vector(params)
    for cut in (1, 2, 3):
        assert schmidt_rank(product, cut) == 1
    for cut in (1, 2, 3, 4, 5):
        assert schmidt_rank(ghz_state(6), cut) == 2
    assert schmidt_rank(ghz_state(2), 1) == 2  # Bell pair
    for cut in (1, 2, 3, 4):
        assert schmidt_rank(w_state(5), cut) == 2


def test_schmidt_rank_validation():
    with pytest.raises(ValueError):
        schmidt_rank(ghz_state(3), 0)
    with pytest.raises(ValueError):
        schmidt_rank(ghz_state(3), 3)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        schmidt_rank(random_mixed(2, rng), 1)


def test_learn_planted_product_state():
    rng = np.random.default_rng(21)
    params = haar_product_params(rng, 6)
    hidden = product_state_vector(params)
    o = StateOracle(hidden, backend="exact")
    m = mps_learn(o, 1, 0.2, 0.1)
    assert overlap(mps_to_state(m), hidden) >= 0.8
    assert m.max_bond <= 2 ** (6 - 1)


def test_learn_ghz():
    hidden = ghz_state(6)
    o = StateOracle(hidden, backend="exact")
    m = mps_learn(o, 2, 0.2, 0.1)
    assert overlap(mps_to_state(m), hidden) >= 0.8


def test_learn_w_state():
    hidden = w_state(5)
    o = StateOracle(hidden, backend="exact")
    m = mps_learn(o, 2, 0.2, 0.1)
    assert overlap(mps_to_state(m), hidden) >= 0.8


def test_learn_with_narrow_window_sweeps(monkeypatch):
    # A window narrower than the guarantee level keeps the sweep multi-step
    # at this scale; it is sound here because every postselected marginal
    # has rank <= 2.
    calls = record_tomography(monkeypatch)
    for hidden, r in ((ghz_state(6), 2), (w_state(5), 2)):
        calls.clear()
        o = StateOracle(hidden, backend="exact")
        m = mps_learn(o, r, 0.2, 0.1, kappa_override=2)
        # One tomography per sweep step plus the final one; the first reads
        # the unrotated register, and each later one carries one more map.
        assert len(calls) == hidden.n - 1
        assert [maps.shape for maps, _ in calls] == [(i, 2, 4) for i in range(hidden.n - 1)]
        assert overlap(mps_to_state(m), hidden) >= 0.8
        assert m.max_bond <= 2  # 2^(kappa-1)
        # Postselection can only shed mass, so the recorded traces shrink.
        masses = [mass for _, mass in calls]
        assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))


def planted_bond_two(n, seed):
    """A pure bond-2 tensor train on n qubits, from a Haar state cut to bond 2."""
    rng = np.random.default_rng(seed)
    train = state_to_mps(QuantumState.pure(haar_state(2**n, rng)), max_bond=2)
    return planted_mixture(mps_to_state(train).data, 1.0)


def test_learn_charges_each_tomography_at_the_window(monkeypatch):
    # Each tomography measures only its kappa-site window behind the zeroed
    # prefix, so the learner's copies are the sum, over its n - kappa + 1
    # calls, of n_mu plus the attempts of the 2^kappa budget at the call's
    # mass mu.  Charged at each 2^(n-i) suffix, the run cost about 3e23.
    calls = record_tomography(monkeypatch)
    n, kappa, r, eps, delta = 9, 3, 2, 0.1, 0.1
    hidden = planted_bond_two(n, 40)
    o = StateOracle(hidden, backend="exact")
    mps_learn(o, r, eps, delta, kappa_override=kappa)
    assert len(calls) == n - kappa + 1
    tau = eps * eps / (9.0 * n * n * r**4)
    total = 0
    for i, (maps, mass) in enumerate(calls):
        copies, mu = window_charge(hidden, maps, i, kappa, tau, delta / n)
        assert abs(mu - mass) <= 1e-12
        total += copies
    assert o.copies_consumed == total
    assert o.copies_consumed < 1e19


def test_learn_logs_one_line_per_tomography(caplog):
    n, kappa = 9, 3
    hidden = planted_bond_two(n, 41)
    quiet = StateOracle(hidden, backend="exact")
    expected = mps_learn(quiet, 2, 0.1, 0.1, kappa_override=kappa)
    o = StateOracle(hidden, backend="exact")
    with caplog.at_level(logging.INFO, logger="prodstate.mps"):
        m = mps_learn(o, 2, 0.1, 0.1, kappa_override=kappa)
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "prodstate.mps"]
    assert len(lines) == n - kappa + 1
    for step, line in enumerate(lines, start=1):
        assert line.startswith(f"mps step {step}: kappa={kappa} mu=")
        assert " heavy=" in line
    copies = [int(line.rsplit("copies=", 1)[1]) for line in lines]
    assert all(a < b for a, b in zip(copies, copies[1:]))
    assert copies[-1] == o.copies_consumed == quiet.copies_consumed
    # Logging reads the results; it moves no output.
    assert all(np.array_equal(a, b) for a, b in zip(m.tensors, expected.tensors))


def test_learn_narrow_window_product():
    rng = np.random.default_rng(5)
    hidden = product_state_vector(haar_product_params(rng, 6))
    o = StateOracle(hidden, backend="exact")
    m = mps_learn(o, 1, 0.2, 0.1, kappa_override=2)
    assert overlap(mps_to_state(m), hidden) >= 0.8
    assert m.max_bond <= 2


def test_learn_tolerates_small_noise():
    hidden = ghz_state(4)
    o = StateOracle(hidden, backend="exact", seed=9, noise_opnorm=1e-6)
    m = mps_learn(o, 2, 0.2, 0.1, kappa_override=2)
    assert overlap(mps_to_state(m), hidden) >= 0.8


def test_learn_window_too_narrow_raises():
    # With a single-dimension window the GHZ marginal keeps two heavy
    # eigenvalues, which the learner must flag rather than truncate silently.
    o = StateOracle(ghz_state(4), backend="exact")
    with pytest.raises(PromiseViolationError):
        mps_learn(o, 2, 0.2, 0.1, kappa_override=1)


def test_learn_validation():
    o = StateOracle(ghz_state(3), backend="exact")
    with pytest.raises(ValueError):
        mps_learn(o, 0, 0.2, 0.1)
    with pytest.raises(ValueError):
        mps_learn(o, 2, 0.0, 0.1)
    with pytest.raises(ValueError):
        mps_learn(o, 2, 1.0, 0.1)
    with pytest.raises(ValueError):
        mps_learn(o, 2, 0.2, 0.0)
    with pytest.raises(ValueError):
        mps_learn(o, 2, 0.2, 1.0)
    with pytest.raises(ValueError):
        mps_learn(o, 2, 0.2, 0.1, kappa_override=0)
    with pytest.raises(ValueError):
        mps_learn(o, 2, 0.2, 0.1, kappa_override=4)


def test_heavy_eigenspace_complement_is_small():
    # If two states are eta-close in trace norm, the eigenspace of one with
    # eigenvalues above eta catches all but 2*eta of the other (in operator
    # norm on the complement).
    rng = np.random.default_rng(17)
    for _ in range(40):
        dim = int(rng.choice([8, 16]))
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        base = np.outer(vec, vec.conj())
        junk_a = density(random_mixed(3 if dim == 8 else 4, rng))
        junk_b = density(random_mixed(3 if dim == 8 else 4, rng))
        a = float(rng.uniform(0.0, 0.15))
        b = float(rng.uniform(0.0, 0.15))
        sigma = (1 - a) * base + a * junk_a
        rho = (1 - b) * base + b * junk_b
        eta = float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))
        vals, vecs = np.linalg.eigh(sigma)
        keep = vecs[:, vals > eta]
        proj = keep @ keep.conj().T
        rest = (np.eye(dim) - proj) @ rho @ (np.eye(dim) - proj)
        top = float(np.max(np.abs(np.linalg.eigvalsh(rest))))
        assert top <= 2.0 * eta + 1e-9


def test_projection_loss_bounded_by_schmidt_rank():
    # Projecting one tensor factor onto a subspace whose complement carries
    # little marginal weight moves the quadratic form of a Schmidt-rank-r
    # vector by at most 2*r*sqrt(weight).
    rng = np.random.default_rng(23)
    for _ in range(30):
        da, db, w, r = 8, 4, 4, 2
        raw = rng.normal(size=(da, w)) + 1j * rng.normal(size=(da, w))
        basis, _ = np.linalg.qr(raw)
        proj = basis @ basis.conj().T
        inside = np.kron(proj, np.eye(db))
        body = density(random_mixed(5, rng))
        clean = inside @ body @ inside
        clean /= np.trace(clean).real
        mass = float(rng.uniform(0.0, 0.05))
        rho = (1 - mass) * clean + mass * density(random_mixed(5, rng))

        reduced = partial_trace(rho, 5, range(3))
        rest = (np.eye(da) - proj) @ reduced @ (np.eye(da) - proj)
        eta = float(np.max(np.abs(np.linalg.eigvalsh(rest))))

        left, _ = np.linalg.qr(rng.normal(size=(da, r)) + 1j * rng.normal(size=(da, r)))
        right, _ = np.linalg.qr(rng.normal(size=(db, r)) + 1j * rng.normal(size=(db, r)))
        coeffs = rng.uniform(0.2, 1.0, size=r)
        coeffs /= np.linalg.norm(coeffs)
        phi = sum(c * np.kron(left[:, k], right[:, k]) for k, c in enumerate(coeffs))

        before = float(np.real(phi.conj() @ rho @ phi))
        cut = inside @ phi
        after = float(np.real(cut.conj() @ rho @ cut))
        assert abs(before - after) <= 2.0 * r * np.sqrt(eta) + 1e-9


def test_sweep_step_loss_within_budget(monkeypatch):
    # Each sweep step costs a planted low-bond state at most eps/(2n) in
    # quadratic form, tracked against the rotated-and-postselected states.
    rng = np.random.default_rng(29)
    eps = 0.3
    targets = [ghz_state(4), w_state(4),
               mps_to_state(state_to_mps(random_pure(rng, 4), max_bond=2))]
    calls = record_tomography(monkeypatch)
    for hidden in targets:
        n = hidden.n
        calls.clear()
        o = StateOracle(hidden, backend="exact")
        mps_learn(o, 2, eps, 0.1, kappa_override=2)
        stacks = [maps for maps, _ in calls[1:]]
        assert len(stacks) == n - 2
        rho = density(hidden)
        phi = hidden.data
        previous = float(np.real(phi.conj() @ rho @ phi))
        for i, maps in enumerate(stacks, start=1):
            # The composed rows of step i's window maps.
            frame = _apply_chain(maps, np.eye(2**n))
            assert frame.shape == (2 ** (n - i), 2**n)
            squeeze = frame.conj().T @ frame
            current = float(np.real(phi.conj() @ squeeze @ rho @ squeeze @ phi))
            assert previous - current <= eps / (2 * n) + 1e-6
            assert current <= previous + 1e-9
            previous = current


def test_sweep_first_step_allocates_no_dense_identity():
    # At n=10 one 2^n x 2^n complex matrix is 16.8 MB.  The sweep keeps
    # 2^(kappa-1) x 2^kappa window maps, and the oracle returns kappa-site
    # marginals, so it allocates no such matrix at any step.
    o = StateOracle(ghz_state(10), backend="exact")
    tracemalloc.start()
    try:
        mps_learn(o, 2, 0.1, 0.1, kappa_override=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


@pytest.mark.parametrize("n", [12, 14, 16])
def test_learn_scales_past_the_dense_budget(n):
    # A dense suffix block at n >= 12 is above DENSE_BUDGET; the window maps
    # and kappa-site marginals keep the sweep at O(2^n) memory.
    rng = np.random.default_rng(31 + n)
    train = state_to_mps(QuantumState.pure(haar_state(2**n, rng)), max_bond=2)
    hidden = planted_mixture(mps_to_state(train).data, 1.0)
    o = StateOracle(hidden, backend="exact")
    eps = 0.1
    tracemalloc.start()
    try:
        m = mps_learn(o, 2, eps, 0.1, kappa_override=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64e6
    # The planted state has bond dimension 2, so opt is 1.
    assert vector_fidelity(hidden, mps_to_state(m).data) >= 1.0 - eps
    assert m.max_bond <= 4


def test_learn_on_the_sampling_backend_is_refused_before_any_copy():
    # The sweep's tomography accuracy tau = eps^2 / (9 n^2 r^4) needs far more
    # rate-estimation shots than SHOT_BUDGET, so the first call refuses.
    for kappa in (2, None):
        o = StateOracle(ghz_state(4), backend="sampling", seed=3)
        with pytest.raises(ResourceBudgetError):
            mps_learn(o, 2, 0.2, 0.1, kappa_override=kappa)
        assert o.copies_consumed == 0
