"""Local optimization and the divide-and-conquer high-fidelity learner."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from prodstate import localopt, oracle
from prodstate.errors import PromiseViolationError, ResourceBudgetError
from prodstate.instances import planted_mixture, planted_opt, random_mixed
from prodstate.localopt import (
    LocalOptConfig,
    high_fidelity_learn,
    local_optimize,
    single_site_estimate,
)
from prodstate.oracle import StateOracle, subnormalized_tomography
from prodstate.states import (
    ProductParams,
    QuantumState,
    fidelity,
    haar_isometry,
    haar_product_params,
    product_state_vector,
    recenter_unitaries,
    transform_params,
)

from conftest import (
    dense_mixed,
    density,
    diagonal_state,
    exact_z,
    fidelity_upper_bound,
    grid_product_opt,
    maximally_mixed,
    mixture,
    partial_trace,
    planted_grid_opt,
    random_product_params,
    reference_reduced_oracle,
    weight_distribution,
)


def perturbed_start(rng, target: ProductParams, overlap: float) -> ProductParams:
    """A product state whose squared overlap with the target is exactly `overlap`."""
    n = target.n
    t = math.sqrt(1.0 / overlap ** (1.0 / n) - 1.0)
    local = ProductParams(tuple(t * np.exp(2j * np.pi * rng.random()) for _ in range(n)))
    return transform_params(recenter_unitaries(target), local, inverse=True)


# --- configuration ----------------------------------------------------------


def test_config_ladder_depth_frozen():
    cfg = LocalOptConfig(eps=1 / 3, delta=0.1, margin=1 / 3)
    assert cfg.ladder_depth == 4
    assert cfg.effective_margin == 1 / 3
    assert cfg.max_outer_iters == 59060


def test_config_computes_its_ladder_depth_once(monkeypatch):
    # Every rung's failure budget and the outer cap read the depth; a config
    # computes it at its first read and keeps it, and stays equal to and
    # hashed as a config that has not read it yet.
    logs = []
    log = math.log
    monkeypatch.setattr(localopt.math, "log", lambda x: logs.append(x) or log(x))
    cfg = LocalOptConfig(eps=0.05, delta=0.1, margin=0.4)
    depths = [cfg.ladder_depth for _ in range(3)]
    probs = [cfg.rung_failure_prob(rung) for rung in range(1, depths[0] + 1)]
    assert len(logs) == 1 and depths == [5] * 3 and len(probs) == 5
    twin = LocalOptConfig(eps=0.05, delta=0.1, margin=0.4)
    assert cfg == twin and hash(cfg) == hash(twin)


def test_config_validation():
    with pytest.raises(ValueError):
        LocalOptConfig(eps=0.4, delta=0.1)
    with pytest.raises(ValueError):
        LocalOptConfig(eps=0.1, delta=1.0)
    with pytest.raises(ValueError):
        LocalOptConfig(eps=0.1, delta=0.1, margin=0.6)


def test_rung_failure_budget_within_delta():
    cfg = LocalOptConfig(eps=0.05, delta=0.3)
    probs = [cfg.rung_failure_prob(r) for r in range(1, cfg.ladder_depth + 1)]
    assert all(0 < p < 1 for p in probs)
    assert all(a < b for a, b in zip(probs, probs[1:]))  # coarser rungs fail cheaper
    assert sum(probs) < cfg.delta


# --- certified upper bound ---------------------------------------------------


def test_upper_bound_frozen_values():
    assert fidelity_upper_bound(0.7, 0.0, 0.7 - 2 / 3) == 0.7
    assert fidelity_upper_bound(0.8, 0.1, 0.8 - 2 / 3) == pytest.approx(0.875, abs=1e-12)
    with pytest.raises(ValueError):
        fidelity_upper_bound(0.6, 0.1, -0.01)
    with pytest.raises(ValueError):
        fidelity_upper_bound(2 / 3, 0.1, 0.0)


def test_upper_bound_dominates_grid_optimum():
    rng = np.random.default_rng(12)
    for _ in range(100):
        w = rng.uniform(0.7, 0.95)
        vec = np.zeros(8)
        vec[0] = 1.0
        state = mixture(w, vec, random_mixed(3, rng))
        alpha2 = float(np.real(density(state)[0, 0]))
        c = alpha2 - 2 / 3
        assert c > 0
        bound = fidelity_upper_bound(alpha2, float(np.linalg.norm(exact_z(state))), c)
        assert grid_product_opt(state, pitch=0.4) <= bound + 1e-9


# --- local_optimize ----------------------------------------------------------


def test_local_optimize_fixed_point_at_zero_state():
    vec = np.zeros(8)
    vec[0] = 1.0
    state = QuantumState.pure(vec)
    start = ProductParams((0j, 0j, 0j))
    out = local_optimize(StateOracle(state, backend="exact"), start,
                         LocalOptConfig(eps=0.1, delta=0.2))
    assert out == start
    assert fidelity(state, out) == pytest.approx(1.0, abs=1e-12)


def test_local_optimize_pure_product_from_cold_start():
    rng = np.random.default_rng(5)
    target = random_product_params(rng, 4)
    state = QuantumState.pure(product_state_vector(target).data)
    start = perturbed_start(rng, target, 0.7)
    assert fidelity(state, start) == pytest.approx(0.7, abs=1e-9)
    out = local_optimize(o := StateOracle(state, backend="exact"), start,
                         LocalOptConfig(eps=0.05, delta=0.25))
    assert fidelity(state, out) >= 0.95
    assert o.copies_consumed > 0


def test_local_optimize_planted_mixture_reaches_grid_opt():
    rng = np.random.default_rng(7)
    target = random_product_params(rng, 4)
    mix = planted_mixture(target, 0.9)
    start = perturbed_start(rng, target, 0.8)
    out = local_optimize(StateOracle(mix, backend="exact"), start,
                         LocalOptConfig(eps=0.05, delta=0.25))
    opt = planted_grid_opt(target, 0.9, pitch=0.02)
    assert fidelity(mix, out) >= opt - 0.05


def test_local_optimize_steps_improve_fidelity():
    rng = np.random.default_rng(9)
    target = random_product_params(rng, 3)
    mix = planted_mixture(target, 0.95)
    start = perturbed_start(rng, target, 0.8)
    history = []
    local_optimize(StateOracle(mix, backend="exact"), start,
                   LocalOptConfig(eps=0.05, delta=0.25), history=history)
    assert history  # the cold start forces at least one step
    fids = [fidelity(mix, history[0]["before"])]
    for record in history:
        before = fidelity(mix, record["before"])
        after = fidelity(mix, record["after"])
        assert after - before >= record["step_norm"] ** 2 / 20.0 - 1e-9
        fids.append(after)
    assert all(b >= a for a, b in zip(fids, fids[1:]))


def test_local_optimize_safety_cap(monkeypatch):
    rng = np.random.default_rng(11)
    target = random_product_params(rng, 4)
    mix = planted_mixture(target, 0.9)
    start = perturbed_start(rng, target, 0.8)
    monkeypatch.setattr(LocalOptConfig, "max_outer_iters", property(lambda cfg: 1))
    with pytest.raises(PromiseViolationError):
        local_optimize(StateOracle(mix, backend="exact"), start,
                       LocalOptConfig(eps=0.05, delta=0.25))


def test_local_optimize_sampling_smoke(monkeypatch):
    # End-to-end sampling run at n=1; accuracy claims are exercised at scale
    # on the exact backend, this checks the measurement path itself.
    monkeypatch.setattr(oracle, "SHOT_BUDGET", 200_000_000)
    state = QuantumState.pure(np.array([1.0, 0.0]))
    o = StateOracle(state, backend="sampling", seed=0)
    out = local_optimize(o, ProductParams((0j,)),
                         LocalOptConfig(eps=1 / 3, delta=0.9, margin=1 / 3))
    assert fidelity(state, out) >= 0.5
    assert o.copies_consumed > 0


# --- high_fidelity_learn ------------------------------------------------------


def test_high_fidelity_pure_product():
    rng = np.random.default_rng(13)
    target = random_product_params(rng, 5)
    state = QuantumState.pure(product_state_vector(target).data)
    o = StateOracle(state, backend="exact")
    out = high_fidelity_learn(o, eps=0.1, delta=0.25)
    assert fidelity(state, out) >= 1.0 - 0.1


def test_high_fidelity_planted_six_qubits():
    mix = planted_mixture(ProductParams((0j,) * 6), 0.95)
    opt = planted_opt(0.95, 6)
    assert opt == pytest.approx(0.95 + 0.05 / 64, abs=1e-12)
    # The all-zeros target lies on the Bloch grid, so the grid oracle is exact here.
    assert planted_grid_opt(ProductParams((0j,) * 6), 0.95, pitch=0.05) == pytest.approx(
        opt, abs=1e-12)
    out = high_fidelity_learn(StateOracle(mix, backend="exact"), eps=0.1, delta=0.25)
    assert fidelity(mix, out) >= opt - 0.1


def test_high_fidelity_single_qubit():
    state = diagonal_state([0.9, 0.1])
    out = high_fidelity_learn(StateOracle(state, backend="exact"), eps=0.05, delta=0.2)
    assert fidelity(state, out) >= 0.9 - 0.05
    out = high_fidelity_learn(StateOracle(state, backend="sampling", seed=1),
                              eps=0.15, delta=0.1)
    assert fidelity(state, out) >= 0.9 - 0.15


def test_high_fidelity_validation():
    o = StateOracle(maximally_mixed(2), backend="exact")
    with pytest.raises(ValueError):
        high_fidelity_learn(o, eps=0.2, delta=0.1)
    with pytest.raises(ValueError):
        high_fidelity_learn(o, eps=0.1, delta=0.0)


def test_high_fidelity_charges_halves_that_raise(monkeypatch):
    inner = localopt.single_site_estimate
    calls = []

    def second_raises(o, eps, delta):
        calls.append(delta)
        if len(calls) == 2:
            raise ResourceBudgetError("refused")
        return inner(o, eps, delta)

    monkeypatch.setattr(localopt, "single_site_estimate", second_raises)
    o = StateOracle(maximally_mixed(2), backend="exact")
    delta = 0.1
    with pytest.raises(ResourceBudgetError):
        high_fidelity_learn(o, eps=0.1, delta=delta)
    assert o.copies_consumed == 3 * math.ceil(50 * math.log(2 / (delta / 4)))


def test_high_fidelity_refuses_unaffordable_sampling_run():
    # At eps 0.01 the deepest rung's estimate_z at n = 8 needs 1.04e8 shots,
    # twice SHOT_BUDGET.
    o = StateOracle(maximally_mixed(8), backend="sampling", seed=4)
    start = time.perf_counter()
    with pytest.raises(ResourceBudgetError):
        high_fidelity_learn(o, eps=0.01, delta=0.1)
    assert time.perf_counter() - start < 1.0
    assert o.copies_consumed == 0


def planted_state(n):
    """A 0.95-weight planted Haar product state on n qubits, seeded by n."""
    return planted_mixture(haar_product_params(np.random.default_rng(n), n), 0.95)


@pytest.mark.parametrize("n", [4, 10])
def test_high_fidelity_builds_no_state(monkeypatch, n):
    # Each of the recursion's 2n - 2 half oracles holds its parent's marginal
    # factor, so the learner constructs, and re-validates, no QuantumState.
    o = StateOracle(planted_state(n), backend="exact", seed=n, noise_opnorm=0.02)
    inner, built = QuantumState.__post_init__, []

    def counting(self):
        built.append(self.n)
        inner(self)

    monkeypatch.setattr(QuantumState, "__post_init__", counting)
    high_fidelity_learn(o, eps=0.1, delta=0.25)
    assert built == []


def test_high_fidelity_peak_memory_near_the_factor():
    # At n = 16 the recursion's peak allocation stays within 8x the bytes of
    # the hidden factor: a left half views its parent's factor, a right half
    # holds one axis-moved copy of it, and neither copies it into a state.
    state = planted_state(16)
    o = StateOracle(state, backend="exact", seed=16, noise_opnorm=0.02)
    tracemalloc.start()
    try:
        high_fidelity_learn(o, eps=0.1, delta=0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * state.data.factor.nbytes


@pytest.mark.parametrize("backend, noise, sizes, eps", [
    ("exact", 0.0, range(2, 13), 0.1),
    ("exact", 0.02, range(2, 13), 0.1),
    ("sampling", 0.0, range(2, 6), 0.16),
])
def test_half_oracles_match_the_state_round_trip(monkeypatch, backend, noise, sizes, eps):
    # Holding the marginal factor moves no draw: params, copies and the root
    # generator's state equal those of a run whose halves are new validated
    # states, each with a fresh oracle seeded by one draw from its parent.
    ours = localopt._reduced_oracle
    for n in sizes:
        runs = []
        for reduce in (ours, reference_reduced_oracle):
            monkeypatch.setattr(localopt, "_reduced_oracle", reduce)
            o = StateOracle(planted_state(n), backend=backend, seed=n, noise_opnorm=noise)
            out = high_fidelity_learn(o, eps=eps, delta=0.25)
            runs.append((out, o.copies_consumed, o._rng.bit_generator.state))
        assert runs[0] == runs[1], n


def test_half_oracles_keep_no_parent_chain():
    # A half oracle starts with both read slots empty: after the parent reads
    # through a window-map stack, each half reads exactly what a fresh oracle
    # on the half's state reads, with the same copies and draws.
    rng = np.random.default_rng(71)
    state = random_mixed(6, rng)
    window = haar_isometry(4, 2, rng).conj().T[None]
    for parent_stack in (window[:0], window):
        for sites in (range(3), range(3, 6)):
            for stack in (window[:0], window):
                parent = StateOracle(state, backend="exact", seed=7, noise_opnorm=0.05)
                subnormalized_tomography(parent, parent_stack, len(parent_stack), 0.3, 0.1)
                child = localopt._reduced_oracle(parent, list(sites))
                fresh = StateOracle(QuantumState.mixed(child.rho), backend="exact",
                                    noise_opnorm=0.05)
                fresh._rng.bit_generator.state = child._rng.bit_generator.state
                got = subnormalized_tomography(child, stack, len(stack), 0.3, 0.1)
                want = subnormalized_tomography(fresh, stack, len(stack), 0.3, 0.1)
                assert np.array_equal(got, want)
                assert child.copies_consumed == fresh.copies_consumed
                assert child._rng.bit_generator.state == fresh._rng.bit_generator.state


def single_site_shots(eps, delta):
    """Shots per Pauli axis that `single_site_estimate` charges at eps and delta."""
    return max(math.ceil(50 * math.log(2 / delta)),
               math.ceil(3 * math.log(6 / delta) / (eps * (2 / 3 + 2 * eps))))


def test_single_site_estimate_copies():
    # The constant term wins at eps 0.1, delta 0.1; the eps term at delta 0.2
    # and at small eps.
    for eps, delta, shots in ((0.1, 0.1, 150), (0.1, 0.2, 118), (0.005, 0.1, 3631)):
        assert single_site_shots(eps, delta) == shots
        for backend in ("exact", "sampling"):
            o = StateOracle(diagonal_state([0.8, 0.2]), backend=backend, seed=3)
            single_site_estimate(o, eps, delta)
            assert o.copies_consumed == 3 * shots


def test_one_qubit_learner_meets_small_eps():
    # At n = 1 the learner sizes its shots, and the exact backend its noise,
    # by eps: on planted w 0.95 states at eps 0.005, delta 0.1, seeds 0-39,
    # no output falls below opt - eps on either backend.  Sized by delta
    # alone, 5 of 40 sampling runs and 11 of 40 noisy exact runs did.
    eps, delta = 0.005, 0.1
    for backend, noise in (("sampling", 0.0), ("exact", 0.2)):
        misses = 0
        for seed in range(40):
            params = haar_product_params(np.random.default_rng(seed), 1)
            state = planted_mixture(params, 0.95)
            o = StateOracle(state, backend=backend, seed=seed, noise_opnorm=noise)
            out = high_fidelity_learn(o, eps, delta)
            misses += fidelity(state, out) < planted_opt(0.95, 1) - eps
            assert o.copies_consumed == 3 * single_site_shots(eps, delta) == 10_893
        assert misses == 0, (backend, misses)


def test_single_site_estimate_matches_an_eigh_reference(monkeypatch):
    # The closed-form 2x2 top eigenvector gives the fidelity eigh's gives, on
    # random, noisy, near-degenerate and degenerate one-qubit states.
    rng = np.random.default_rng(41)
    states = [QuantumState.pure(product_state_vector(random_product_params(rng, 1)).data)
              for _ in range(5)]
    states += [random_mixed(1, rng) for _ in range(5)]
    states += [diagonal_state([0.5 + d, 0.5 - d])
               for d in (1e-9, 0.0)]
    states.append(maximally_mixed(1))
    closed = localopt._top_pair

    def by_eigh(mat):
        vals, vecs = np.linalg.eigh(mat)
        return vals[-1], vecs[:, -1]

    for state in states:
        for backend, noise in (("exact", 0.0), ("exact", 0.3), ("sampling", 0.0)):
            fids = []
            for top_pair in (closed, by_eigh):
                monkeypatch.setattr(localopt, "_top_pair", top_pair)
                o = StateOracle(state, backend=backend, seed=6, noise_opnorm=noise)
                fids.append(fidelity(state, single_site_estimate(o, 0.1, 0.1)))
            assert abs(fids[0] - fids[1]) <= 1e-12


# --- distribution and recurrence lemmas --------------------------------------


def test_weight_one_probability_floor():
    # Product distributions: Pr[weight 1] >= -p0 log p0.
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        probs = rng.random(n)
        dist = weight_distribution(tuple(probs))
        p0 = dist[0]
        floor = -p0 * math.log(p0) if p0 > 0 else 0.0
        p1 = dist[1] if n >= 1 else 0.0
        assert p1 >= floor - 1e-12


def test_weight_two_probability_ceiling():
    # Product distributions: Pr[weight >= 2] <= 2 (1 - sqrt(p0))^2.
    rng = np.random.default_rng(19)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        probs = rng.random(n)
        dist = weight_distribution(tuple(probs))
        p0 = dist[0]
        tail = float(np.sum(dist[2:])) if n >= 2 else 0.0
        assert tail <= 2.0 * (1.0 - math.sqrt(p0)) ** 2 + 1e-12


def test_fidelity_of_tensored_halves():
    # If each half approximates its marginal, the tensor approximates the whole:
    # combined fidelity >= 1 - (1 - F_left) - (1 - F_right).
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        cut = int(rng.integers(1, n))
        state = random_mixed(n, rng)
        p_left = random_product_params(rng, cut)
        p_right = random_product_params(rng, n - cut)
        f_left = fidelity(dense_mixed(
            partial_trace(density(state), n, list(range(cut)))), p_left)
        f_right = fidelity(dense_mixed(
            partial_trace(density(state), n, list(range(cut, n)))), p_right)
        f_both = fidelity(state, p_left.concat(p_right))
        assert f_both >= f_left + f_right - 1.0 - 1e-12


def test_damped_recurrence_convergence():
    # y <- y + D(D - y)/r climbs to D - eps within (r/D) log((D - c)/eps) steps.
    rng = np.random.default_rng(29)
    for _ in range(100):
        d = rng.uniform(0.1, 2.0)
        r = rng.uniform(1.05, 20.0) * d
        c = rng.uniform(0.0, 0.9) * d
        eps = rng.uniform(1e-4, 0.1) * d
        steps = math.ceil((r / d) * math.log((d - c) / eps)) + 1
        y = c
        for _ in range(steps):
            if y >= d - eps:
                break
            y = y + d * (d - y) / r
        assert y >= d - eps - 1e-12
