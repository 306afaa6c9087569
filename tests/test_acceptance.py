"""Acceptance gate: ten end-to-end criteria, one test each.

Each test pins its own tolerances and wall-clock budget; the conftest hook
prints one PASS/FAIL summary line per criterion after the run.
"""

import math
import time

import numpy as np
import pytest

import test_polyopt
from prodstate.cli import ExperimentConfig, generate, run
from prodstate.cover import CoverParams, DESK_OVERRIDES, build_cover, estimate_opt
from prodstate.discrete import DiscreteClass, class_fidelity_census, discrete_learn, member_vector
from prodstate.hardness import (
    Tensor4,
    clique_tensor,
    random_isometry_embed,
    recover_clique_number,
    spectral_norm_oracle,
    tensor_to_state,
)
from prodstate.instances import (
    clique_number,
    graphs_up_to_4_vertices,
    planted_mixture,
    random_mixed,
)
from prodstate.localopt import LocalOptConfig, high_fidelity_learn, local_optimize
from prodstate.mps import mps_learn, mps_to_state
from prodstate.oracle import StateOracle
from prodstate.polyopt import evaluate_poly, solve_constrained
from prodstate.serialize import canonical_dumps, save_json
from prodstate.states import (
    ProductParams,
    QuantumState,
    fidelity,
    product_state_vector,
    recenter_unitaries,
    tangent_distance,
    transform_params,
    weight_tail_bound,
)

from conftest import (
    bell_state,
    excitation_probs,
    ghz_state,
    maximally_mixed,
    mean_excitation,
    planted_grid_opt,
    product_fidelity,
    random_product_params,
    reference_constrained_max,
    schmidt_rank,
    verify_cover,
    w_state,
    weight_distribution,
)


def elapsed_under(started: float, budget_seconds: float) -> bool:
    return time.perf_counter() - started < budget_seconds


def perturbed_start(rng, target: ProductParams, overlap: float) -> ProductParams:
    n = target.n
    t = math.sqrt(1.0 / overlap ** (1.0 / n) - 1.0)
    local = ProductParams(
        tuple(t * np.exp(2j * np.pi * rng.random()) for _ in range(n)))
    return transform_params(recenter_unitaries(target), local, inverse=True)


def random_class(rng, n, s):
    menus = []
    for _ in range(n):
        menu = []
        for _ in range(s):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            menu.append(v / np.linalg.norm(v))
        menus.append(menu)
    return DiscreteClass(menus)


def test_criterion_01_geometry():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        p = random_product_params(rng, n, scale=3.0)
        q = random_product_params(rng, n, scale=3.0)
        f = product_fidelity(p, q)
        d2 = tangent_distance(p, q) ** 2
        # two-sided tangent-distance / fidelity bound
        if not (math.log(1.0 / f) <= d2 + 1e-9 and d2 <= 1.0 / f - 1.0 + 1e-9):
            violations += 1
        # exponential sandwich against the center
        c = random_product_params(rng, n, scale=0.9)
        zero = ProductParams((0.0,) * n)
        fc = product_fidelity(c, zero)
        dc2 = tangent_distance(c, zero) ** 2
        quartic = float(np.sum(np.abs(c.asarray()) ** 4))
        if not (math.exp(-dc2) <= fc + 1e-12
                and fc <= math.exp(-dc2 + quartic) + 1e-12):
            violations += 1
        # trace-distance bound (half trace norm below tangent distance)
        delta = (product_state_vector(p).density()
                 - product_state_vector(q).density())
        trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
        if not 0.5 * trace_norm <= tangent_distance(p, q) + 1e-9:
            violations += 1
        # euclidean comparison for capped parameters
        a = random_product_params(rng, n, scale=1.0)
        b = random_product_params(rng, n, scale=1.0)
        d = tangent_distance(a, b)
        l2 = float(np.linalg.norm(a.asarray() - b.asarray()))
        slack = d * float(np.max(np.abs(a.asarray()) * np.abs(b.asarray())))
        if not abs(d - l2) <= slack + 1e-9:
            violations += 1
    assert violations == 0
    # exact equalities
    plus, zero1 = ProductParams((1.0,)), ProductParams((0.0,))
    assert abs(tangent_distance(plus, zero1) - 1.0) <= 1e-12
    p = random_product_params(rng, 4, scale=2.0)
    assert tangent_distance(p, p) <= 1e-12
    assert elapsed_under(started, 10.0)


def test_criterion_02_tail_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    violations = 0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        p = random_product_params(rng, n, scale=2.5)
        mu = mean_excitation(p)
        dist = weight_distribution(excitation_probs(p))
        for d in range(int(math.ceil(mu)), n + 1):
            if float(dist[d:].sum()) > weight_tail_bound(mu, d) + 1e-12:
                violations += 1
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        site = rng.uniform(0.0, 1.0, size=n)
        dist = weight_distribution(site)
        p0 = float(dist[0])
        p1 = float(dist[1]) if n >= 1 else 0.0
        tail2 = float(dist[2:].sum())
        entropy = 0.0 if p0 == 0.0 else -p0 * math.log(p0)
        if p1 < entropy - 1e-12:
            violations += 1
        if tail2 > 2.0 * (1.0 - math.sqrt(p0)) ** 2 + 1e-12:
            violations += 1
    assert violations == 0
    assert elapsed_under(started, 30.0)


def test_criterion_03_high_fidelity_learner():
    started = time.perf_counter()
    sizes = (2, 4, 6, 8)
    weights = (1.0, 0.95, 0.9)
    for case in range(20):
        n = sizes[case % 4]
        w = weights[case % 3]
        rng = np.random.default_rng(1300 + case)
        target = random_product_params(rng, n)
        state = (product_state_vector(target) if w == 1.0
                 else planted_mixture(target, w))
        o = StateOracle(state, backend="exact", seed=case)
        learned = high_fidelity_learn(o, 0.05, 0.1)
        opt_grid = planted_grid_opt(target, w, pitch=0.02)
        assert fidelity(state, learned) >= opt_grid - 0.05, (n, w, case)
    # every executed local step improves fidelity by >= |a|^2/20 - 1e-9
    for case in (0, 7, 14):
        rng = np.random.default_rng(1350 + case)
        n = sizes[case % 4]
        target = random_product_params(rng, n)
        mix = planted_mixture(target, 0.95)
        history = []
        local_optimize(StateOracle(mix, backend="exact", seed=case),
                       perturbed_start(rng, target, 0.8),
                       LocalOptConfig(eps=0.05, delta=0.25), history=history)
        assert history
        for record in history:
            gain = (fidelity(mix, record["after"])
                    - fidelity(mix, record["before"]))
            assert gain >= record["step_norm"] ** 2 / 20.0 - 1e-9
    assert elapsed_under(started, 300.0)


def test_criterion_04_cover_soundness():
    started = time.perf_counter()
    plant3 = ProductParams((1.0, -1.0j, 0.0))
    plant4 = ProductParams((1.0, -1.0j, 0.0, 1.0))
    psi3 = product_state_vector(plant3).data
    instances = [
        product_state_vector(plant4),
        bell_state(),
        QuantumState.mixed(0.7 * np.outer(psi3, psi3.conj()) + 0.3 * np.eye(8) / 8),
        product_state_vector(plant3),
    ]
    audited = 0
    for eta in (0.5, 0.8):
        params = CoverParams(eta, eta / 4.0, 0.05, DESK_OVERRIDES)
        for idx, state in enumerate(instances):
            o = StateOracle(state, backend="exact", seed=idx)
            cover = build_cover(o, params)
            assert len(cover) <= 6.0 / eta + 1e-9
            report = verify_cover(state, cover, trials=10_000,
                                  rng_seed=1400 + idx)
            assert not report["low_fidelity"], (eta, idx, report)
            assert not report["close_pairs"], (eta, idx, report)
            assert not report["uncovered"], (eta, idx, report)
            audited += 1
    assert audited == 8
    assert elapsed_under(started, 8 * 600.0)


def test_criterion_05_opt_estimation():
    started = time.perf_counter()
    eps = 0.05
    est, witness = estimate_opt(StateOracle(bell_state(), seed=0), eps, 0.05,
                                overrides=DESK_OVERRIDES)
    assert abs(est - 0.5) <= 2 * eps, est
    assert witness is not None

    # pure product plants made of LOCAL_NET states: some branch root is the
    # plant itself, so the cover must return it
    for seed, z in ((1, (1.0, -1.0j)), (2, (1.0, -1.0j, 0.0))):
        state = product_state_vector(ProductParams(z))
        est, witness = estimate_opt(StateOracle(state, seed=seed), eps, 0.05,
                                    overrides=DESK_OVERRIDES)
        assert est >= 1.0 - 2 * eps, est
        assert witness is not None and fidelity(state, witness) >= 1.0 - 2 * eps

    for n in (2, 3):
        est, _ = estimate_opt(StateOracle(maximally_mixed(n), seed=n), eps,
                              0.05, overrides=DESK_OVERRIDES)
        assert est <= 2.0**-n + 2 * eps, (n, est)
    assert elapsed_under(started, 600.0)


def test_criterion_06_polyopt_oracle_equivalence():
    started = time.perf_counter()
    eps, oracle_slack = 0.1, 0.05
    for seed in range(1600, 1630):
        sys, dom = test_polyopt.seeded_instance(seed)
        x = solve_constrained(sys, dom, eps=eps)
        assert x is not None
        assert dom.contains(x, factor=2.0)  # membership recheck in D^{2 gamma}
        val = abs(evaluate_poly(sys, x))
        lo = reference_constrained_max(sys, dom, restarts=40, seed=seed)
        hi = reference_constrained_max(sys, dom, restarts=40, seed=seed,
                                       gamma_factor=2.0)
        grid_err = test_polyopt.net_covering_error(sys, dom)
        assert val >= lo - eps - grid_err - oracle_slack, seed
        assert val <= hi + oracle_slack, seed
    for seed in range(1690, 1695):
        sys, dom = test_polyopt.seeded_instance(seed, feasible=False)
        assert solve_constrained(sys, dom, eps=eps) is None
    assert elapsed_under(started, 300.0)


def test_criterion_07_discrete_learner():
    started = time.perf_counter()
    rng = np.random.default_rng(1007)
    for case in range(20):
        n = int(rng.integers(1, 4))
        s = int(rng.integers(2, 5))
        cls = random_class(rng, n, s)
        anchor = member_vector(
            cls, tuple(int(rng.integers(len(m))) for m in cls.site_states))
        weight = float(rng.uniform(0.3, 0.9))
        noise = random_mixed(n, rng).density()
        rho = QuantumState.mixed(
            weight * np.outer(anchor, anchor.conj()) + (1 - weight) * noise)
        eta = float(rng.uniform(0.35, 0.7))
        eps = eta / 3.0
        out = discrete_learn(StateOracle(rho, seed=1700 + case), cls, eta,
                             eps, 0.05)
        # containment: P_eta <= S <= P_{eta - eps}, zero violations
        assert class_fidelity_census(rho, cls, eta) <= out, case
        assert out <= class_fidelity_census(rho, cls, eta - eps), case
        # census never violates the size bound (log space: near-parallel
        # menus push the raw bound over float range)
        count = len(class_fidelity_census(rho, cls, eta))
        if count:
            ratio = math.log(2.0 / eta) / math.log(1.0 / cls.gamma)
            if cls.gamma >= 1.0 / math.e:
                assert math.log(count) <= ratio * math.log(10 * n * s), case
            assert (math.log(count) <= math.log(4.0 / eta)
                    + math.floor(ratio) * math.log(n * s) + 1e-12), case
    assert elapsed_under(started, 120.0)


def test_criterion_08_mps_learner():
    started = time.perf_counter()
    rng = np.random.default_rng(1008)
    product_target = product_state_vector(random_product_params(rng, 6))
    cases = [
        (product_target, 1, 1, None),
        (ghz_state(6), 2, 2, None),
        (w_state(5), 2, 2, None),
        (ghz_state(6), 2, 2, 2),   # narrow-window sweep path
        (w_state(5), 2, 2, 2),
    ]
    for state, r, expected_rank, kappa_override in cases:
        n = state.n
        o = StateOracle(state, backend="exact", seed=n)
        learned = mps_learn(o, r, 0.2, 0.1, kappa_override=kappa_override)
        tau = 0.2**2 / (9.0 * n * n * r**4)
        kappa = (kappa_override if kappa_override is not None
                 else min(n, math.ceil(math.log2(1.0 / tau)) + 1))
        assert learned.max_bond <= 2 ** (kappa - 1)
        approx = mps_to_state(learned)
        fid = abs(np.vdot(approx.data, state.data)) ** 2
        assert fid >= 1.0 - 0.2, (n, r, kappa_override, fid)
        # Schmidt-rank diagnostics at every interior cut
        for cut in range(1, n):
            assert schmidt_rank(approx, cut) == expected_rank
    assert elapsed_under(started, 300.0)


def test_criterion_09_hardness_benchmark():
    started = time.perf_counter()
    for name, graph in graphs_up_to_4_vertices():
        nu = spectral_norm_oracle(clique_tensor(graph))
        assert recover_clique_number(nu) == clique_number(graph), name

    rng = np.random.default_rng(1009)
    for _ in range(100):
        m = int(rng.choice([2, 3]))
        t_raw = rng.standard_normal((m,) * 4) + 1j * rng.standard_normal((m,) * 4)
        t = Tensor4(t_raw)
        psi = tensor_to_state(t)
        # the embedding sends T to amplitudes T/|T|_F on one-hot strings
        assert abs(np.linalg.norm(psi.data) * t.fro - t.fro) <= 1e-12 * t.fro
        assert np.count_nonzero(psi.data) == np.count_nonzero(t.entries)

    base_t = Tensor4(rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4))
    lifted = random_isometry_embed(base_t, 6, seed=9)
    assert abs(lifted.fro - base_t.fro) <= 1e-10
    assert abs(spectral_norm_oracle(lifted) - spectral_norm_oracle(base_t)) <= 1e-2
    assert elapsed_under(started, 180.0)


def test_criterion_10_reproducibility(tmp_path):
    # identical config + seed => identical report, timestamps excluded
    payload_a = generate("planted-product", {"n": 3, "w": 0.9}, seed=42)
    payload_b = generate("planted-product", {"n": 3, "w": 0.9}, seed=42)
    assert canonical_dumps(payload_a) == canonical_dumps(payload_b)

    inst = tmp_path / "inst.json"
    save_json(inst, payload_a)
    for algorithm, extra in (("highfid", {}), ("estimate-opt", {"eps": 0.1}),
                             ("mps", {"rank": 1, "eps": 0.2})):
        config = ExperimentConfig(algorithm=algorithm, instance=str(inst),
                                  seed=7, **extra)
        first = run(config)
        second = run(config)
        first.pop("timing")
        second.pop("timing")
        assert canonical_dumps(first) == canonical_dumps(second), algorithm

    # the cover audit is seeded too
    state = product_state_vector(ProductParams((1.0, -1.0j)))
    cover = build_cover(StateOracle(state, seed=3),
                        CoverParams(0.8, 0.2, 0.05, DESK_OVERRIDES))
    r1 = verify_cover(state, cover, trials=2000, rng_seed=5)
    r2 = verify_cover(state, cover, trials=2000, rng_seed=5)
    assert r1 == r2
