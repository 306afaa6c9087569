"""Cover construction, verification, and best-product-fidelity estimation."""

import dataclasses
import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from prodstate import cover as cover_module
from prodstate import polyopt
from prodstate.cli import generate
from prodstate.cover import (
    Cover,
    CoverOverrides,
    CoverParams,
    DESK_OVERRIDES,
    LOCAL_NET,
    _batch_overlap,
    _extend,
    _may_reach,
    _prepare_root,
    _purchase,
    build_cover,
    estimate_opt,
    verify_cover,
)
from prodstate.errors import ResourceBudgetError
from prodstate.instances import planted_mixture
from prodstate.oracle import StateOracle
from prodstate.serialize import state_from_json
from prodstate.states import (
    ProductParams,
    QuantumState,
    fidelity,
    haar_product_params,
    partial_trace,
    product_state_vector,
    product_unitary,
    recenter_unitaries,
    tangent_distance,
    transform_params,
)

from conftest import (
    maximally_mixed,
    reference_extend,
    reference_overlap,
    reference_prepare_root,
    reference_rotated_cut,
    reference_weight_leq_indices,
)


def pure_oracle(z, seed=0):
    return StateOracle(product_state_vector(ProductParams(z)), seed=seed)


def basis_oracle(n, seed=0):
    vec = np.zeros(2**n)
    vec[0] = 1.0
    return StateOracle(QuantumState.pure(vec), seed=seed)


# --- parameters ---------------------------------------------------------------


def test_params_radii():
    p = CoverParams(0.5, 0.1, 0.05)
    assert p.b == pytest.approx(4.0)
    assert p.b_far == pytest.approx(6.0)
    assert p.member_cap == 14


def test_params_validation():
    with pytest.raises(ValueError):
        CoverParams(0.5, 0.2, 0.05)  # eps >= eta/3
    with pytest.raises(ValueError):
        CoverParams(1.5, 0.1, 0.05)
    with pytest.raises(ValueError):
        CoverParams(0.5, 0.1, 0.0)
    with pytest.raises(ValueError):
        CoverParams(0.5, -0.1, 0.05)


def test_local_net_covers_single_site():
    # Every single-site state is within tangent distance ~0.52 of a net state
    # (the worst case sits at a Bloch-octahedron face center), so the roots
    # the builder branches over always include a 1-tangent-close start.
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        z = haar_product_params(rng, 1)
        best = min(tangent_distance(z, ProductParams((w,))) for w in LOCAL_NET)
        worst = max(worst, best)
    assert worst <= 0.52


# --- branch search -------------------------------------------------------------


def extend_candidate(truncation, members, root, params):
    """Buy the truncation, prepare `root` on it, then search that one branch."""
    rho, ceiling, marginals = _purchase(truncation)
    return _extend(_prepare_root(marginals, root), rho, ceiling, members, params)


def both_searches(truncation, root, members, params):
    """The branch search and its dense per-root reference, as two thunks
    searching one seeded branch under the purchase's ceiling."""
    rho, ceiling, marginals = _purchase(truncation)
    return (lambda: _extend(_prepare_root(marginals, root), rho, ceiling, members, params),
            lambda: reference_extend(reference_prepare_root(truncation, root, params), ceiling,
                                     members, params))


def test_extend_finds_planted_origin():
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    params = CoverParams(0.8, 0.2, 0.1, DESK_OVERRIDES)
    cand = extend_candidate(rho, [], ProductParams((0.0, 0.0, 0.0)), params)
    assert cand is not None
    state = QuantumState.mixed(rho)
    assert fidelity(state, cand) >= 0.6


def test_extend_respects_far_constraint():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    params = CoverParams(0.96, 0.1, 0.1, DESK_OVERRIDES)
    origin = ProductParams((0.0, 0.0))
    cand = extend_candidate(rho, [origin], origin, params)
    assert cand is None or tangent_distance(cand, origin) >= params.b


def test_extend_zero_matrix_is_bottom():
    rho = np.zeros((4, 4), dtype=complex)
    params = CoverParams(0.8, 0.2, 0.1, DESK_OVERRIDES)
    assert extend_candidate(rho, [], ProductParams((0.0, 0.0)), params) is None


def test_extend_net_budget_guard():
    pin = product_state_vector(ProductParams((0.5 + 0.3j, -0.7j))).data
    rho = 0.75 * np.outer(pin, pin.conj()) + 0.25 * np.eye(4) / 4
    params = CoverParams(0.8, 0.2, 0.1, CoverOverrides(net_budget=50))
    with pytest.raises(ResourceBudgetError):
        extend_candidate(rho, [], ProductParams((0.0, 0.0)), params)


def seeded_branch(rng, m, k):
    """(truncation, root, members) of one seeded search: a product state
    planted near a Haar root, mixed with a random rank-2 state, and k members,
    each either near the root or Haar-drawn."""
    root = haar_product_params(rng, m)
    units = recenter_unitaries(root)

    def near(scale):
        offset = scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        return transform_params(units, ProductParams(tuple(offset)), inverse=True)

    pin = product_state_vector(near(0.5)).data
    noise = rng.standard_normal((2**m, 2)) + 1j * rng.standard_normal((2**m, 2))
    w = rng.uniform(0.6, 0.95)
    truncation = (w * np.outer(pin, pin.conj())
                  + (1.0 - w) * noise @ noise.conj().T / np.linalg.norm(noise) ** 2)
    members = [near(1.0) if j % 2 == 0 else haar_product_params(rng, m) for j in range(k)]
    return truncation, root, members


def test_extend_matches_the_per_support_search():
    rng = np.random.default_rng(2323)
    found = 0
    for m, k, cap in itertools.product(range(1, 7), range(3), (None, 1, 2)):
        truncation, root, members = seeded_branch(rng, m, k)
        params = CoverParams(float(rng.uniform(0.45, 0.75)), 0.1, 0.1,
                             CoverOverrides(degree_cap=cap))
        search, reference = both_searches(truncation, root, members, params)
        got = search()
        assert got == reference()
        found += got is not None
    assert 10 <= found <= 44


def test_extend_ceiling_stop_comes_before_an_over_budget_support():
    # The nets hold 1, 25, 25 and 25 raw points, so a budget of 30 is
    # exceeded at the second site axis.  At the planted root the empty
    # support already scores the ceiling, so the search returns the root.
    rng = np.random.default_rng(41)
    root, other = haar_product_params(rng, 3), haar_product_params(rng, 3)
    pin = product_state_vector(root).data
    rho = np.outer(pin, pin.conj())
    params = CoverParams(0.8, 0.2, 0.1, CoverOverrides(net_budget=30))
    search, reference = both_searches(rho, root, [], params)
    got = search()
    assert got == reference()
    assert fidelity(QuantumState.mixed(rho), got) >= 1.0 - 1e-9
    # Away from it the ceiling is out of reach and the budget error comes.
    for search in both_searches(rho, other, [], params):
        with pytest.raises(ResourceBudgetError):
            search()


def test_site_bound_keeps_every_point_that_reaches_the_threshold():
    rng = np.random.default_rng(606)
    dropped = 0
    for m, cap in itertools.product((1, 3, 5), (None, 1)):
        truncation, root, _ = seeded_branch(rng, m, 0)
        params = CoverParams(0.5, 0.1, 0.1, CoverOverrides(degree_cap=cap))
        _, rho = reference_prepare_root(truncation, root, params)
        marginals = site_marginals(rho)
        if cap is None:
            # An uncut root's rotated purchase marginals are its matrix's marginals.
            _, _, rotated = _prepare_root(_purchase(truncation)[2], root)
            assert np.abs(rotated - marginals).max() <= 1e-12
            marginals = rotated
        points = 1.2 * (rng.standard_normal((400, m)) + 1j * rng.standard_normal((400, m)))
        vals = reference_overlap(rho, points)
        for thresh in np.quantile(vals, [0.5, 0.9, 0.99]):
            keep = _may_reach(marginals, points, thresh)
            assert keep[vals >= thresh - 1e-12].all()
            dropped += int((~keep).sum())
    assert dropped > 1000
    # Against a pure product state, a point that differs from it at one site
    # has exactly that site's bound as its overlap, so the mask is tight.
    plant = haar_product_params(rng, 3)
    pin = product_state_vector(plant).data
    rho = np.outer(pin, pin.conj())
    points = np.tile(plant.asarray(), (20, 1))
    points[:, 1] += 0.8 * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
    marginals = _purchase(rho)[2]
    for z, val in zip(points, reference_overlap(rho, points)):
        assert _may_reach(marginals, z[None], val - 1e-6)[0]
        assert not _may_reach(marginals, z[None], val + 1e-6)[0]


def test_candidate_nets_are_the_ball_filtered_cube():
    # Each net is the ball-filtered cube in lex order, built by the pruned
    # lattice without ever holding the cube: the q = 3 build allocates less
    # than a quarter of the cube's 2q real coordinates.
    cover_module._net.cache_clear()
    radius = cover_module._NET_RADIUS
    for q, size, raw in ((0, 1, 1), (1, 13, 25), (2, 321, 625), (3, 10_237, 117_649)):
        pitch = cover_module._NET_PITCH / math.sqrt(2.0 * max(q, 1))
        steps = math.floor(radius / pitch)
        cube = list(itertools.product(range(-steps, steps + 1), repeat=2 * q))
        want = []
        for ks in cube:
            reals = np.array(ks, dtype=float) * pitch
            if (reals**2).sum() <= radius**2:
                want.append(reals[:q] + 1j * reals[q:])
        axis = polyopt._lattice_axis(q, radius, cover_module._NET_PITCH)
        assert len(cube) == raw == len(axis) ** (2 * q)
        tracemalloc.start()
        try:
            coords = cover_module._net(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert coords.shape == (size, q) and not coords.flags.writeable
        assert np.array_equal(coords, np.array(want, dtype=complex).reshape(size, q))
        assert q < 3 or peak < 2 * q * 8 * raw / 4
    cover_module._net.cache_clear()


def test_extend_refuses_an_unaffordable_net_before_building_it(monkeypatch):
    # Four generic members span q = 4 at the empty support, whose raw cube
    # of 9^8 points is above the default budget: no lattice of that q is built.
    built = []
    inner = cover_module._pruned_ball

    def recording_lattice(q, *rest):
        built.append(q)
        return inner(q, *rest)

    monkeypatch.setattr(cover_module, "_pruned_ball", recording_lattice)
    cover_module._net.cache_clear()
    rng = np.random.default_rng(8)
    truncation, root, members = seeded_branch(rng, 5, 4)
    for search in both_searches(truncation, root, members, CoverParams(0.5, 0.1, 0.1)):
        with pytest.raises(ResourceBudgetError, match="43046721"):
            search()
    assert built == []
    cover_module._net.cache_clear()


def test_default_knobs_run_the_desk_nets():
    # With no overrides the search runs the same nets as DESK_OVERRIDES and
    # answers at once, with a witness.
    assert CoverOverrides() == DESK_OVERRIDES
    start = time.perf_counter()
    got = estimate_opt(pure_oracle((0.3 + 0.2j,)), 0.1, 0.1)
    assert time.perf_counter() - start < 1.0
    assert got[1] is not None
    assert got == estimate_opt(pure_oracle((0.3 + 0.2j,)), 0.1, 0.1,
                               overrides=DESK_OVERRIDES)


def test_out_of_range_knobs_are_refused():
    for bad in ({"degree_cap": -1}, {"net_budget": 0}, {"tomo_eps": -1.0}, {"tomo_eps": 0.0},
                {"tomo_eps": 1.0}, {"tomo_eps": 2.0}):
        with pytest.raises(ValueError):
            CoverOverrides(**bad)
    assert CoverParams(0.5, 0.1, 0.1, CoverOverrides(degree_cap=0)).degree(3) == 0


def test_batch_overlap_matches_three_operand_einsum(monkeypatch):
    # A small element budget splits the 700 rows into several row blocks.
    # Root-frame rows are mapped back by the dense adjoint frame of a Haar root.
    monkeypatch.setattr(cover_module, "_OVERLAP_ELEMENTS", 2**10)
    rng = np.random.default_rng(17)
    for m, count in ((1, 5), (3, 700), (6, 40)):
        a = rng.standard_normal((2**m, 2**m)) + 1j * rng.standard_normal((2**m, 2**m))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        _, adjoints, _ = _prepare_root(np.zeros((m, 2, 2)), haar_product_params(rng, m))
        points = 1.5 * (rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m)))
        rows = np.array([product_state_vector(ProductParams(tuple(z))).data for z in points])
        amps = rows @ product_unitary(list(adjoints)).T
        want = np.real(np.einsum("pi,ij,pj->p", amps.conj(), rho, amps))
        assert np.abs(_batch_overlap(rho, points, adjoints, m) - want).max() <= 1e-13


# --- build_cover ----------------------------------------------------------------


def test_build_cover_pure_origin():
    o = basis_oracle(3, seed=1)
    params = CoverParams(0.9, 0.2, 0.05, DESK_OVERRIDES)
    cover = build_cover(o, params)
    assert len(cover) >= 1
    assert len(cover) <= 6.0 / params.eta
    origin = ProductParams((0.0, 0.0, 0.0))
    hits = [m for m in cover.members
            if fidelity(o.hidden, m) >= 0.7
            and tangent_distance(m, origin) <= 3.0 / 0.9]
    assert hits


def test_build_prepares_each_root_once(monkeypatch):
    # The Bell cover accepts members, so some roots are searched more than once.
    prepared = []
    recenter = cover_module.recenter_unitaries

    def counting_recenter(root):
        prepared.append(root)
        return recenter(root)

    monkeypatch.setattr(cover_module, "recenter_unitaries", counting_recenter)
    bell = np.zeros(4)
    bell[0] = bell[3] = 2**-0.5
    params = CoverParams(0.5, 0.12, 0.05, DESK_OVERRIDES)
    cover = build_cover(StateOracle(QuantumState.pure(bell), seed=3), params)
    assert len(cover) == 2
    # A prefix-2 root is a prefix-1 member followed by a LOCAL_NET branch.
    level1 = {ProductParams(root.z[:1]) for root in prepared if root.n == 2}
    roots = len(LOCAL_NET) * (1 + len(level1))
    assert len(prepared) == roots
    assert len(set(prepared)) == roots


def test_build_cover_mixed_is_empty():
    o = StateOracle(QuantumState.mixed(np.eye(4) / 4), seed=2)
    params = CoverParams(0.5, 0.1, 0.05, DESK_OVERRIDES)
    cover = build_cover(o, params)
    assert len(cover) == 0


def test_build_cover_bell_two_members():
    bell = np.zeros(4)
    bell[0] = bell[3] = 2**-0.5
    state = QuantumState.pure(bell)
    params = CoverParams(0.5, 0.12, 0.05, DESK_OVERRIDES)
    covers = [build_cover(StateOracle(state, seed=3), params) for _ in range(2)]
    for cover in covers:
        assert len(cover) == 2
        assert len(cover) <= 6.0 / params.eta
        for member in cover.members:
            assert fidelity(state, member) >= params.eta - params.eps
        assert tangent_distance(*cover.members) >= params.b
    # Identical runs produce bit-identical covers.
    assert covers[0].members == covers[1].members


def test_prefix_covers_all_verify():
    # Every intermediate prefix cover must already satisfy the three cover
    # properties against the corresponding marginal.  With no oracle noise
    # the sweep's prefix-m cover is the cover built on the first-m-sites
    # marginal: the sweep up to m reads only that marginal.
    plant = ProductParams((1.0, -1.0j, 0.0, 1.0))
    psi = product_state_vector(plant).data
    rho = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(16) / 16
    params = CoverParams(0.5, 0.12, 0.05, DESK_OVERRIDES)
    for m in range(1, 5):
        marginal = QuantumState.mixed(partial_trace(rho, 4, list(range(m))))
        level = build_cover(StateOracle(marginal, seed=4), params)
        assert level.members and level.m == m
        report = verify_cover(marginal, level, trials=1500, rng_seed=9)
        assert report["ok"], report
        assert len(level) <= 6.0 / params.eta


# --- verify_cover ---------------------------------------------------------------


def test_verify_flags_low_fidelity_member():
    o = basis_oracle(2)
    params = CoverParams(0.9, 0.2, 0.05, DESK_OVERRIDES)
    bad = Cover((ProductParams((complex(1e12), 0.0)),), 2, params)
    report = verify_cover(o.hidden, bad, trials=10)
    assert report["low_fidelity"] and not report["ok"]


def test_verify_flags_close_pair():
    o = basis_oracle(2)
    params = CoverParams(0.9, 0.2, 0.05, DESK_OVERRIDES)
    twin = Cover((ProductParams((0.0, 0.0)), ProductParams((0.01, 0.0))), 2,
                 params)
    report = verify_cover(o.hidden, twin, trials=10)
    assert report["close_pairs"] and not report["ok"]


def test_verify_empty_cover_on_mixed():
    params = CoverParams(0.5, 0.1, 0.05, DESK_OVERRIDES)
    empty = Cover((), 2, params)
    state = QuantumState.mixed(np.eye(4) / 4)
    report = verify_cover(state, empty, trials=4000, rng_seed=3)
    assert report["witnesses_tested"] == 0
    assert report["ok"]


def test_verify_pure_origin_audit():
    o = basis_oracle(3, seed=6)
    params = CoverParams(0.9, 0.2, 0.05, DESK_OVERRIDES)
    cover = build_cover(o, params)
    report = verify_cover(o.hidden, cover, trials=10_000, rng_seed=12)
    assert report["ok"], report


# --- estimate_opt ----------------------------------------------------------------


def test_estimate_opt_pure_product():
    o = pure_oracle((1.0, -1.0j, 0.0), seed=7)
    est, witness = estimate_opt(o, 0.05, 0.05, overrides=DESK_OVERRIDES)
    assert witness is not None
    assert est >= 1.0 - 0.1


def test_estimate_opt_bell():
    bell = np.zeros(4)
    bell[0] = bell[3] = 2**-0.5
    o = StateOracle(QuantumState.pure(bell), seed=8)
    est, witness = estimate_opt(o, 0.05, 0.05, overrides=DESK_OVERRIDES)
    assert witness is not None
    assert abs(est - 0.5) <= 0.1
    assert fidelity(o.hidden, witness) >= 0.5 - 0.1


def test_estimate_opt_maximally_mixed():
    o = StateOracle(QuantumState.mixed(np.eye(4) / 4), seed=9)
    est, _ = estimate_opt(o, 0.05, 0.05, overrides=DESK_OVERRIDES)
    assert est <= 0.25 + 0.1


def planted_three_qubit_oracle():
    planted = haar_product_params(np.random.default_rng(31), 3)
    return StateOracle(planted_mixture(planted, 0.95), seed=32)


def recording(monkeypatch, name, calls):
    """Patch cover.<name> to append (name, args, delta) to `calls`, then run it."""
    inner = getattr(cover_module, name)

    def wrapped(o, *args):
        calls.append((name, args[:-1], args[-1]))
        return inner(o, *args)

    monkeypatch.setattr(cover_module, name, wrapped)


def test_estimate_opt_buys_each_prefix_once(monkeypatch):
    calls = []
    recording(monkeypatch, "subspace_tomography", calls)
    estimate_opt(planted_three_qubit_oracle(), 0.1, 0.1, overrides=DESK_OVERRIDES)
    keys = [args for _, args, _ in calls]
    # Every level has eta >= 4 eps and so asks for the same three keys.
    assert sorted(keys) == sorted(set(keys))
    assert [m for m, _, _ in keys] == [1, 2, 3]


def test_estimate_opt_refuses_an_unaffordable_sampling_sweep_up_front():
    # The first level's full-register purchase at n = 6 needs 68,950,294
    # shots, above SHOT_BUDGET; it is refused before the m <= 5 purchases.
    payload = generate("planted-product", {"n": 6, "w": 0.95, "noise": 0.05})
    o = StateOracle(state_from_json(payload["state"]), backend="sampling")
    with pytest.raises(ResourceBudgetError, match="68950294"):
        estimate_opt(o, 0.1, 0.1)
    assert o.copies_consumed == 0


def test_build_cover_buys_each_prefix_at_the_per_call_share(monkeypatch):
    calls = []
    recording(monkeypatch, "subspace_tomography", calls)
    o = planted_three_qubit_oracle()
    params = CoverParams(0.5, 0.1, 0.1, DESK_OVERRIDES)
    build_cover(o, params)
    cap = params.member_cap
    delta_call = params.delta / (o.n * (1 + 6 * cap * (cap + 2)))
    assert [args[0] for _, args, _ in calls] == [1, 2, 3]
    assert all(d == delta_call for _, _, d in calls)


@pytest.mark.parametrize("state", [
    "planted",
    "maximally_mixed",
])
def test_estimate_opt_delta_ledger(monkeypatch, state):
    calls = []
    for name in ("subspace_tomography", "estimate_fidelity"):
        recording(monkeypatch, name, calls)
    o = (planted_three_qubit_oracle() if state == "planted"
         else StateOracle(maximally_mixed(2), seed=33))
    delta = 0.1
    estimate_opt(o, 0.1, delta, overrides=DESK_OVERRIDES)
    tomo_eps = {args[2] for name, args, _ in calls if name == "subspace_tomography"}
    # Levels below 4 eps ask for finer tomographies than the others.
    assert (len(tomo_eps) > 1) == (state == "maximally_mixed")
    assert sum(d for _, _, d in calls) <= delta


# --- spectral ceilings -----------------------------------------------------------


def recentred_cut(truncation, root, d):
    """herm(U truncation U^dagger) cut to weight <= d, with U the dense frame of root."""
    u = product_unitary(recenter_unitaries(root))
    rotated = u @ truncation @ u.conj().T
    keep = reference_weight_leq_indices(root.n, d)
    cut = np.zeros_like(rotated)
    cut[np.ix_(keep, keep)] = rotated[np.ix_(keep, keep)]
    return 0.5 * (cut + cut.conj().T)


def site_marginals(rho):
    """The (m, 2, 2) stacked site marginals of a 2^m x 2^m matrix."""
    m = rho.shape[0].bit_length() - 1
    return np.array([partial_trace(rho, m, [i]) for i in range(m)])


def test_stored_ceiling_tops_every_full_degree_root():
    # At degree(m) = m nothing is cut, so every root's recentred matrix has
    # the spectrum of herm(truncation); the non-Hermitian draws check that
    # the stored ceiling is taken from the Hermitian part.  Each root's
    # rotated marginals and scores are those of its recentred matrix.
    rng = np.random.default_rng(23)
    params = CoverParams(0.5, 0.1, 0.1, DESK_OVERRIDES)
    for m, skew in itertools.product((1, 2, 3), (0.0, 0.05)):
        assert params.degree(m) == m
        dim = 2**m
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        truncation = g @ g.conj().T / np.linalg.norm(g) ** 2
        truncation = truncation + skew * (rng.standard_normal((dim, dim))
                                          + 1j * rng.standard_normal((dim, dim)))
        rho, ceiling, marginals = _purchase(truncation)
        points = 1.2 * (rng.standard_normal((30, m)) + 1j * rng.standard_normal((30, m)))
        for z in itertools.product(LOCAL_NET, repeat=m):
            root = ProductParams(z)
            cut = recentred_cut(truncation, root, m)
            _, adjoints, rotated = _prepare_root(marginals, root)
            assert abs(ceiling - np.linalg.eigvalsh(cut)[-1]) <= 1e-12
            assert np.abs(rotated - site_marginals(cut)).max() <= 1e-12
            want = reference_overlap(cut, points)
            assert np.abs(_batch_overlap(rho, points, adjoints, m) - want).max() <= 1e-12


def test_estimate_opt_eigensolves_once_per_truncation(monkeypatch):
    calls, solves = [], []
    recording(monkeypatch, "subspace_tomography", calls)
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(mat):
        if sys._getframe(1).f_globals["__name__"] == cover_module.__name__:
            solves.append(mat.shape)
        return eigvalsh(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    estimate_opt(planted_three_qubit_oracle(), 0.1, 0.1, overrides=DESK_OVERRIDES)
    keys = {args for _, args, _ in calls}
    assert len(keys) == 3
    assert len(solves) == len(keys)


def test_degree_capped_cuts_stay_under_stored_ceiling():
    # Below degree m each root cuts its recentred matrix in its own frame.
    # The cut is a compression of a PSD matrix, so the prefix estimate's top
    # eigenvalue still tops it, though often strictly.  The dense per-root
    # preparation is that cut, and the capped scores are overlaps with it.
    rng = np.random.default_rng(29)
    marginal = planted_three_qubit_oracle().hidden.density()
    lowered = 0
    for cap, m in ((1, 2), (1, 3), (2, 3)):
        params = CoverParams(0.5, 0.1, 0.1, dataclasses.replace(DESK_OVERRIDES, degree_cap=cap))
        dim = 2**m
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        points = 1.2 * (rng.standard_normal((30, m)) + 1j * rng.standard_normal((30, m)))
        for truncation in (g @ g.conj().T / np.linalg.norm(g) ** 2,
                           partial_trace(marginal, 3, list(range(m)))):
            rho, ceiling, marginals = _purchase(truncation)
            for z in itertools.product(LOCAL_NET, repeat=m):
                root = ProductParams(z)
                cut = recentred_cut(truncation, root, cap)
                _, ref = reference_prepare_root(truncation, root, params)
                assert np.abs(ref - cut).max() <= 1e-12
                _, adjoints, _ = _prepare_root(marginals, root)
                want = reference_overlap(cut, points)
                assert np.abs(_batch_overlap(rho, points, adjoints, cap) - want).max() <= 1e-12
                top = np.linalg.eigvalsh(cut)[-1]
                assert top <= ceiling + 1e-12
                lowered += top < ceiling - 1e-9
    assert lowered > 0


def test_capped_scores_equal_the_recentred_cut_overlaps():
    # Every cap below m, up to m = 6: a cut row mapped back to the purchase
    # frame scores what the dense recentred cut scores.
    rng = np.random.default_rng(2626)
    for m in range(1, 7):
        dim = 2**m
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        truncation = g @ g.conj().T / np.linalg.norm(g) ** 2
        rho, _, marginals = _purchase(truncation)
        root = haar_product_params(rng, m)
        _, adjoints, _ = _prepare_root(marginals, root)
        points = 1.2 * (rng.standard_normal((40, m)) + 1j * rng.standard_normal((40, m)))
        for d in range(m):
            want = reference_overlap(recentred_cut(truncation, root, d), points)
            assert np.abs(_batch_overlap(rho, points, adjoints, d) - want).max() <= 1e-12


def test_degree_capped_covers_match_per_root_ceilings(monkeypatch):
    # The stored ceiling gives the same covers as eigensolving each capped
    # root's own dense cut, which may exit a root early or stop its search sooner.
    extend = cover_module._extend
    stats = {"lowered": 0, "exits": 0}

    def per_root_extend(prepared, rho, ceiling, members, params):
        units = prepared[0]
        m = len(units)
        if params.degree(m) < m:
            own = float(np.linalg.eigvalsh(reference_rotated_cut(rho, units, params.degree(m)))[-1])
            stats["lowered"] += own < ceiling - 1e-9
            if own < params.eta - 0.5 * params.eps - 1e-12:
                stats["exits"] += 1
                return None
            ceiling = own
        return extend(prepared, rho, ceiling, members, params)

    def outputs():
        got = []
        for n, cap in itertools.product((3, 4, 5), (1, 2)):
            overrides = dataclasses.replace(DESK_OVERRIDES, degree_cap=cap)
            state = planted_mixture(haar_product_params(np.random.default_rng(40 + n), n), 0.95)
            for eta in (0.3, 0.5):
                cover = build_cover(StateOracle(state, seed=n),
                                    CoverParams(eta, 0.05, 0.1, overrides))
                got.append(cover.members)
            got.append(estimate_opt(StateOracle(state, seed=n), 0.1, 0.1, overrides=overrides))
        return got

    stored = outputs()
    monkeypatch.setattr(cover_module, "_extend", per_root_extend)
    assert outputs() == stored
    assert any(members for members in stored[::3] + stored[1::3])
    assert stats["lowered"] > 0 and stats["exits"] > 0


def planted_six_qubit_oracle():
    payload = generate("planted-product", {"n": 6, "w": 0.95, "noise": 0.05}, seed=1006)
    return StateOracle(state_from_json(payload["state"]), seed=1106)


def test_uncapped_roots_rotate_no_square_matrix(monkeypatch):
    # Uncut candidates map back site by site: no root hands the 2^m x 2^m
    # purchase, or any square block of that size, to `apply_sites`.
    calls = []
    inner = cover_module.apply_sites

    def recording_apply_sites(ops, x):
        calls.append((len(ops), np.shape(x)))
        return inner(ops, x)

    monkeypatch.setattr(cover_module, "apply_sites", recording_apply_sites)
    est, witness = estimate_opt(planted_six_qubit_oracle(), 0.1, 0.1)
    assert witness is not None and est > 0.5
    assert not [shape for m, shape in calls if shape == (2**m, 2**m)]


def test_estimate_opt_peak_memory_on_the_n8_benchmark_instance():
    # The seed-1 `cover-search` estimate_opt-n8 task: each purchase is held
    # once, hermitised, and no root allocates a rotated copy of it.  Rotating
    # the purchase once per root peaks at 5.49 MiB on this task.
    payload = generate("planted-product", {"n": 8, "w": 0.95, "noise": 0.05}, seed=1008)
    o = StateOracle(state_from_json(payload["state"]), seed=1108)
    tracemalloc.start()
    try:
        est, witness = estimate_opt(o, 0.1, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness is not None and est > 0.5
    assert peak < 4.5 * 2**20


# --- distance-splitting properties ----------------------------------------------


def _subspace_parts(z, a, inside):
    z_s = tuple(z[i] for i in range(len(z)) if inside[i])
    a_s = tuple(a[i] for i in range(len(z)) if inside[i])
    z_bar = np.array([z[i] for i in range(len(z)) if not inside[i]])
    a_bar = np.array([a[i] for i in range(len(z)) if not inside[i]])
    dt_s = tangent_distance(ProductParams(z_s), ProductParams(a_s))
    return dt_s, z_bar, a_bar


def test_support_split_implications():
    # Splitting the tangent distance into an on-support part plus a euclidean
    # off-support part preserves far/close verdicts, provided the off-support
    # candidate coordinates stay below (1/6)min(1/b, b) and the off-support
    # constraint coordinates are either small or far beyond 1/(2 mu).  (In
    # the intermediate constraint range the second implication genuinely
    # fails, and the search never produces such constraints: the support
    # absorbs every large coordinate.)
    rng = np.random.default_rng(2024)
    checked_far = checked_close = 0
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        b = float(rng.uniform(0.3, 2.5))
        mu = min(1.0 / b, b) / 6.0
        inside = rng.random(m) < rng.uniform(0.2, 0.8)
        z = np.empty(m, dtype=complex)
        a = np.empty(m, dtype=complex)
        for i in range(m):
            phase_z, phase_a = np.exp(2j * np.pi * rng.random(2))
            if inside[i]:
                z[i] = rng.uniform(0, 2.0) * phase_z
                mag = 1e6 if rng.random() < 0.05 else rng.uniform(0, 3.0)
                a[i] = mag * phase_a
            else:
                z[i] = rng.uniform(0, mu) * phase_z
                if rng.random() < 0.5:
                    a[i] = rng.uniform(0, 0.1) * phase_a
                else:
                    a[i] = rng.uniform(1.05, 3.0) / (2.0 * mu) * phase_a
        full = tangent_distance(ProductParams(tuple(z)), ProductParams(tuple(a)))
        dt_s, z_bar, a_bar = _subspace_parts(z, a, inside)
        split = dt_s**2 + float(np.linalg.norm(z_bar - a_bar) ** 2)
        if full >= 1.5 * b:
            checked_far += 1
            assert split >= 1.5 * b * b - 1e-7
        a_inf = float(np.max(np.abs(a_bar))) if len(a_bar) else 0.0
        if split >= (1.4 - a_inf) * b * b:
            checked_close += 1
            assert full >= b - 1e-7
    assert checked_far > 50 and checked_close > 50


def test_support_split_far_direction_unrestricted():
    # The far direction of the split needs no smallness assumption on the
    # constraint's off-support coordinates.
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(500):
        m = int(rng.integers(2, 6))
        b = float(rng.uniform(0.3, 2.0))
        mu = min(1.0 / b, b) / 6.0
        inside = rng.random(m) < 0.5
        z = np.where(inside, rng.uniform(0, 2, m), rng.uniform(0, mu, m)) \
            * np.exp(2j * np.pi * rng.random(m))
        a = rng.uniform(0, 4.0, m) * np.exp(2j * np.pi * rng.random(m))
        full = tangent_distance(ProductParams(tuple(z)), ProductParams(tuple(a)))
        if full < 1.5 * b:
            continue
        checked += 1
        dt_s, z_bar, a_bar = _subspace_parts(z, a, inside)
        split = dt_s**2 + float(np.linalg.norm(z_bar - a_bar) ** 2)
        assert split >= 1.5 * b * b - 1e-7
    assert checked > 50


def test_tangent_distance_is_lipschitz_in_parameters():
    rng = np.random.default_rng(311)
    cap = 2.0
    checked = 0
    while checked < 300:
        m = int(rng.integers(2, 5))
        v = rng.uniform(0, 0.9 * cap / math.sqrt(m), m) \
            * np.exp(2j * np.pi * rng.random(m))
        a = rng.uniform(0, 0.9 * cap / math.sqrt(m), m) \
            * np.exp(2j * np.pi * rng.random(m))
        pv, pa = ProductParams(tuple(v)), ProductParams(tuple(a))
        if tangent_distance(pv, pa) > cap:
            continue
        checked += 1
        stiffness = (10 * m * cap) ** 6
        eps = rng.uniform(0.1, 1.0) / stiffness
        step = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        u = v + eps * step / np.linalg.norm(step)
        pu = ProductParams(tuple(u))
        drift = abs(tangent_distance(pa, pv) - tangent_distance(pa, pu))
        assert drift <= eps * stiffness + 1e-12


def test_net_filter_keeps_perturbed_feasible_points():
    # Points satisfying the 1.5 b^2 margin keep satisfying the 1.49 b^2
    # filter after tolerance-sized perturbations of the point and the rung,
    # so pruning the net never drops a feasible candidate's neighbor.
    rng = np.random.default_rng(414)
    checked = 0
    while checked < 500:
        m = int(rng.integers(2, 6))
        inside = rng.random(m) < 0.5
        v = rng.uniform(0, 2.0, m) * np.exp(2j * np.pi * rng.random(m))
        mags = np.where(rng.random(m) < 0.1, 5.0, rng.uniform(0, 2.0, m))
        a = mags * np.exp(2j * np.pi * rng.random(m))
        nu = float(rng.uniform(0.0, 3.0))
        dt_s, v_bar, a_bar = _subspace_parts(v, a, inside)
        if not math.isfinite(dt_s):
            continue
        head = nu**2 - float(np.linalg.norm(v_bar) ** 2) \
            + float(np.linalg.norm(v_bar - a_bar) ** 2)
        slack = head + dt_s**2
        if slack <= 0.02:
            continue
        b = math.sqrt(slack * rng.uniform(0.2, 0.99) / 1.5)
        if b < 0.1:
            continue
        checked += 1
        tol = 1e-6
        step = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        u = v + tol * rng.random() * step / np.linalg.norm(step)
        nu2 = max(0.0, nu + tol * rng.uniform(-1, 1))
        dt_s2, u_bar, a_bar2 = _subspace_parts(u, a, inside)
        head2 = nu2**2 - float(np.linalg.norm(u_bar) ** 2) \
            + float(np.linalg.norm(u_bar - a_bar2) ** 2)
        assert head2 >= 1.49 * b * b - dt_s2**2 - 1e-9


def test_truncated_overlap_approximates_fidelity():
    # The flat-normalized quadratic form on a weight-truncated, slightly
    # perturbed density estimate tracks the true overlap to 3x the estimate
    # accuracy, once the truncation depth clears 8|z|^2 + log(2/accuracy).
    rng = np.random.default_rng(555)
    m, eps_tilde = 14, 0.05
    d = 12
    weights_mask = None
    for trial in range(60):
        if trial % 2 == 0:
            big = rng.uniform(0.7, 0.95)
            small = rng.uniform(0, 0.06, m - 1)
            mags = np.concatenate([[big], small])
        else:
            mags = rng.uniform(0, 0.05, m)
        z = mags * np.exp(2j * np.pi * rng.random(m))
        norm_z = float(np.linalg.norm(z))
        assert 8 * norm_z**2 + math.log(2 / eps_tilde) <= d
        inside = np.abs(z) > (math.sqrt(eps_tilde) / norm_z if norm_z else np.inf)

        # Low-rank mixed state with real overlap mass near the tested point.
        anchor = product_state_vector(
            ProductParams(tuple(z * rng.uniform(0.5, 1.0)))).data
        others = [rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
                  for _ in range(2)]
        others = [w / np.linalg.norm(w) for w in others]
        parts = [(0.6, anchor), (0.25, others[0]), (0.15, others[1])]

        if weights_mask is None:
            bits = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).sum(axis=1)
            weights_mask = bits <= d
        phi = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
        phi = np.where(weights_mask, phi, 0.0)
        phi /= np.linalg.norm(phi)

        pi_z = product_state_vector(ProductParams(tuple(z))).data
        fid = sum(w * abs(np.vdot(vec, pi_z)) ** 2 for w, vec in parts)

        raw = np.array([1.0 + 0.0j])
        for value in z:
            raw = np.kron(raw, np.array([1.0, value]))
        raw_cut = np.where(weights_mask, raw, 0.0)
        quad = (1 - 0.5 * eps_tilde) * sum(
            w * abs(np.vdot(vec, raw_cut)) ** 2 for w, vec in parts)
        quad += 0.5 * eps_tilde * abs(np.vdot(phi, raw_cut)) ** 2
        z_bar_sq = float(np.sum(np.abs(z[~inside]) ** 2))
        scale = math.exp(-z_bar_sq) / float(np.prod(1 + np.abs(z[inside]) ** 2))
        assert abs(fid - scale * quad) <= 3 * eps_tilde
