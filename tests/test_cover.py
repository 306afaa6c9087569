"""Cover construction, verification, and best-product-fidelity estimation."""

import dataclasses
import itertools
import logging
import math
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest

from prodstate import cover as cover_module
from prodstate import oracle as oracle_module
from prodstate.bruteforce import best_product_fidelity
from prodstate.cli import generate
from prodstate.cover import (
    Cover,
    CoverOverrides,
    CoverParams,
    DESK_OVERRIDES,
    LOCAL_NET,
    _clears,
    _polish,
    _purchase,
    _top_eigenvalue,
    build_cover,
    estimate_opt,
)
from prodstate.errors import ResourceBudgetError
from prodstate.instances import planted_mixture, random_mixed
from prodstate.oracle import StateOracle, subspace_tomography, weight_leq_indices
from prodstate.serialize import state_from_json
from prodstate.states import (
    ProductParams,
    QuantumState,
    fidelity,
    haar_product_params,
    product_state_vector,
    product_unitary,
    recenter_unitaries,
    tangent_distance,
    transform_params,
    vector_to_params,
)

from conftest import (
    bell_state,
    dense_mixed,
    density,
    ghz_state,
    maximally_mixed,
    partial_trace,
    reference_kron,
    reference_overlap,
    reference_prepare_root,
    reference_rotated_cut,
    reference_weight_leq_indices,
    verify_cover,
    w_state,
)


def pure_oracle(z, seed=0):
    return StateOracle(product_state_vector(ProductParams(z)), seed=seed)


def basis_state(n):
    vec = np.zeros(2**n)
    vec[0] = 1.0
    return QuantumState.pure(vec)


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


def own_block(truncation, root, d):
    """The root's own purchase: the weight-<= d block of `truncation` in the
    root's frame, as the exact oracle measures it on that marginal."""
    o = StateOracle(dense_mixed(truncation))
    return subspace_tomography(o, root.n, d, 0.5, 0.5, frame=recenter_unitaries(root))


def polish_candidate(truncation, members, root, params):
    """Polish `root` as `_build` does: turn it away unless it clears the
    members, then buy the truncation (under a cap, the root's own block of
    it) and polish the root on that purchase."""
    if not _clears(root, members, params.b):
        return None
    d = params.degree(root.n)
    rho, _ = _purchase(truncation if d == root.n else own_block(truncation, root, d))
    return _polish(rho, root, members, params)


def site_rows(points):
    """(k, m, 2) unit site vectors of parameter rows."""
    scale = 1.0 / np.sqrt(1.0 + np.abs(points) ** 2)
    return np.stack([scale, scale * points], axis=-1)


def adjoints_of(root):
    """The root's (m, 2, 2) stacked adjoint recentring unitaries."""
    return np.array(recenter_unitaries(root)).conj().transpose(0, 2, 1)


def purchase_scores(rho, points, root, d):
    """Scores of root-frame parameter rows on the purchase rho, read as the
    sweep reads them: the Kronecker row of the site vectors C_j s_j, read on
    the purchase's coordinates.  On a shared purchase (d = m) C = U^dagger
    and every coordinate is read; on a root's own (d < m) C = I and the
    weight-<= d strings are."""
    m = root.n
    cols = np.broadcast_to(np.eye(2), (m, 2, 2)) if d < m else adjoints_of(root)
    coords = weight_leq_indices(m, d)
    scores = []
    for sites in site_rows(points):
        row = reference_kron((cols @ sites[:, :, None])[:, :, 0])[coords]
        scores.append(np.real(row.conj() @ rho @ row))
    return np.array(scores)


def test_extend_finds_planted_origin():
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    params = CoverParams(0.8, 0.2, 0.1, DESK_OVERRIDES)
    cand = polish_candidate(rho, [], ProductParams((0.0, 0.0, 0.0)), params)
    assert cand is not None
    state = dense_mixed(rho)
    assert fidelity(state, cand) >= 0.6


def test_extend_respects_far_constraint():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    params = CoverParams(0.96, 0.1, 0.1, DESK_OVERRIDES)
    origin = ProductParams((0.0, 0.0))
    cand = polish_candidate(rho, [origin], origin, params)
    assert cand is None or tangent_distance(cand, origin) >= params.b


def test_extend_zero_matrix_is_bottom():
    rho = np.zeros((4, 4), dtype=complex)
    params = CoverParams(0.8, 0.2, 0.1, DESK_OVERRIDES)
    assert polish_candidate(rho, [], ProductParams((0.0, 0.0)), params) is None


def seeded_branch(rng, m, k):
    """(truncation, root, members) of one seeded search: a product state
    planted near a Haar root, mixed with a random rank-2 state, and k members,
    each either a root-frame Gaussian step of scale 3 away or Haar-drawn."""
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
    members = [near(3.0) if j % 2 == 0 else haar_product_params(rng, m) for j in range(k)]
    return truncation, root, members


def test_polish_climbs_to_a_separated_site_optimum():
    # On the dense per-root cut: a polished point scores the threshold, at
    # least what its root scores, and clears the separation bound to every
    # member.  Without members every site of it is optimal with the others
    # fixed: no 2x2 effective matrix of the cut has a larger top eigenvalue.
    rng = np.random.default_rng(2929)
    found = separated = 0
    for m, k, cap in itertools.product(range(1, 7), range(3), (None, 1, 2)):
        truncation, root, members = seeded_branch(rng, m, k)
        params = CoverParams(float(rng.uniform(0.45, 0.75)), 0.1, 0.1,
                             CoverOverrides(degree_cap=cap))
        got = polish_candidate(truncation, members, root, params)
        if got is None:
            continue
        found += 1
        separated += bool(members)
        units, cut = reference_prepare_root(truncation, root, params)
        local = transform_params(units, got).asarray()[None]
        score = float(reference_overlap(cut, local)[0])
        assert score >= params.eta - 0.5 * params.eps - 1e-12
        assert score >= float(reference_overlap(cut, np.zeros((1, m)))[0]) - 1e-12
        assert all(tangent_distance(got, member) >= params.b for member in members)
        if members:
            continue
        sites = site_rows(local)[0]
        for i in range(m):
            pair = np.repeat(sites[None], 2, axis=0)
            pair[:, i] = np.eye(2)
            rows = np.array([reference_kron(row) for row in pair])
            assert np.linalg.eigvalsh(rows.conj() @ cut @ rows.T)[-1] <= score + 1e-9
    assert found >= 15 and separated >= 5


def test_top_eigenvalue_is_certified_from_above(monkeypatch):
    # Above dimension 32 the ceiling is a Ritz value plus 5e-13 once a
    # deflation bound certifies it: it tops eigvalsh's value by at most
    # 1e-12.  Planted purchases (one strong product direction over a noise
    # floor) certify without any full eigensolve; up to 32 eigvalsh reads
    # the value itself.
    rng = np.random.default_rng(3333)
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(mat):
        solves.append(len(mat))
        return eigvalsh(mat)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    for dim in (8, 32, 33, 64, 256):
        for weight in (0.95, 0.6):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = weight * np.outer(v, v.conj()) / np.vdot(v, v).real
            rho += (1.0 - weight) * g @ g.conj().T / np.linalg.norm(g) ** 2
            want = float(eigvalsh(rho)[-1])
            solves.clear()
            got = _top_eigenvalue(rho)
            if dim <= 32:
                assert got == want and solves == [dim]
            else:
                assert want - 1e-13 <= got <= want + 1e-12 and solves == []
    # A start column orthogonal to the top eigenvector spans an invariant
    # subspace whose Ritz value misses the top, and a full-rank Wishart
    # matrix crowds its top: the bound fails and eigvalsh reads the value.
    rho = np.diag(np.full(40, 1e-3)).astype(complex)
    rho[0, 0] = 0.5
    rho[1:3, 1:3] = [[0.3, 0.25], [0.25, 0.3]]
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    for rho in (rho, g @ g.conj().T / np.linalg.norm(g) ** 2):
        solves.clear()
        assert _top_eigenvalue(rho) == eigvalsh(rho)[-1] and solves == [len(rho)]


def replay_sweeps(monkeypatch, cases):
    """Run `_sweep` on each (rho, root, d) of `cases` and replay each 2x2
    matrix it hands `_top_pair` against the one of the Kronecker rows of its
    current point, read on the purchase's coordinates.

    On a shared purchase (d = m) the sweep's sites are t = U^dagger s, and
    the pair at site i has U_i^dagger e_a there; on a root's own (d < m) the
    sites are the root-frame s, with e_a at site i, and only the weight-<= d
    entries are read.  The point returned is read off t = U^dagger s either
    way.  Returns the (pairs, steps) replayed.
    """
    events = []
    top_pair = cover_module._top_pair

    def recording_top_pair(mat):
        events.append(mat)
        events.append(top_pair(mat))
        return events[-1]

    def far(point):
        events.append(point)
        return True

    monkeypatch.setattr(cover_module, "_top_pair", recording_top_pair)
    pairs = steps = 0
    for rho, root, d in cases:
        m = root.n
        events.clear()
        point, _ = cover_module._sweep(rho, root, d, far)
        adjoints = adjoints_of(root)
        cols = adjoints if d == m else np.broadcast_to(np.eye(2), (m, 2, 2))
        coords = weight_leq_indices(m, d)
        sites = list(cols[:, :, 0])
        visited = 0
        for event in events:
            if isinstance(event, np.ndarray):
                i = visited % m
                rows = np.array([reference_kron(sites[:i] + [cols[i][:, a]] + sites[i + 1:])
                                 for a in (0, 1)])[:, coords]
                assert np.abs(event - rows.conj() @ rho @ rows.T).max() <= 1e-14
                visited += 1
            elif isinstance(event, tuple):
                vec = event[1]
            else:
                sites[i] = cols[i] @ vec
                steps += 1
        pairs += visited
        assert point == vector_to_params(np.einsum("kab,kb->ka", adjoints, sites)
                                         if d < m else np.array(sites))
    return pairs, steps


def test_uncapped_sweep_rows_are_the_kron_rows_of_its_point(monkeypatch):
    # Uncut, the sweep builds the pair of rows at site i from cached prefix
    # and suffix products of its purchase-frame sites t = U^dagger s: each
    # 2x2 matrix it steps on is that of the Kronecker rows of the current
    # point with U_i^dagger e_a at site i, and the point returned is read off
    # the t's.
    rng = np.random.default_rng(3131)
    cases = []
    for m in range(1, 7):
        truncation, root, _ = seeded_branch(rng, m, 0)
        cases.append((_purchase(truncation)[0], root, m))
    pairs, steps = replay_sweeps(monkeypatch, cases)
    assert pairs >= 30 and steps >= 6


def test_capped_sweep_rows_are_the_root_frame_kron_rows_of_its_point(monkeypatch):
    # On a root's own purchase the same row builder runs on the root-frame
    # sites s with C_i = I: each 2x2 matrix is that of the Kronecker rows of
    # the current root-frame point with e_a at site i, read on the weight-<= d
    # strings, and the point returned is U^dagger s.
    rng = np.random.default_rng(3232)
    cases = []
    for m in range(2, 7):
        truncation, root, _ = seeded_branch(rng, m, 0)
        for d in range(1, m):
            cases.append((_purchase(own_block(truncation, root, d))[0], root, d))
    pairs, steps = replay_sweeps(monkeypatch, cases)
    assert pairs >= 60 and steps >= 15


def test_capped_sweep_memory_follows_the_block_not_the_register():
    # A root's own block at m = 16, d = 2 has W = 137 coordinates, and the
    # sweep's environments and rows are vectors over them: a warm sweep
    # traces under 1 MiB.  Rows built at full length 2^16 and cut to the
    # block peak at 5.6 MiB.
    rng = np.random.default_rng(4545)
    m, d = 16, 2
    w = len(weight_leq_indices(m, d))
    g = rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
    rho = g @ g.conj().T / np.linalg.norm(g) ** 2
    root = haar_product_params(rng, m)
    cover_module._sweep(rho, root, d, lambda point: True)
    tracemalloc.start()
    try:
        cover_module._sweep(rho, root, d, lambda point: True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_default_knobs_run_the_desk_nets():
    # With no overrides the search runs the same knobs as DESK_OVERRIDES and
    # answers at once, with a witness.
    assert CoverOverrides() == DESK_OVERRIDES
    start = time.perf_counter()
    got = estimate_opt(pure_oracle((0.3 + 0.2j,)), 0.1, 0.1)
    assert time.perf_counter() - start < 1.0
    assert got[1] is not None
    assert got == estimate_opt(pure_oracle((0.3 + 0.2j,)), 0.1, 0.1,
                               overrides=DESK_OVERRIDES)


def test_out_of_range_knobs_are_refused():
    # A cap of 0 leaves one number per root, on which no sweep step moves.
    for bad in ({"degree_cap": -1}, {"degree_cap": 0}, {"tomo_eps": -1.0},
                {"tomo_eps": 0.0}, {"tomo_eps": 1.0}, {"tomo_eps": 2.0}):
        with pytest.raises(ValueError):
            CoverOverrides(**bad)
    assert [CoverParams(0.5, 0.1, 0.1, CoverOverrides(degree_cap=1)).degree(m)
            for m in (1, 3)] == [1, 1]


def test_batch_overlap_matches_three_operand_einsum():
    # On a shared purchase the sweep's rows of root-frame points are the rows
    # mapped back by the dense adjoint frame of a Haar root.
    rng = np.random.default_rng(17)
    for m, count in ((1, 5), (3, 700), (6, 40)):
        a = rng.standard_normal((2**m, 2**m)) + 1j * rng.standard_normal((2**m, 2**m))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        root = haar_product_params(rng, m)
        points = 1.5 * (rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m)))
        rows = np.array([product_state_vector(ProductParams(tuple(z))).data for z in points])
        amps = rows @ product_unitary(list(adjoints_of(root))).T
        want = np.real(np.einsum("pi,ij,pj->p", amps.conj(), rho, amps))
        assert np.abs(purchase_scores(rho, points, root, m) - want).max() <= 1e-13


# --- build_cover ----------------------------------------------------------------


def test_build_cover_pure_origin():
    state = basis_state(3)
    params = CoverParams(0.9, 0.2, 0.05, DESK_OVERRIDES)
    cover = build_cover(StateOracle(state, seed=1), params)
    assert len(cover) >= 1
    assert len(cover) <= 6.0 / params.eta
    origin = ProductParams((0.0, 0.0, 0.0))
    hits = [m for m in cover.members
            if fidelity(state, m) >= 0.7
            and tangent_distance(m, origin) <= 3.0 / 0.9]
    assert hits


def test_build_prepares_each_root_once(monkeypatch):
    # Each root is considered once.  One that clears the separation bound to
    # the members accepted before it is polished and recentred once; one
    # that does not is neither.
    roots, prepared, polished = [], [], []
    recenter, polish, clears = (cover_module.recenter_unitaries, cover_module._polish,
                                cover_module._clears)

    def counting_recenter(root):
        prepared.append(root)
        return recenter(root)

    def recording_clears(point, members, b):
        if sys._getframe(1).f_code.co_name == "_build":
            roots.append(point)
        return clears(point, members, b)

    def recording_polish(rho, root, members, params, *rest):
        assert all(tangent_distance(root, member) >= params.b for member in members)
        polished.append(root)
        return polish(rho, root, members, params, *rest)

    monkeypatch.setattr(cover_module, "recenter_unitaries", counting_recenter)
    monkeypatch.setattr(cover_module, "_clears", recording_clears)
    monkeypatch.setattr(cover_module, "_polish", recording_polish)
    bell = np.zeros(4)
    bell[0] = bell[3] = 2**-0.5
    params = CoverParams(0.5, 0.12, 0.05, DESK_OVERRIDES)
    cover = build_cover(StateOracle(QuantumState.pure(bell), seed=3), params)
    assert len(cover) == 2
    # Two prefix-1 members, each branched over LOCAL_NET at prefix 2.
    assert len(roots) == len(set(roots)) == 3 * len(LOCAL_NET)
    assert prepared == polished and len(set(polished)) == len(polished) < len(roots)


def test_build_cover_mixed_is_empty():
    o = StateOracle(maximally_mixed(2), seed=2)
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
        marginal = dense_mixed(partial_trace(rho, 4, list(range(m))))
        level = build_cover(StateOracle(marginal, seed=4), params)
        assert level.members and level.m == m
        report = verify_cover(marginal, level, trials=1500, rng_seed=9)
        assert report["ok"], report
        assert len(level) <= 6.0 / params.eta


# --- verify_cover ---------------------------------------------------------------


def test_verify_flags_low_fidelity_member():
    params = CoverParams(0.9, 0.2, 0.05, DESK_OVERRIDES)
    bad = Cover((ProductParams((complex(1e12), 0.0)),), 2, params)
    report = verify_cover(basis_state(2), bad, trials=10)
    assert report["low_fidelity"] and not report["ok"]


def test_verify_flags_close_pair():
    params = CoverParams(0.9, 0.2, 0.05, DESK_OVERRIDES)
    twin = Cover((ProductParams((0.0, 0.0)), ProductParams((0.01, 0.0))), 2,
                 params)
    report = verify_cover(basis_state(2), twin, trials=10)
    assert report["close_pairs"] and not report["ok"]


def test_verify_empty_cover_on_mixed():
    params = CoverParams(0.5, 0.1, 0.05, DESK_OVERRIDES)
    empty = Cover((), 2, params)
    state = maximally_mixed(2)
    report = verify_cover(state, empty, trials=4000, rng_seed=3)
    assert report["witnesses_tested"] == 0
    assert report["ok"]


def test_verify_pure_origin_audit():
    state = basis_state(3)
    params = CoverParams(0.9, 0.2, 0.05, DESK_OVERRIDES)
    cover = build_cover(StateOracle(state, seed=6), params)
    report = verify_cover(state, cover, trials=10_000, rng_seed=12)
    assert report["ok"], report


def test_covers_pass_the_audit_up_to_eight_qubits():
    # Covers of Haar plants at n = 2..8, random mixed states and multi-member
    # states pass the audit, and whenever the best product state reaches the
    # level some member lies within the coverage radius of it.
    rng = np.random.default_rng(4)
    states = [planted_mixture(haar_product_params(rng, n), 0.7) for n in range(2, 9)]
    states += [random_mixed(n, rng, rank=2) for n in (3, 5)]
    states += [bell_state(), ghz_state(3), w_state(3), w_state(4)]
    reached = 0
    for state in states:
        opt, witness = best_product_fidelity(state, restarts=4)
        for seed, eta in enumerate((0.5, 0.7)):
            params = CoverParams(eta, 0.1, 0.1)
            cover = build_cover(StateOracle(state, seed=seed), params)
            report = verify_cover(state, cover, trials=200, rng_seed=seed)
            assert report["ok"], report
            if opt >= eta:
                reached += 1
                assert min((tangent_distance(witness, member) for member in cover.members),
                           default=math.inf) <= params.b_far
    assert reached == 17


# --- estimate_opt ----------------------------------------------------------------


def test_estimate_opt_pure_product():
    o = pure_oracle((1.0, -1.0j, 0.0), seed=7)
    est, witness = estimate_opt(o, 0.05, 0.05, overrides=DESK_OVERRIDES)
    assert witness is not None
    assert est >= 1.0 - 0.1


def test_estimate_opt_bell():
    bell = np.zeros(4)
    bell[0] = bell[3] = 2**-0.5
    state = QuantumState.pure(bell)
    est, witness = estimate_opt(StateOracle(state, seed=8), 0.05, 0.05, overrides=DESK_OVERRIDES)
    assert witness is not None
    assert abs(est - 0.5) <= 0.1
    assert fidelity(state, witness) >= 0.5 - 0.1


def test_estimate_opt_maximally_mixed():
    o = StateOracle(maximally_mixed(2), seed=9)
    est, _ = estimate_opt(o, 0.05, 0.05, overrides=DESK_OVERRIDES)
    assert est <= 0.25 + 0.1


def test_estimate_opt_meets_opt_on_haar_plants():
    # The `cover-search` plants: Haar product states at w 0.95 and noise
    # 0.05, n = 2..8.  The witness meets opt - eps, and the estimate is its
    # measured fidelity, within eps/4.
    eps = 0.1
    for n in range(2, 9):
        payload = generate("planted-product", {"n": n, "w": 0.95, "noise": 0.05}, seed=1000 + n)
        state = state_from_json(payload["state"])
        est, witness = estimate_opt(StateOracle(state, seed=1100 + n), eps, 0.1)
        assert witness is not None
        got = fidelity(state, witness)
        assert got >= payload["ground_truth"]["opt"] - eps
        assert abs(est - got) <= eps / 4.0


def planted_three_qubit_state():
    planted = haar_product_params(np.random.default_rng(31), 3)
    return planted_mixture(planted, 0.95)


def planted_three_qubit_oracle():
    return StateOracle(planted_three_qubit_state(), seed=32)


def recording(monkeypatch, name, calls, frames=None):
    """Patch cover.<name> to append (name, args, delta) to `calls`, then run it.

    An `estimate_fidelity` stack of k rows is k measured calls and appends k
    entries.  A `subspace_tomography` call also appends its frame to
    `frames`, if given.
    """
    inner = getattr(cover_module, name)

    def wrapped(o, *args, **kwargs):
        rows = len(args[1]) if name == "estimate_fidelity" else 1
        calls.extend([(name, args[:-1], args[-1])] * rows)
        if frames is not None:
            frames.append(kwargs.get("frame"))
        return inner(o, *args, **kwargs)

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
    # A prefix makes one purchase and at most 6 * cap fidelity estimates (one
    # per root of at most cap members), each at delta_call.
    cap = params.member_cap
    delta_call = params.delta / (o.n * (1 + 6 * cap))
    assert [args[0] for _, args, _ in calls] == [1, 2, 3]
    assert all(d == delta_call for _, _, d in calls)


def test_build_cover_buys_each_capped_root_at_the_per_call_share(monkeypatch):
    # Under a cap a prefix above it buys one block per root and makes one
    # fidelity estimate per root, at most 6 * cap of each, all at delta_call
    # = delta / (n (1 + 12 cap)); the prefix within the cap buys its one
    # shared purchase at the same share.
    calls, frames = [], []
    recording(monkeypatch, "subspace_tomography", calls, frames)
    recording(monkeypatch, "estimate_fidelity", calls)
    o = planted_three_qubit_oracle()
    params = CoverParams(0.5, 0.1, 0.1, CoverOverrides(degree_cap=1))
    build_cover(o, params)
    cap = params.member_cap
    delta_call = params.delta / (o.n * (1 + 12 * cap))
    bought = [(args[:2], frame is None) for (_, args, _), frame
              in zip((call for call in calls if call[0] == "subspace_tomography"), frames)]
    assert bought[0] == ((1, 1), True)
    assert {key for key, _ in bought[1:]} == {(2, 1), (3, 1)}
    assert not any(shared for _, shared in bought[1:])
    assert all(d == delta_call for _, _, d in calls)
    assert sum(name == "estimate_fidelity" for name, _, _ in calls) >= o.n


def test_a_capped_root_buys_its_block_only_when_it_clears_separation(monkeypatch):
    # Within one level the blocks bought above the cap are exactly those of
    # the roots that clear the separation bound, in order; the roots turned
    # away buy nothing.
    calls, frames, cleared, turned_away = [], [], [], []
    clears = cover_module._clears

    def recording_clears(point, members, b):
        ok = clears(point, members, b)
        if sys._getframe(1).f_code.co_name == "_build" and point.n > 1:
            (cleared if ok else turned_away).append(point)
        return ok

    recording(monkeypatch, "subspace_tomography", calls, frames)
    monkeypatch.setattr(cover_module, "_clears", recording_clears)
    for n, cap in ((3, 1), (4, 1), (4, 2)):
        for seen in (calls, frames, cleared, turned_away):
            seen.clear()
        state = random_mixed(n, np.random.default_rng(n - 2), rank=2)
        build_cover(StateOracle(state, seed=3),
                    CoverParams(0.3, 0.05, 0.1, CoverOverrides(degree_cap=cap)))
        own = [np.array(frame) for frame in frames if frame is not None]
        want = [np.array(recenter_unitaries(root)) for root in cleared if root.n > cap]
        assert len(own) == len(want) and all(map(np.array_equal, own, want))
    assert turned_away


def test_capped_estimate_opt_buys_each_root_once(monkeypatch):
    # Bisection levels share a root's own purchase as they share a prefix's:
    # each (m, root, tomo_eps) is bought at most once per call, though the
    # levels clear more roots than that.  A plant's bracket closes after one
    # level, so this runs on a superposition of two products whose three
    # levels all buy at tomo_eps = eps/8.
    calls, frames, cleared = [], [], []
    clears = cover_module._clears

    def recording_clears(point, members, b):
        ok = clears(point, members, b)
        if ok and sys._getframe(1).f_code.co_name == "_build" and point.n > 2:
            cleared.append(point)
        return ok

    recording(monkeypatch, "subspace_tomography", calls, frames)
    monkeypatch.setattr(cover_module, "_clears", recording_clears)
    estimate_opt(StateOracle(superposition(5, 7), seed=7), 0.1, 0.1,
                 overrides=CoverOverrides(degree_cap=1))
    keys = [(args, None if frame is None else np.array(frame).tobytes())
            for (_, args, _), frame in zip(calls, frames)]
    assert len(keys) == len(set(keys))
    assert sum(frame is not None for frame in frames) < len(cleared)


def test_no_prefix_estimates_more_than_six_per_previous_member(monkeypatch):
    # Each member of prefix m - 1 spawns the 6 roots of LOCAL_NET and each
    # root proposes at most one candidate, so prefix m makes at most
    # 6 * (members at m - 1) fidelity estimates: the count the failure budget
    # of `_build` is split over.
    assert len(LOCAL_NET) == 6
    inner = cover_module.estimate_fidelity
    calls = []

    def recorded(o, m, sites, eps, delta):
        ests = inner(o, m, sites, eps, delta)
        calls.extend((m, est) for est in ests)
        return ests

    monkeypatch.setattr(cover_module, "estimate_fidelity", recorded)
    widest = 0
    for state in (bell_state(), ghz_state(3), w_state(3), planted_mixture(
            haar_product_params(np.random.default_rng(5), 4), 0.7)):
        for eta in (0.4, 0.5):
            calls.clear()
            params = CoverParams(eta, 0.1, 0.1, DESK_OVERRIDES)
            cover = build_cover(StateOracle(state, seed=3), params)
            members = 1
            for m in range(1, state.n + 1):
                ests = [est for k, est in calls if k == m]
                assert len(ests) <= 6 * members, (m, len(ests), members)
                members = sum(est >= params.eta - 0.75 * params.eps for est in ests)
                widest = max(widest, members)
            assert members == len(cover.members)
    assert widest > 1


@pytest.mark.parametrize("state", [
    "planted",
    "maximally_mixed",
    "capped",
])
def test_estimate_opt_delta_ledger(monkeypatch, state):
    # Under a cap the per-root purchases come out of each level's share.
    calls = []
    for name in ("subspace_tomography", "estimate_fidelity"):
        recording(monkeypatch, name, calls)
    o = {"planted": planted_three_qubit_oracle,
         "maximally_mixed": lambda: StateOracle(maximally_mixed(2), seed=33),
         "capped": planted_sixteen_qubit_oracle}[state]()
    delta = 0.1
    overrides = CoverOverrides(degree_cap=2 if state == "capped" else None)
    estimate_opt(o, 0.1, delta, overrides=overrides)
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


def test_stored_ceiling_tops_every_full_degree_root():
    # At degree(m) = m nothing is cut, so every root's recentred matrix has
    # the spectrum of herm(truncation); the non-Hermitian draws check that
    # the stored ceiling is taken from the Hermitian part.  Each root's
    # scores are those of its recentred matrix.
    rng = np.random.default_rng(23)
    params = CoverParams(0.5, 0.1, 0.1, DESK_OVERRIDES)
    for m, skew in itertools.product((1, 2, 3), (0.0, 0.05)):
        assert params.degree(m) == m
        dim = 2**m
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        truncation = g @ g.conj().T / np.linalg.norm(g) ** 2
        truncation = truncation + skew * (rng.standard_normal((dim, dim))
                                          + 1j * rng.standard_normal((dim, dim)))
        rho, ceiling = _purchase(truncation)
        points = 1.2 * (rng.standard_normal((30, m)) + 1j * rng.standard_normal((30, m)))
        for z in itertools.product(LOCAL_NET, repeat=m):
            root = ProductParams(z)
            cut = recentred_cut(truncation, root, m)
            assert abs(ceiling - np.linalg.eigvalsh(cut)[-1]) <= 1e-12
            want = reference_overlap(cut, points)
            assert np.abs(purchase_scores(rho, points, root, m) - want).max() <= 1e-12


def test_estimate_opt_eigensolves_once_per_truncation(monkeypatch):
    # One ceiling per bought truncation.  Up to dimension 32 it is one
    # eigvalsh; the six-qubit plant's 64 x 64 purchase takes the certified
    # Ritz value instead, with no full eigensolve, within 1e-12 above the top.
    calls, solves, ceilings = [], [], []
    recording(monkeypatch, "subspace_tomography", calls)
    eigvalsh = np.linalg.eigvalsh
    top_eigenvalue = cover_module._top_eigenvalue

    def counting_eigvalsh(mat):
        if sys._getframe(1).f_globals["__name__"] == cover_module.__name__:
            solves.append(len(mat))
        return eigvalsh(mat)

    def recording_top(rho):
        ceilings.append((len(rho), top_eigenvalue(rho), float(eigvalsh(rho)[-1])))
        return ceilings[-1][1]

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(cover_module, "_top_eigenvalue", recording_top)
    for qubits, oracle in ((3, planted_three_qubit_oracle()), (6, planted_six_qubit_oracle())):
        for seen in (calls, solves, ceilings):
            seen.clear()
        estimate_opt(oracle, 0.1, 0.1, overrides=DESK_OVERRIDES)
        keys = {args for _, args, _ in calls}
        dims = [dim for dim, _, _ in ceilings]
        assert len(keys) == qubits and len(ceilings) == len(keys)
        assert solves == [dim for dim in dims if dim <= 32]
        assert all(top <= ceiling <= top + 1e-12 for _, ceiling, top in ceilings)
        assert max(dims) == 2**qubits


def test_degree_capped_cuts_stay_under_stored_ceiling():
    # Below degree m each root buys its own cut, in its own frame.  Its
    # stored ceiling is the top eigenvalue of the dense recentred cut, and
    # the cut is a compression of a PSD matrix, so the uncut prefix's top
    # eigenvalue still tops it, though often strictly: a capped root can
    # exit on its own ceiling where the uncut prefix would not.  Its scores
    # are overlaps with the cut.
    rng = np.random.default_rng(29)
    marginal = density(planted_three_qubit_state())
    lowered = 0
    for cap, m in ((1, 2), (1, 3), (2, 3)):
        params = CoverParams(0.5, 0.1, 0.1, dataclasses.replace(DESK_OVERRIDES, degree_cap=cap))
        dim = 2**m
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        points = 1.2 * (rng.standard_normal((30, m)) + 1j * rng.standard_normal((30, m)))
        keep = reference_weight_leq_indices(m, cap)
        for truncation in (g @ g.conj().T / np.linalg.norm(g) ** 2,
                           partial_trace(marginal, 3, list(range(m)))):
            _, uncut = _purchase(truncation)
            for z in itertools.product(LOCAL_NET, repeat=m):
                root = ProductParams(z)
                cut = recentred_cut(truncation, root, cap)
                _, ref = reference_prepare_root(truncation, root, params)
                assert np.abs(ref - cut).max() <= 1e-12
                rho, ceiling = _purchase(own_block(truncation, root, cap))
                assert np.abs(rho - cut[np.ix_(keep, keep)]).max() <= 1e-12
                top = np.linalg.eigvalsh(cut)[-1]
                assert abs(ceiling - top) <= 1e-12 and ceiling <= uncut + 1e-12
                lowered += ceiling < uncut - 1e-9
                want = reference_overlap(cut, points)
                assert np.abs(purchase_scores(rho, points, root, cap) - want).max() <= 1e-12
    assert lowered > 0


def test_capped_scores_equal_the_recentred_cut_overlaps():
    # Every cap below m, up to m = 6: the sweep's rows on a root's own
    # purchase, the oracle's block in the root's frame, score what the dense
    # recentred cut scores.
    rng = np.random.default_rng(2626)
    for m in range(1, 7):
        dim = 2**m
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        truncation = g @ g.conj().T / np.linalg.norm(g) ** 2
        root = haar_product_params(rng, m)
        units = recenter_unitaries(root)
        points = 1.2 * (rng.standard_normal((40, m)) + 1j * rng.standard_normal((40, m)))
        for d in range(m):
            rho, _ = _purchase(own_block(truncation, root, d))
            want = reference_overlap(reference_rotated_cut(truncation, units, d), points)
            assert np.abs(purchase_scores(rho, points, root, d) - want).max() <= 1e-12


def test_degree_capped_covers_match_per_root_ceilings(monkeypatch):
    # Under a cap each root's ceiling is the top eigenvalue of its own dense
    # recentred cut of the marginal, which may exit the root before its
    # sweep: a root is polished exactly when its ceiling reaches
    # eta - eps/2.
    stats = {"lowered": 0, "exits": 0, "polished": 0}
    bought, polished = [], []
    tomography, top_eigenvalue, polish = (cover_module.subspace_tomography,
                                          cover_module._top_eigenvalue, cover_module._polish)

    def recording_tomography(o, m, d, *args, frame=None):
        bought.append([m, d, frame])
        return tomography(o, m, d, *args, frame=frame)

    def recording_top(rho):
        bought[-1].append(top_eigenvalue(rho))
        return bought[-1][-1]

    def recording_polish(rho, root, *rest):
        polished.append(np.array(recenter_unitaries(root)).tobytes())
        return polish(rho, root, *rest)

    monkeypatch.setattr(cover_module, "subspace_tomography", recording_tomography)
    monkeypatch.setattr(cover_module, "_top_eigenvalue", recording_top)
    monkeypatch.setattr(cover_module, "_polish", recording_polish)
    states = [planted_mixture(haar_product_params(np.random.default_rng(40 + n), n), 0.95)
              for n in (3, 4, 5)]
    states += [random_mixed(n, np.random.default_rng(n - 2), rank=2) for n in (3, 4)]
    for state, cap in itertools.product(states, (1, 2)):
        overrides = dataclasses.replace(DESK_OVERRIDES, degree_cap=cap)
        n, full = state.n, density(state)
        for eta in (0.3, 0.5):
            params = CoverParams(eta, 0.05, 0.1, overrides)
            bought.clear()
            polished.clear()
            build_cover(StateOracle(state, seed=n), params)
            for m, d, frame, ceiling in bought:
                if frame is None:
                    continue
                marginal = partial_trace(full, n, range(m))
                own = np.linalg.eigvalsh(reference_rotated_cut(marginal, frame, d))[-1]
                assert abs(ceiling - own) <= 1e-12
                stats["lowered"] += ceiling < np.linalg.eigvalsh(marginal)[-1] - 1e-9
                exits = ceiling < params.eta - 0.5 * params.eps - 1e-12
                assert (np.array(frame).tobytes() in polished) != exits
                stats["exits"] += exits
                stats["polished"] += not exits
    assert all(stats.values()), stats


def planted_six_qubit_oracle():
    payload = generate("planted-product", {"n": 6, "w": 0.95, "noise": 0.05}, seed=1006)
    return StateOracle(state_from_json(payload["state"]), seed=1106)


def planted_sixteen_qubit_oracle():
    payload = generate("planted-product", {"n": 16, "w": 0.95, "noise": 0.05}, seed=1016)
    return StateOracle(state_from_json(payload["state"]), seed=1116)


def test_capped_estimate_opt_meets_opt_on_plants_and_superpositions():
    # Each capped root buys its weight-<= d block in its own frame, so the
    # cut keeps the plant's mass: caps 1-3 meet opt - eps on the `gen`
    # plants at n = 6 and 8 and on a^2 = 0.5 superpositions of two Haar
    # products at n = 4, 6 and 8, opt taken from 24 restarts.
    eps = 0.1
    cases = []
    for n in (6, 8):
        payload = generate("planted-product", {"n": n, "w": 0.95, "noise": 0.05}, seed=1000 + n)
        cases.append((state_from_json(payload["state"]), 1100 + n,
                      payload["ground_truth"]["opt"]))
    for n in (4, 6, 8):
        state = superposition(n, 5)
        cases.append((state, 5, best_product_fidelity(state, restarts=24)[0]))
    for (state, seed, opt), cap in itertools.product(cases, (1, 2, 3)):
        est, witness = estimate_opt(StateOracle(state, seed=seed), eps, 0.1,
                                    overrides=CoverOverrides(degree_cap=cap))
        assert witness is not None, (state.n, cap)
        got = fidelity(state, witness)
        assert got >= opt - eps and abs(est - got) <= eps / 4.0, (state.n, cap, got, opt)


def test_capped_estimate_opt_at_sixteen_qubits_stays_small():
    # At n = 16, cap 2, the purchases are blocks of at most 137 x 137 bought
    # in each root's frame: the witness meets opt - eps, and the traced peak
    # stays within 16 times the bytes of the state's factor.
    payload = generate("planted-product", {"n": 16, "w": 0.95, "noise": 0.05}, seed=1016)
    state = state_from_json(payload["state"])
    o = StateOracle(state, seed=1116)
    tracemalloc.start()
    try:
        est, witness = estimate_opt(o, 0.1, 0.1, overrides=CoverOverrides(degree_cap=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness is not None
    assert fidelity(state, witness) >= payload["ground_truth"]["opt"] - 0.1
    assert peak <= 16 * o.rho.factor.nbytes


def superposition(n, seed, a2=0.5, w=0.95):
    """w |psi><psi| + (1 - w) I/2^n, psi ∝ √a2 |pi_1> + √(1 - a2) |pi_2> for two Haar products."""
    rng = np.random.default_rng(seed)
    pi_1, pi_2 = (product_state_vector(haar_product_params(rng, n)).data for _ in range(2))
    psi = math.sqrt(a2) * pi_1 + math.sqrt(1.0 - a2) * pi_2
    return planted_mixture(psi / np.linalg.norm(psi), w)


def test_estimate_opt_logs_one_line_per_level(monkeypatch, caplog):
    # One INFO line per bisection level: eta, members, purchases held, and
    # the bracket lower <= opt <= upper.  A plant's bracket closes after one
    # level, so this runs on a capped superposition of two products, whose
    # bracket stays wider than 2 eps for three levels.
    levels = []
    build = cover_module._build

    def recording_build(o, params, *rest):
        cover = build(o, params, *rest)
        levels.append((params.eta, len(cover)))
        return cover

    monkeypatch.setattr(cover_module, "_build", recording_build)
    state = superposition(4, 5)
    with caplog.at_level(logging.INFO, logger="prodstate.cover"):
        _, witness = estimate_opt(StateOracle(state, seed=5), 0.1, 0.1,
                                  overrides=CoverOverrides(degree_cap=1))
    lines = [rec.getMessage() for rec in caplog.records if rec.name == "prodstate.cover"]
    pattern = r"cover level eta=(\S+): members=(\d+) purchases=(\d+) lower=(\S+) upper=(\S+)"
    got = [re.fullmatch(pattern, line).groups() for line in lines]
    assert [(eta, int(k)) for eta, k, *_ in got] == [("%.6g" % eta, k) for eta, k in levels]
    assert [int(held) for _, _, held, *_ in got] == [5, 10, 14]
    assert len(levels) == 3
    lower, upper = float(got[-1][-2]), float(got[-1][-1])
    opt = best_product_fidelity(state, restarts=8)[0]
    assert lower <= fidelity(state, witness) and opt <= upper and upper - lower > 0.1


def test_uncapped_roots_rotate_no_square_matrix(monkeypatch):
    # No root rotates a purchase or a marginal.  Uncapped, each purchase
    # reads the whole marginal's factor in place, in the identity frame, so
    # the sitewise frame reader never runs, and rows map back site by site
    # in the sweep.  Under a cap each root's own purchase reads its
    # weight-<= d rows in the root's recentring, once, through the sitewise
    # frame reader, and a prefix's shared purchase (m <= cap) reads in place.
    reads, tomography, frames = [], [], []
    inner = oracle_module._frame_rows

    def recording_frame_rows(rho, us, d):
        reads.append((us.copy(), d))
        return inner(rho, us, d)

    monkeypatch.setattr(oracle_module, "_frame_rows", recording_frame_rows)
    recording(monkeypatch, "subspace_tomography", tomography, frames)
    est, witness = estimate_opt(planted_six_qubit_oracle(), 0.1, 0.1)
    assert witness is not None and est > 0.5 and tomography and not reads
    tomography.clear()
    frames.clear()
    estimate_opt(planted_six_qubit_oracle(), 0.1, 0.1, overrides=CoverOverrides(degree_cap=2))
    own = [(args, frame) for (_, args, _), frame in zip(tomography, frames) if frame is not None]
    assert own and len(own) < len(tomography) and len(reads) == len(own)
    for (us, d), ((m, cap, _), frame) in zip(reads, own):
        assert d == cap < m and np.array_equal(us, frame)


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


def logged_brackets(caplog, o, overrides):
    """(estimate, witness, brackets): estimate_opt(o, 0.1, 0.1), each level's (lower, upper) read
    off its INFO line."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="prodstate.cover"):
        est, witness = estimate_opt(o, 0.1, 0.1, overrides=overrides)
    brackets = [tuple(map(float, re.search(r"lower=(\S+) upper=(\S+)$", rec.getMessage()).groups()))
                for rec in caplog.records if rec.name == "prodstate.cover"]
    return est, witness, brackets


def bracket_states():
    """(state, opt): plants, rank-2 random mixed states, superpositions of two products and
    pure products at n <= 8, opt taken from 8 restarts."""
    states = [state_from_json(generate("planted-product", {"n": n, "w": 0.95, "noise": 0.05},
                                       seed=1000 + n)["state"]) for n in (3, 5, 8)]
    states += [random_mixed(n, np.random.default_rng(n), rank=2) for n in (2, 3, 4, 6)]
    states += [superposition(n, 5) for n in (3, 4, 6)]
    states += [product_state_vector(haar_product_params(np.random.default_rng(n), n))
               for n in (2, 3, 7)]
    return [(state, best_product_fidelity(state, restarts=8)[0]) for state in states]


def assert_bracket(state, opt, est, witness, brackets):
    # The line prints 6 digits, so each side is read within 1e-6.
    got = 0.0 if witness is None else fidelity(state, witness)
    assert brackets and got >= opt - 0.1, (state.n, got, opt)
    assert all(opt <= upper + 1e-6 for _, upper in brackets), (state.n, opt, brackets)
    assert brackets[-1][0] <= got + 1e-6, (state.n, got, brackets)
    assert witness is None or abs(est - got) <= 0.1 / 4.0


def test_estimate_opt_bracket_holds_opt_and_the_witness(caplog):
    # Each level's upper (the least shared ceiling + tomo_eps, or an empty
    # level's eta) is at least opt, and its lower (the witness's estimate
    # - eps/4) at most the witness's fidelity: uncapped and at caps 1-2, on
    # the exact backend with no noise and with noise_opnorm 1.
    for state, opt in bracket_states():
        for cap, noise in itertools.product((None, 1, 2), (0.0, 1.0)):
            if cap is None or cap < state.n:
                o = StateOracle(state, seed=state.n, noise_opnorm=noise)
                assert_bracket(state, opt, *logged_brackets(caplog, o, CoverOverrides(degree_cap=cap)))


def test_sampling_estimate_opt_bracket_holds_opt_and_the_witness(caplog):
    # The same bracket on the sampling backend, where each bound holds
    # w.p. 1 - delta: the n = 2 states uncapped and at cap 1, and the n = 3
    # plant uncapped (about 5 s a run there).
    states = bracket_states()
    cases = [(state, opt, cap) for state, opt in states if state.n == 2 for cap in (None, 1)]
    cases.append((*states[0], None))
    for state, opt, cap in cases:
        o = StateOracle(state, backend="sampling", seed=state.n)
        assert_bracket(state, opt, *logged_brackets(caplog, o, CoverOverrides(degree_cap=cap)))


def test_cover_search_plants_stop_after_one_level(caplog):
    # On the `cover-search` benchmark plants (n = 3-8, `gen` seed 1000 s + n,
    # oracle seed 1000 s + 100 + n at seeds s = 1-8) the first level's
    # bracket is already within 2 eps: one level, and the witness meets
    # opt - eps.
    for seed, n in itertools.product(range(1, 9), range(3, 9)):
        payload = generate("planted-product", {"n": n, "w": 0.95, "noise": 0.05},
                           seed=1000 * seed + n)
        state = state_from_json(payload["state"])
        o = StateOracle(state, seed=1000 * seed + 100 + n)
        est, witness, brackets = logged_brackets(caplog, o, DESK_OVERRIDES)
        assert len(brackets) == 1, (seed, n, brackets)
        assert_bracket(state, payload["ground_truth"]["opt"], est, witness, brackets)


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
