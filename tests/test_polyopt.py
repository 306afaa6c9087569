"""Constrained polynomial optimization: examples, invariants, oracle checks."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from prodstate import polyopt
from prodstate.cli import _polyopt_instance
from prodstate.errors import ResourceBudgetError
from prodstate.polyopt import (
    DEFAULT_NET_BUDGET,
    OptDomain,
    PolySystem,
    _orthonormal_columns,
    effective_subspace,
    evaluate_poly,
    evaluate_poly_batch,
    solve_constrained,
    support_nets,
)

from conftest import (
    ambient_solve_constrained,
    reference_ball_grid,
    reference_constrained_max,
    reference_membership_mask,
)


def rank_one_system(n, constant, weights, u):
    """c0 + sum_k c_k |<u, x>|^(2k) as dense coefficient tensors."""
    u = np.asarray(u, dtype=complex)
    proj = np.outer(u, u.conj())
    tensors, mat = [], None
    for c in weights:
        mat = proj if mat is None else np.kron(mat, proj)
        k = 1 + len(tensors)
        tensors.append(c * mat.reshape((n,) * (2 * k)))
    return PolySystem(n, constant=constant, tensors=tensors)


def seeded_instance(seed, feasible=True):
    """Low-rank instance family for oracle cross-checks (n<=5, d<=2, r<=1)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    d = int(rng.integers(1, 3))
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    raw = rng.uniform(0.2, 0.5, size=d + 1)
    c = raw * (0.95 / raw.sum())
    sys = rank_one_system(n, c[0], c[1:], u)
    if feasible:
        nu = float(rng.uniform(0.6, 1.0))
        mu = float(rng.uniform(1.2, 2.0))
        gamma = float(rng.uniform(0.2, 0.35))
        r = int(rng.integers(0, 2))
        if r:
            scale = float(rng.uniform(0.5, 1.0))
            theta = float(rng.uniform(0.0, math.pi / 2))
            a = scale * u[None, :]
            v = np.array([scale * nu * math.cos(theta)], dtype=complex)
        else:
            a, v = np.zeros((0, n)), np.zeros(0)
    else:
        nu = float(rng.uniform(0.85, 1.0))
        mu = float(rng.uniform(0.02, 0.06))
        gamma = float(rng.uniform(0.005, 0.015))
        a, v = np.zeros((0, n)), np.zeros(0)
        assert mu * math.sqrt(n) + gamma * (1 + math.sqrt(n)) < nu - gamma
    return sys, OptDomain(a, v, nu, mu, gamma)


def net_covering_error(sys, dom):
    """Lipschitz bound on |f| change across one net covering radius (gamma/2)."""
    radius = dom.nu + 2.0 * dom.gamma
    lip = sum(2 * k * float(np.linalg.norm(t)) * radius ** (2 * k - 1)
              for k, t in enumerate(sys.tensors, start=1))
    return lip * dom.gamma / 2.0


def test_constant_objective():
    sys = PolySystem(3, constant=0.3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert evaluate_poly(sys, x) == pytest.approx(0.3, abs=1e-14)
    dom = OptDomain(np.zeros((0, 3)), np.zeros(0), nu=0.5, mu=1.5, gamma=0.1)
    x = solve_constrained(sys, dom, eps=0.1)
    assert x is not None
    assert dom.contains(x, factor=2.0)
    assert abs(evaluate_poly(sys, x)) == pytest.approx(0.3, abs=1e-12)


def test_scaled_identity_gives_norm_squared():
    n = 4
    sys = PolySystem(n, tensors=(np.eye(n, dtype=complex) / math.sqrt(n),))
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = np.linalg.norm(x) ** 2 / math.sqrt(n)
        assert evaluate_poly(sys, x) == pytest.approx(want, rel=1e-12)


def test_rank_one_peak_value():
    n = 4
    e1 = np.eye(n)[:, 0]
    sys = rank_one_system(n, 0.0, [1.0], e1)
    assert evaluate_poly(sys, e1) == pytest.approx(1.0, abs=1e-14)


def test_batch_matches_single_evaluation():
    sys, _ = seeded_instance(11)
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((20, sys.n)) + 1j * rng.standard_normal((20, sys.n))
    batch = evaluate_poly_batch(sys, pts)
    singles = np.array([evaluate_poly(sys, p) for p in pts])
    assert np.allclose(batch, singles, atol=1e-12)


def random_system(rng, n, degree):
    """Dense complex tensors of degrees 1..degree, total mass below 0.9."""
    raw = [rng.standard_normal((n,) * (2 * k)) + 1j * rng.standard_normal((n,) * (2 * k))
           for k in range(1, degree + 1)]
    scale = 0.9 / (0.5 + sum(float(np.linalg.norm(t)) for t in raw))
    return PolySystem(n, 0.5 * scale * (1 - 1j), tuple(scale * t for t in raw))


def complex_isometry(rng, n, q):
    raw = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
    return np.linalg.qr(raw)[0] if q else np.zeros((n, 0), dtype=complex)


def test_restricted_matches_ambient_evaluation():
    rng = np.random.default_rng(31)
    n = 3
    for degree in (1, 2, 3):
        sys = random_system(rng, n, degree)
        for q in range(n + 1):
            basis = complex_isometry(rng, n, q)
            assert np.abs(basis.imag).max(initial=0.0) > 0.1 or q == 0
            local = sys.restricted(basis)
            assert local.n == q and local.degree == degree
            coords = rng.standard_normal((40, q)) + 1j * rng.standard_normal((40, q))
            got = evaluate_poly_batch(local, coords)
            want = evaluate_poly_batch(sys, coords @ basis.T)
            assert np.abs(got - want).max() <= 1e-12


def test_restricted_system_passes_mass_check():
    rng = np.random.default_rng(32)
    for degree in (1, 2, 3):
        sys = random_system(rng, 3, degree)
        mass = abs(sys.constant) + sum(float(np.linalg.norm(t)) for t in sys.tensors)
        for q in range(4):
            local = sys.restricted(complex_isometry(rng, 3, q))
            local_mass = abs(local.constant) + sum(
                float(np.linalg.norm(t)) for t in local.tensors)
            assert local_mass <= mass + 1e-12
    # q = 0 leaves the constant.
    local = random_system(rng, 3, 2).restricted(np.zeros((3, 0), dtype=complex))
    assert local.n == 0 and all(t.size == 0 for t in local.tensors)
    assert np.array_equal(evaluate_poly_batch(local, np.zeros((2, 0), dtype=complex)),
                          np.full(2, local.constant))


def test_effective_subspace_zero_tensors():
    assert effective_subspace(PolySystem(5, constant=0.2), eps=0.1).shape == (5, 0)
    sys = PolySystem(5, tensors=(np.zeros((5, 5)),))
    assert effective_subspace(sys, eps=0.1).shape == (5, 0)


def test_effective_subspace_rank_one_span():
    n = 4
    e1 = np.eye(n)[:, 0]
    sys = rank_one_system(n, 0.0, [1.0], e1)
    w = effective_subspace(sys, eps=0.1)
    assert w.shape == (n, 1)
    assert abs(np.vdot(w[:, 0], e1)) == pytest.approx(1.0, abs=1e-12)


def test_effective_subspace_projection_error_and_dim():
    rng = np.random.default_rng(3)
    n, eps = 4, 0.5
    for _ in range(10):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u /= np.linalg.norm(u)
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        t1 = 0.55 * np.outer(u, u.conj()) + 0.3 * noise / np.linalg.norm(noise)
        sys = PolySystem(n, constant=0.1, tensors=(t1,))
        w = effective_subspace(sys, eps)
        d = sys.degree
        assert w.shape[1] <= 8 * (d + 1) ** 6 / eps**2
        proj = w @ w.conj().T
        assert np.linalg.norm(proj @ proj - proj) <= 1e-10
        assert np.linalg.norm(proj - proj.conj().T) <= 1e-10
        for _ in range(50):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x /= np.linalg.norm(x)
            drift = abs(evaluate_poly(sys, x) - evaluate_poly(sys, proj @ x))
            assert drift <= eps


def test_projection_error_many_random_unit_inputs():
    sys, _ = seeded_instance(17)
    eps = 0.3
    w = effective_subspace(sys, eps)
    proj = w @ w.conj().T
    rng = np.random.default_rng(4)
    x = rng.standard_normal((500, sys.n)) + 1j * rng.standard_normal((500, sys.n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    drift = np.abs(evaluate_poly_batch(sys, x) - evaluate_poly_batch(sys, x @ proj.T))
    assert float(drift.max()) <= eps


def test_solve_rank_one_reaches_peak():
    n = 4
    e1 = np.eye(n)[:, 0]
    sys = rank_one_system(n, 0.0, [1.0], e1)
    dom = OptDomain(np.zeros((0, n)), np.zeros(0), nu=1.0, mu=1.0, gamma=0.05)
    eps = 0.1
    x = solve_constrained(sys, dom, eps=eps)
    assert x is not None
    assert dom.contains(x, factor=2.0)
    assert abs(evaluate_poly(sys, x)) >= 1.0 - eps
    assert abs(x[0]) >= 0.9 * np.linalg.norm(x)


def test_solve_infeasible_returns_bottom():
    n = 4
    sys = PolySystem(n, constant=0.4)
    mu, gamma, nu = 0.05, 0.01, 0.9
    assert mu * math.sqrt(n) + gamma * (1 + math.sqrt(n)) < nu - gamma
    dom = OptDomain(np.zeros((0, n)), np.zeros(0), nu=nu, mu=mu, gamma=gamma)
    assert solve_constrained(sys, dom, eps=0.1) is None


def test_solve_deterministic_and_membership():
    sys, dom = seeded_instance(5)
    a = solve_constrained(sys, dom, eps=0.1)
    b = solve_constrained(sys, dom, eps=0.1)
    assert a is not None and np.array_equal(a, b)
    assert dom.contains(a, factor=2.0)


def test_solve_monotone_under_gamma_doubling():
    rng = np.random.default_rng(7)
    n = 4
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    sys = rank_one_system(n, 0.3, [0.6], u)
    eps = 0.1
    vals = {}
    for gamma in (0.2, 0.4):
        dom = OptDomain(np.zeros((0, n)), np.zeros(0), nu=0.9, mu=1.5, gamma=gamma)
        x = solve_constrained(sys, dom, eps=eps)
        assert x is not None
        vals[gamma] = abs(evaluate_poly(sys, x))
    assert vals[0.4] >= vals[0.2] - eps - 1e-9


def test_solve_matches_ambient_reference_on_cli_systems():
    for n in range(3, 8):
        sys, dom = _polyopt_instance(0, n)
        got = solve_constrained(sys, dom, eps=0.1)
        want = ambient_solve_constrained(sys, dom, 0.1, DEFAULT_NET_BUDGET)
        assert got is not None and want is not None
        assert got.tobytes() == want.tobytes(), n


def test_solve_with_subspace_pin_matches_ambient_reference():
    rng = np.random.default_rng(33)
    n = 4
    for theta in (0.3, 0.9, 1.4):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        sys = rank_one_system(n, 0.2, [0.35, 0.35], u)
        a = 0.8 * np.exp(1j * theta) * u[None, :]
        dom = OptDomain(a, np.array([0.6 * np.cos(theta)]), nu=0.8, mu=1.2, gamma=0.25)
        got = solve_constrained(sys, dom, eps=0.1)
        want = ambient_solve_constrained(sys, dom, 0.1, DEFAULT_NET_BUDGET)
        assert got is not None and want is not None
        assert dom.contains(got, factor=2.0)
        assert abs(abs(evaluate_poly(sys, got)) - abs(evaluate_poly(sys, want))) <= 1e-12


def test_net_budget_guard():
    n = 4
    sys = PolySystem(n, constant=0.3)
    dom = OptDomain(np.zeros((0, n)), np.zeros(0), nu=0.9, mu=0.45, gamma=0.05)
    with pytest.raises(ResourceBudgetError):
        solve_constrained(sys, dom, eps=0.1)


# --- support nets ---------------------------------------------------------------


def brute_force_ball(basis, radius, pitch):
    """Every lattice point of the ball, one integer coordinate tuple at a time."""
    q = basis.shape[1]
    steps = math.floor(radius / pitch)
    points = []
    for ks in itertools.product(range(-steps, steps + 1), repeat=2 * q):
        reals = np.array(ks) * pitch
        if (reals**2).sum() <= radius**2:
            points.append((reals[:q] + 1j * reals[q:]) @ basis.T)
    return np.array(points).reshape(-1, basis.shape[0])


def test_support_nets_match_brute_force_lattice():
    rng = np.random.default_rng(7)
    n, radius, spacing = 3, 1.1, 0.6
    pinned = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    for base, max_support in ((np.zeros((n, 0), dtype=complex), 2), (pinned, 1)):
        seen = 0
        for support, basis, chunks in support_nets(base, max_support, radius, spacing,
                                                   10**6):
            want_basis = _orthonormal_columns(
                np.concatenate([base, np.eye(n, dtype=complex)[:, list(support)]], axis=1))
            assert np.array_equal(basis, want_basis)
            q = basis.shape[1]
            assert q <= 2
            assert np.abs(basis.conj().T @ basis - np.eye(q)).max(initial=0.0) <= 1e-12
            got = np.concatenate(list(chunks))
            # Every point lies in span(basis): projecting onto it moves nothing.
            assert np.abs(got @ basis.conj() @ basis.T - got).max(initial=0.0) <= 1e-12
            want = brute_force_ball(basis, radius, spacing / math.sqrt(2.0 * max(q, 1)))
            assert got.shape == want.shape
            dists = np.linalg.norm(got[:, None, :] - want[None, :, :], axis=2)
            assert np.all(dists.min(axis=0) <= 1e-12)
            assert np.all(dists.min(axis=1) <= 1e-12)
            seen += 1
        assert seen == sum(math.comb(n, k) for k in range(max_support + 1))


def test_support_nets_size_then_lex_order():
    supports = [s for s, _, _ in support_nets(np.zeros((4, 0)), 2, 1.0, 1.0, 10**6)]
    assert supports == [(), (0,), (1,), (2,), (3,),
                        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    # Supports never exceed the dimension.
    assert len([s for s, _, _ in support_nets(np.zeros((2, 0)), 5, 1.0, 1.0, 10**6)]) == 4


def test_support_nets_budget_raises_before_support_yields():
    # Raw lattice counts: 1 for the empty support, then 3^2 = 9 per axis.
    for budget, reached in ((15, [(), (0,)]), (19, [(), (0,), (1,)])):
        reached_here = []
        with pytest.raises(ResourceBudgetError, match="budget"):
            for support, _, chunks in support_nets(np.zeros((3, 0)), 1, 1.0, 1.0, budget):
                reached_here.append(support)
                for _ in chunks:
                    pass
        assert reached_here == reached


def _net_cases(rng):
    """(base, max_support) pairs whose supports span q = 0..3, with and without a base column."""
    pinned = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    return ((np.zeros((3, 0), dtype=complex), 3), (pinned, 2))


def test_support_nets_chunks_match_cube_reference(monkeypatch):
    # A small raw chunk puts many chunk boundaries inside every ball.
    monkeypatch.setattr(polyopt, "_EVAL_CHUNK", 97)
    radius, spacing = 1.1, 1.0
    qs = set()
    for base, max_support in _net_cases(np.random.default_rng(3)):
        for _, basis, chunks in support_nets(base, max_support, radius, spacing, 10**6):
            q = basis.shape[1]
            qs.add(q)
            got = list(chunks)
            want = list(reference_ball_grid(basis, radius, spacing / math.sqrt(2.0 * max(q, 1))))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    assert qs == {0, 1, 2, 3}


def test_support_nets_replays_a_partly_consumed_lattice(monkeypatch):
    # Abandoning a support's chunks early must not cut short later supports of the same q.
    monkeypatch.setattr(polyopt, "_EVAL_CHUNK", 50)
    radius, spacing = 1.0, 1.0
    for step, (_, basis, chunks) in enumerate(
            support_nets(np.zeros((3, 0)), 2, radius, spacing, 10**6)):
        q = basis.shape[1]
        want = list(reference_ball_grid(basis, radius, spacing / math.sqrt(2.0 * max(q, 1))))
        got = [next(chunks)] if step % 2 else list(chunks)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert step % 2 or len(got) == len(want)


def test_support_nets_enumerate_each_ball_once_per_q(monkeypatch):
    chunk = 50
    monkeypatch.setattr(polyopt, "_EVAL_CHUNK", chunk)
    cube_chunks = []
    unravel = np.unravel_index

    def counting_unravel(indices, shape):
        cube_chunks.append(len(shape) // 2)
        return unravel(indices, shape)

    monkeypatch.setattr(np, "unravel_index", counting_unravel)
    radius, spacing = 1.0, 1.0
    for base, max_support in _net_cases(np.random.default_rng(4)):
        cube_chunks.clear()
        qs = []
        for _, basis, chunks in support_nets(base, max_support, radius, spacing, 10**6):
            qs.append(basis.shape[1])
            for _ in chunks:
                pass
        assert len(qs) > len(set(qs))
        want = {}
        for q in set(qs) - {0}:
            g = 2 * math.floor(radius / (spacing / math.sqrt(2.0 * q))) + 1
            want[q] = math.ceil(g ** (2 * q) / chunk)
        assert {q: cube_chunks.count(q) for q in set(cube_chunks)} == want


def test_solve_constrained_peak_memory_on_cli_system():
    sys_, dom = _polyopt_instance(0, 6)
    tracemalloc.start()
    try:
        assert solve_constrained(sys_, dom, 0.1) is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


# --- domain membership -----------------------------------------------------------


def test_contains_agrees_with_membership_mask():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    a /= 1.5 * np.linalg.norm(a, 2)
    domains = [
        OptDomain(a, np.array([0.2, -0.1j]), nu=0.8, mu=0.6, gamma=0.3),
        OptDomain(np.zeros((0, 4)), np.zeros(0), nu=0.7, mu=0.4, gamma=0.2),
    ]
    for dom in domains:
        points = 0.5 * (rng.standard_normal((400, 4)) + 1j * rng.standard_normal((400, 4)))
        for factor in (1.0, 2.0):
            mask = dom.membership_mask(points, factor)
            assert 0 < mask.sum() < len(points)
            assert [dom.contains(x, factor) for x in points] == mask.tolist()


def test_contains_agrees_with_membership_mask_on_boundaries():
    # Dyadic values make every boundary distance exact: g = 0.125 at factor 1.
    # Each case lists points on one boundary and the same points moved just
    # past it, well inside the other two constraints.
    free = (np.zeros((0, 2)), np.zeros(0))
    cases = [
        # Norm shell: |x| = nu + g and |x| = nu - g.
        (OptDomain(*free, nu=0.5, mu=1.0, gamma=0.125),
         [[0.375, 0.5], [0.375j, 0.0]], [[0.375, 0.5000001], [0.3749999j, 0.0]]),
        # Flatness cap: |x_i| = mu + g.
        (OptDomain(*free, nu=0.5, mu=0.25, gamma=0.125),
         [[0.375j, 0.25], [0.25, -0.375]], [[0.3750001j, 0.25], [0.25, -0.3750001]]),
        # Subspace pin: |A x - v| = g.
        (OptDomain(np.array([[1.0, 0.0]]), np.array([0.25]), nu=0.5, mu=1.0, gamma=0.125),
         [[0.375, 0.25], [0.125, 0.375]], [[0.3750001, 0.25], [0.1249999, 0.375]]),
    ]
    for dom, on, past in cases:
        for rows, member in ((on, True), (past, False)):
            points = np.array(rows, dtype=complex)
            mask = dom.membership_mask(points, 1.0)
            assert mask.tolist() == [member] * len(points)
            assert [dom.contains(x, 1.0) for x in points] == mask.tolist()


def test_membership_mask_matches_three_constraint_formula():
    # The cap mu + g binds in the first domains and lies above every random
    # row's norm in the others, where the mask skips the flatness test.
    # Rows with one nonzero coordinate sit exactly on the cap |x| = mu + g,
    # inside the norm shell of the binding domains, and just below it; the
    # modulus of some rounds one ulp above their norm.
    rng = np.random.default_rng(29)
    a = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    a /= 1.5 * np.linalg.norm(a, 2)
    pins = [(a, np.array([0.2, -0.1j])), (np.zeros((0, 4)), np.zeros(0))]
    shapes = [(0.5, 0.3, 0.125, True), (0.8, 3.0, 0.3, False)]
    phases = np.concatenate([[1.0, 1j, -1.0, -1j], np.exp(2j * np.pi * rng.uniform(size=60))])
    cut_by_cap = 0
    for (mat, v), (nu, mu, gamma, binding) in itertools.product(pins, shapes):
        dom = OptDomain(mat, v, nu=nu, mu=mu, gamma=gamma)
        for factor in (1.0, 2.0):
            cap = mu + factor * gamma
            spread = 0.25 * (rng.standard_normal((400, 4)) + 1j * rng.standard_normal((400, 4)))
            assert (np.abs(spread).max() > cap) == binding
            if not binding:
                assert np.linalg.norm(spread, axis=1).max() <= cap * (1.0 - 1e-12)
            on_cap = np.zeros((4 * len(phases), 4), dtype=complex)
            for i in range(4):
                on_cap[i * len(phases):(i + 1) * len(phases), i] = cap * phases
            for points in (spread, on_cap, (1.0 - 2e-12) * on_cap):
                want = reference_membership_mask(dom, points, factor)
                assert dom.membership_mask(points, factor).tolist() == want.tolist()
            loose = OptDomain(mat, v, nu=nu, mu=10.0, gamma=gamma)
            cut_by_cap += int(loose.membership_mask(spread, factor).sum()
                              - dom.membership_mask(spread, factor).sum())
    assert cut_by_cap > 0


def test_oracle_cross_check_small_battery():
    eps, oracle_slack = 0.1, 0.05
    for seed in range(100, 106):
        sys, dom = seeded_instance(seed)
        x = solve_constrained(sys, dom, eps=eps)
        assert x is not None
        assert dom.contains(x, factor=2.0)
        val = abs(evaluate_poly(sys, x))
        lo = reference_constrained_max(sys, dom, restarts=40, seed=seed)
        hi = reference_constrained_max(sys, dom, restarts=40, seed=seed,
                                       gamma_factor=2.0)
        assert not math.isnan(lo) and not math.isnan(hi)
        grid_err = net_covering_error(sys, dom)
        assert val >= lo - eps - grid_err - oracle_slack
        assert val <= hi + oracle_slack


def test_domain_validation():
    with pytest.raises(ValueError):
        OptDomain(np.zeros((0, 3)), np.zeros(0), nu=1.5, mu=1.0, gamma=0.1)
    with pytest.raises(ValueError):
        OptDomain(np.zeros((0, 3)), np.zeros(0), nu=0.5, mu=0.0, gamma=0.1)
    with pytest.raises(ValueError):
        OptDomain(np.zeros((0, 3)), np.zeros(0), nu=0.5, mu=1.0, gamma=0.6)
    with pytest.raises(ValueError):
        OptDomain(2.0 * np.eye(3), np.zeros(3), nu=0.5, mu=1.0, gamma=0.1)
    with pytest.raises(ValueError):
        PolySystem(3, constant=0.5, tensors=(np.eye(3),))
    with pytest.raises(ValueError):
        PolySystem(3, tensors=(np.eye(4),))
