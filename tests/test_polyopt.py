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
    _lattice_axis,
    _orthonormal_columns,
    _pruned_ball,
    effective_subspace,
    evaluate_poly,
    evaluate_poly_batch,
    solve_constrained,
)

from conftest import (
    ambient_solve_constrained,
    reference_ball_grid,
    reference_constrained_max,
    reference_membership_mask,
    reference_poly_values,
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


def test_batch_over_systems_matches_each_system():
    # One call on several systems of one degree gives each system's values
    # as a column, and each agrees with one matrix product per degree.
    rng = np.random.default_rng(12)
    for degree in (1, 2, 3):
        group = [random_system(rng, 3, degree) for _ in range(4)]
        pts = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
        cols = evaluate_poly_batch(group, pts)
        assert cols.shape == (30, 4)
        for j, sys in enumerate(group):
            assert np.abs(cols[:, j] - evaluate_poly_batch(sys, pts)).max() <= 1e-12
            assert np.abs(cols[:, j] - reference_poly_values(sys, pts)).max() <= 1e-12


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
    for seed, n in itertools.product(range(10), range(3, 8)):
        sys, dom = _polyopt_instance(seed, n)
        got = solve_constrained(sys, dom, eps=0.1)
        want = ambient_solve_constrained(sys, dom, 0.1, DEFAULT_NET_BUDGET)
        assert got is not None and want is not None
        assert got.tobytes() == want.tobytes(), (seed, n)


def test_solve_matches_ambient_reference_on_pinned_instances():
    pinned = 0
    for seed in range(1600, 1630):
        sys, dom = seeded_instance(seed)
        pinned += dom.a.shape[0]
        got = solve_constrained(sys, dom, eps=0.1)
        want = ambient_solve_constrained(sys, dom, 0.1, DEFAULT_NET_BUDGET)
        assert got is not None and want is not None
        assert got.tobytes() == want.tobytes(), seed
    assert pinned >= 10


def flat_capped_instance(seed):
    """A two-coordinate instance whose flatness cap binds: mu < 1 admits the
    full support, and nu > mu puts shell points past the cap; half pin a row."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u /= np.linalg.norm(u)
    raw = rng.uniform(0.2, 0.5, size=3)
    c = raw * (0.95 / raw.sum())
    sys = rank_one_system(2, c[0], c[1:], u)
    mu = float(rng.uniform(0.72, 0.85))
    nu = float(rng.uniform(mu + 0.05, 1.0))
    gamma = float(rng.uniform(0.28, 0.35))
    if seed % 2:
        row = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
        row *= 0.9 / np.linalg.norm(row)
        return sys, OptDomain(row, row @ (nu * u), nu, mu, gamma)
    return sys, OptDomain(np.zeros((0, 2)), np.zeros(0), nu, mu, gamma)


def test_solve_matches_ambient_reference_where_the_flatness_cap_binds():
    for seed in range(12):
        sys, dom = flat_capped_instance(seed)
        assert min(2, int(1.0 / dom.mu**2) + 1) == 2
        # The full support's net has shell points the cap rejects.
        radius = dom.nu + 2.0 * dom.gamma
        points = reference_ball_grid(2, radius, dom.gamma / 2.0)
        loose = OptDomain(dom.a, dom.v, dom.nu, 10.0, dom.gamma)
        assert (reference_membership_mask(loose, points, 2.0)
                & ~reference_membership_mask(dom, points, 2.0)).any()
        got = solve_constrained(sys, dom, eps=0.1)
        want = ambient_solve_constrained(sys, dom, 0.1, DEFAULT_NET_BUDGET)
        assert got is not None and want is not None
        assert got.tobytes() == want.tobytes(), seed
        assert dom.contains(got, factor=2.0)


def test_solve_without_an_effective_subspace_matches_ambient_reference():
    # Tensors below the singular-value threshold leave no effective
    # subspace, so the empty support's net has q = 0: the origin alone.
    rng = np.random.default_rng(34)
    for n in (2, 3):
        herm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = herm + herm.conj().T
        sys = PolySystem(n, 0.3, (0.02 * herm / np.linalg.norm(herm, 2),))
        assert effective_subspace(sys, 0.1).shape == (n, 0)
        for nu in (0.3, 0.8):
            dom = OptDomain(np.zeros((0, n)), np.zeros(0), nu=nu, mu=1.5, gamma=0.2)
            got = solve_constrained(sys, dom, eps=0.1)
            want = ambient_solve_constrained(sys, dom, 0.1, DEFAULT_NET_BUDGET)
            assert got is not None and got.tobytes() == want.tobytes()
            assert dom.contains(got, factor=2.0)


def test_solve_answer_does_not_depend_on_the_scoring_block(monkeypatch):
    # Many lattice points tie exactly on these rank-one systems; the tie rule
    # keeps the answer fixed however the rows are split for scoring.
    answers = {}
    for elements in (256, 10**4, 10**6):
        monkeypatch.setattr(polyopt, "_SCORE_ELEMENTS", elements)
        for n in range(3, 8):
            x = solve_constrained(*_polyopt_instance(0, n), eps=0.1)
            assert answers.setdefault(n, x.tobytes()) == x.tobytes(), (elements, n)


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


# --- lattices and budgets ---------------------------------------------------------


def brute_force_ball(q, radius, spacing):
    """Axis indices of every point of the 2q-cube whose squares, summed left
    to right one coordinate at a time, stay within radius^2."""
    axis = _lattice_axis(q, radius, spacing)
    kept, sums = [], []
    for ks in itertools.product(range(len(axis)), repeat=2 * q):
        total = 0.0
        for k in ks:
            total += float(axis[k]) ** 2
        if total <= radius**2:
            kept.append(ks)
            sums.append(total)
    return np.array(kept, dtype=int).reshape(len(kept), 2 * q), np.array(sums)


def test_pruned_ball_matches_brute_force_lattice():
    # radius = spacing = 1.0 puts points exactly on the sphere at q = 1.
    for radius, spacing, qs in ((1.0, 1.0, range(4)), (1.1, 0.6, range(3)),
                                (2.2, 1.5, range(4)), (0.3, 1.0, range(3))):
        for q in qs:
            indices, sq = _pruned_ball(q, radius, spacing)
            want, sums = brute_force_ball(q, radius, spacing)
            g = len(_lattice_axis(q, radius, spacing))
            assert indices.dtype == np.min_scalar_type(g - 1)
            assert np.array_equal(indices, want) and np.array_equal(sq, sums)
    # Points on the sphere are kept at radius = spacing = 1.0, q = 1.
    indices, sq = _pruned_ball(1, 1.0, 1.0)
    assert len(indices) == 9 and sq.max() <= 1.0


def test_support_nets_chunks_match_cube_reference():
    # The lattice coordinates equal the whole cube filtered to the ball,
    # index for index, at q = 0..3 and at the cover's (2.2, 1.5) nets.
    for radius, spacing in ((1.1, 1.0), (2.2, 1.5), (1.0, 1.0)):
        for q in range(4):
            indices, _ = _pruned_ball(q, radius, spacing)
            got = polyopt._coords(_lattice_axis(q, radius, spacing), indices)
            want = reference_ball_grid(q, radius, spacing / math.sqrt(2.0 * max(q, 1)))
            assert got.dtype == want.dtype and np.array_equal(got, want), (radius, spacing, q)


# Support nets: for each coordinate support, the lattice points that
# `solve_constrained` scores in the span of (effective subspace, pin rows,
# axes of the support).


def record_support_nets(monkeypatch):
    """Collects (basis, axis, indices) for every support the solver scores."""
    nets = []
    inner = polyopt._support_values

    def recording_values(systems, bases, axis, indices, *rest):
        nets.extend((basis, axis, indices) for basis in bases)
        return inner(systems, bases, axis, indices, *rest)

    monkeypatch.setattr(polyopt, "_support_values", recording_values)
    return nets


def axis_instance(n, mu, nu=0.1):
    """A degree-1 rank-one system on the axis e0, with a domain far inside its
    ceiling (the early stop never fires) and a flatness cap above the ball."""
    sys = rank_one_system(n, 0.1, [0.5], np.eye(n)[0])
    return sys, OptDomain(np.zeros((0, n)), np.zeros(0), nu=nu, mu=mu, gamma=0.1)


def brute_force_shell(basis, radius, pitch, nu, g):
    """Every lattice point B c of the ball with | |c| - nu | <= g, one integer
    coordinate tuple at a time, squares summed left to right."""
    q = basis.shape[1]
    steps = math.floor(radius / pitch)
    points = []
    for ks in itertools.product(range(-steps, steps + 1), repeat=2 * q):
        reals = [k * pitch for k in ks]
        total = 0.0
        for r in reals:
            total += r * r
        if total <= radius**2 and abs(math.sqrt(total) - nu) <= g:
            points.append((np.array(reals[:q]) + 1j * np.array(reals[q:])) @ basis.T)
    return np.array(points).reshape(-1, basis.shape[0])


def test_support_nets_match_brute_force_lattice(monkeypatch):
    nets = record_support_nets(monkeypatch)
    # nu = 0.3 puts the inner edge of the norm shell at 0.1 inside the ball.
    for n, mu, count in ((2, 0.3, 4), (3, 1.5, 4)):
        nets.clear()
        sys, dom = axis_instance(n, mu, nu=0.3)
        assert solve_constrained(sys, dom, eps=0.1) is not None
        assert len(nets) == count
        radius = dom.nu + 2.0 * dom.gamma
        for basis, axis, indices in nets:
            q = basis.shape[1]
            assert 1 <= q <= 2
            assert np.abs(basis.conj().T @ basis - np.eye(q)).max() <= 1e-12
            got = polyopt._coords(axis, indices) @ basis.T
            # Every point lies in span(basis): projecting onto it moves nothing.
            assert np.abs(got @ basis.conj() @ basis.T - got).max() <= 1e-12
            want = brute_force_shell(basis, radius, dom.gamma / math.sqrt(2.0 * q),
                                     dom.nu, 2.0 * dom.gamma)
            # The same points in the same (lex) order.
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12


def rank_one_cube_instance(n):
    """A rank-one system on a real direction with an unpinned domain that
    admits single-coordinate supports only and stops short of its ceiling."""
    u = np.linspace(1.0, 2.0, n)
    sys = rank_one_system(n, 0.2, [0.4, 0.3], u / np.linalg.norm(u))
    return sys, OptDomain(np.zeros((0, n)), np.zeros(0), nu=0.6, mu=1.5, gamma=0.3)


def test_support_nets_size_then_lex_order(monkeypatch):
    nets = record_support_nets(monkeypatch)
    for n, mu, supports in (
            (4, 0.9, [(), (0,), (1,), (2,), (3,),
                      (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            # Supports never exceed the dimension, however small mu is.
            (2, 0.3, [(), (0,), (1,), (0, 1)])):
        nets.clear()
        sys, dom = axis_instance(n, mu)
        assert solve_constrained(sys, dom, eps=0.1, net_budget=10**8) is not None
        wide = _orthonormal_columns(effective_subspace(sys, 0.1))
        assert [basis.shape[1] for basis, _, _ in nets] == [
            wide.shape[1] + len(set(s) - {0}) for s in supports]
        for (basis, _, _), support in zip(nets, supports, strict=True):
            want = _orthonormal_columns(
                np.concatenate([wide, np.eye(n, dtype=complex)[:, list(support)]], axis=1))
            assert np.array_equal(basis, want), support


def test_support_nets_budget_raises_before_support_yields(monkeypatch):
    # The nets span q = 1 at the empty support and q = 2 at each axis; the
    # error comes at the first support whose nets so far exceed the budget,
    # the same one for the solver and its ambient reference, with every
    # earlier support scored and no lattice of a q that only later supports use.
    sys, dom = rank_one_cube_instance(3)
    wide = _orthonormal_columns(effective_subspace(sys, 0.1))
    radius = dom.nu + 2.0 * dom.gamma
    raw = {q: len(_lattice_axis(q, radius, dom.gamma)) ** (2 * q) for q in (1, 2)}
    nets, built = record_support_nets(monkeypatch), []
    inner_ball = polyopt._pruned_ball

    def recording_ball(q, *rest):
        built.append(q)
        return inner_ball(q, *rest)

    monkeypatch.setattr(polyopt, "_pruned_ball", recording_ball)
    supports = [(), (0,), (1,), (2,)]
    for reach in range(1, 5):
        budget = raw[1] + (reach - 1) * raw[2]
        nets.clear()
        built.clear()
        if reach < 4:
            for search in (solve_constrained, ambient_solve_constrained):
                with pytest.raises(ResourceBudgetError, match=str(budget + raw[2])):
                    search(sys, dom, 0.1, budget)
        else:
            assert solve_constrained(sys, dom, eps=0.1, net_budget=budget) is not None
        assert built == [1] + [2] * (reach > 1)
        assert len(nets) == reach
        for (basis, _, _), support in zip(nets, supports):
            want = _orthonormal_columns(
                np.concatenate([wide, np.eye(3, dtype=complex)[:, list(support)]], axis=1))
            assert np.array_equal(basis, want)


def test_solve_builds_each_ball_once_per_q(monkeypatch):
    # Supports of sizes 0..3 share the lattices of q = 1 and 2.
    built = []
    inner = polyopt._pruned_ball

    def recording_ball(q, *rest):
        built.append(q)
        return inner(q, *rest)

    monkeypatch.setattr(polyopt, "_pruned_ball", recording_ball)
    e0 = np.eye(2)[:, 0]
    sys = rank_one_system(2, 0.2, [0.6], e0)
    dom = OptDomain(np.zeros((0, 2)), np.zeros(0), nu=0.9, mu=0.8, gamma=0.3)
    # span(e0) gives q = 1 at (), (0,); q = 2 at (1,), (0, 1).
    x = solve_constrained(sys, dom, eps=0.05)
    assert x is not None and built == [1, 2]


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
    # row's norm in the others.
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
