"""Instance generators and the brute-force fidelity oracles."""

import math

import numpy as np
import pytest

from prodstate.bruteforce import best_product_fidelity
from prodstate.instances import (
    Graph,
    clique_number,
    ghz_state,
    graphs_up_to_4_vertices,
    planted_mixture,
    planted_opt,
    random_mixed,
)
from prodstate.states import (
    ProductParams,
    QuantumState,
    fidelity,
    haar_state,
)

from conftest import (
    bell_state,
    bloch_grid,
    grid_product_opt,
    maximally_mixed,
    planted_grid_opt,
    random_product_params,
    reference_best_product_fidelity,
    w_state,
)


def test_ghz_amplitudes():
    s = ghz_state(3)
    vec = np.zeros(8)
    vec[0] = vec[7] = 1 / math.sqrt(2)
    assert np.allclose(s.data, vec)


def test_w_amplitudes():
    s = w_state(3)
    vec = np.zeros(8)
    vec[4] = vec[2] = vec[1] = 1 / math.sqrt(3)  # |100>, |010>, |001>
    assert np.allclose(s.data, vec)


def test_bell_is_ghz2():
    assert np.allclose(bell_state().data, ghz_state(2).data)


def test_maximally_mixed():
    s = maximally_mixed(2)
    assert np.allclose(s.data, np.eye(4) / 4)
    # I/8 is the factor with no columns and shift 1/8.
    s = maximally_mixed(3)
    assert s.data.factor.shape == (8, 0) and s.data.shift == 1 / 8


def test_planted_mixture_and_opt():
    params = ProductParams((0.3 + 0.1j, -0.2j))
    mix = planted_mixture(params, 0.9)
    assert mix.kind == "mixed"
    assert abs(np.trace(mix.data) - 1.0) < 1e-12
    # The planted state itself achieves the planted optimum.
    assert abs(fidelity(mix, params) - planted_opt(0.9, 2)) < 1e-12


def test_random_mixed_rank():
    rng = np.random.default_rng(7)
    s = random_mixed(3, rng, rank=2)
    eigs = np.linalg.eigvalsh(s.data)
    assert np.sum(eigs > 1e-12) == 2
    assert abs(np.sum(eigs) - 1.0) < 1e-12


def test_graph_validation():
    g = Graph(3, frozenset({(0, 1), (2, 1)}))
    assert g.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(0, 5)}))


def test_clique_numbers_of_catalog():
    expected = {
        "single-edge": 2,
        "two-disjoint-edges": 2,
        "path-3": 2,
        "path-4": 2,
        "triangle": 3,
        "star-3": 2,
        "paw": 3,
        "cycle-4": 2,
        "diamond": 3,
        "complete-4": 4,
    }
    catalog = dict(graphs_up_to_4_vertices())
    assert set(catalog) == set(expected)
    for name, g in catalog.items():
        assert clique_number(g) == expected[name], name


def test_catalog_graphs_non_isomorphic():
    # Degree-sequence + edge-count signature separates all ten.
    seen = set()
    for _, g in graphs_up_to_4_vertices():
        degrees = [0] * g.n_vertices
        for a, b in g.edges:
            degrees[a] += 1
            degrees[b] += 1
        sig = (g.n_vertices, len(g.edges), tuple(sorted(degrees)))
        assert sig not in seen
        seen.add(sig)


# --- brute-force product-fidelity oracles -------------------------------


def test_best_product_fidelity_ghz():
    fid, _ = best_product_fidelity(ghz_state(3))
    assert abs(fid - 0.5) < 1e-9


def test_best_product_fidelity_w():
    # Closed form for the W state on n sites: (1 - 1/n)^(n-1).
    for n in (2, 3, 4):
        fid, _ = best_product_fidelity(w_state(n))
        assert abs(fid - (1 - 1 / n) ** (n - 1)) < 1e-9, n


def test_best_product_fidelity_pure_product():
    rng = np.random.default_rng(3)
    params = random_product_params(rng, 4)
    from prodstate.states import QuantumState, product_state_vector

    s = QuantumState.pure(product_state_vector(params).data)
    fid, found = best_product_fidelity(s)
    assert fid > 1.0 - 1e-9
    assert fidelity(s, found) > 1.0 - 1e-9


def test_best_product_fidelity_planted():
    rng = np.random.default_rng(11)
    # n = 12 is past the dense budget: the factored state is read as its factor.
    for n in (2, 4, 12):
        params = random_product_params(rng, n)
        mix = planted_mixture(params, 0.9)
        fid, _ = best_product_fidelity(mix)
        assert abs(fid - planted_opt(0.9, n)) < 1e-8


def test_best_product_fidelity_matches_dense_reference():
    # Pure, dense and factored states at n <= 6: the sweep through the state
    # readers agrees with the dense 2n-axis sweep at the same seed.
    rng = np.random.default_rng(29)
    cases = [
        ghz_state(3),
        w_state(4),
        QuantumState.pure(haar_state(64, rng)),
        maximally_mixed(3),
        random_mixed(4, rng),
        random_mixed(5, rng, rank=3),
        planted_mixture(random_product_params(rng, 6), 0.9),
    ]
    for s in cases:
        for seed in (0, 1):
            fid, found = best_product_fidelity(s, restarts=4, seed=seed)
            ref, ref_found = reference_best_product_fidelity(s, restarts=4, seed=seed)
            assert abs(fid - ref) <= 1e-12
            assert abs(fidelity(s, found) - fidelity(s, ref_found)) <= 1e-12


def test_best_product_fidelity_maximally_mixed():
    fid, _ = best_product_fidelity(maximally_mixed(3), restarts=3)
    assert abs(fid - 1 / 8) < 1e-9


def test_bloch_grid_covers():
    # Every single-qubit state is within ~pitch of some grid point.
    grid = bloch_grid(0.2)
    rng = np.random.default_rng(5)
    from prodstate.states import haar_state

    for _ in range(200):
        v = haar_state(2, rng)
        best = np.max(np.abs(grid @ v.conj()) ** 2)
        assert best > 1.0 - 2 * 0.2**2


def test_grid_vs_alternating_oracle():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        s = random_mixed(n, rng)
        alt, _ = best_product_fidelity(s)
        grid = grid_product_opt(s, pitch=0.2)
        # The grid value never exceeds the optimum and lands close below it.
        assert grid <= alt + 1e-9
        assert grid >= alt - 0.05


def test_grid_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        grid_product_opt(maximally_mixed(4))


def test_planted_grid_opt_accuracy():
    rng = np.random.default_rng(23)
    for n in (2, 8):
        params = random_product_params(rng, n)
        exact = planted_opt(0.95, n)
        approx = planted_grid_opt(params, 0.95, pitch=0.05)
        assert approx <= exact + 1e-12
        assert approx >= exact - 0.01
