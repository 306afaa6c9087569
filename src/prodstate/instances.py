"""Benchmark state constructors: planted mixtures, random mixed states, graphs.

These generate the concrete instances the tests and the CLI feed to the
learners, together with their known ground truths where closed forms exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .states import (
    FactoredDensity,
    ProductParams,
    QuantumState,
    check_dense_budget,
    product_state_vector,
)


def planted_mixture(planted: ProductParams | np.ndarray, w: float) -> QuantumState:
    """w |ψ><ψ| + (1−w) I/dim, in factored form (√w·ψ, (1−w)/dim).

    `planted` is a unit qubit vector ψ or the parameters of a product state
    π*, whose best product state is then π* itself.  w = 1 gives the pure ψ.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError("mixture weight must lie in [0, 1]")
    if isinstance(planted, ProductParams):
        planted = product_state_vector(planted).data
    psi = np.asarray(planted, dtype=complex)
    if w == 1.0:
        return QuantumState.pure(psi)
    return QuantumState.mixed(FactoredDensity(math.sqrt(w) * psi[:, None],
                                              (1.0 - w) / psi.shape[0]))


def planted_opt(w: float, n: int) -> float:
    """Exact best product fidelity of the planted mixture: w + (1−w)/2^n."""
    return w + (1.0 - w) / 2.0**n


def random_mixed(n: int, rng: np.random.Generator, rank: int | None = None) -> QuantumState:
    """A random density matrix G G*/||G||_F^2 with G a complex Gaussian (dim, rank).

    The state is the factor G/||G||_F; without a rank, G is square (and
    held within DENSE_BUDGET).
    """
    dim = 2**n
    if rank is None:
        check_dense_budget((dim, dim))
        rank = dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return QuantumState.mixed(FactoredDensity(g / np.linalg.norm(g)))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a set of sorted edge pairs."""

    n_vertices: int
    edges: frozenset

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("need at least one vertex")
        norm = set()
        for e in self.edges:
            s, t = int(e[0]), int(e[1])
            if s == t:
                raise ValueError("self-loops are not allowed")
            if not (0 <= s < self.n_vertices and 0 <= t < self.n_vertices):
                raise ValueError("edge endpoint out of range")
            norm.add((min(s, t), max(s, t)))
        object.__setattr__(self, "edges", frozenset(norm))


def clique_number(g: Graph) -> int:
    """Largest clique size, by subset enumeration (desk-scale graphs only)."""
    edges = g.edges
    best = 1 if g.n_vertices >= 1 else 0
    for size in range(2, g.n_vertices + 1):
        for subset in combinations(range(g.n_vertices), size):
            if all((min(a, b), max(a, b)) in edges for a, b in combinations(subset, 2)):
                best = size
    return best


def graphs_up_to_4_vertices() -> list[tuple[str, Graph]]:
    """The 10 non-isomorphic graphs on at most 4 vertices having >= 1 edge."""
    e = lambda *pairs: frozenset(pairs)
    return [
        ("single-edge", Graph(4, e((0, 1)))),
        ("two-disjoint-edges", Graph(4, e((0, 1), (2, 3)))),
        ("path-3", Graph(4, e((0, 1), (1, 2)))),
        ("path-4", Graph(4, e((0, 1), (1, 2), (2, 3)))),
        ("triangle", Graph(4, e((0, 1), (1, 2), (0, 2)))),
        ("star-3", Graph(4, e((0, 1), (0, 2), (0, 3)))),
        ("paw", Graph(4, e((0, 1), (1, 2), (0, 2), (2, 3)))),
        ("cycle-4", Graph(4, e((0, 1), (1, 2), (2, 3), (0, 3)))),
        ("diamond", Graph(4, e((0, 1), (1, 2), (0, 2), (0, 3), (1, 3)))),
        ("complete-4", Graph(4, e((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))),
    ]
