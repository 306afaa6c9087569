"""Finite product-state class: census oracle and sweep learner."""

import math

import numpy as np
import pytest

from prodstate import oracle
from prodstate.cli import generate
from prodstate.discrete import (
    DiscreteClass,
    class_fidelity_census,
    discrete_learn,
    member_vector,
)
from prodstate.errors import PromiseViolationError, ResourceBudgetError
from prodstate.instances import planted_mixture, random_mixed
from prodstate.oracle import StateOracle
from prodstate.serialize import class_from_json, state_from_json
from prodstate.states import QuantumState, _check_rotations, product_vectors

from conftest import (
    diagonal_state,
    exact_prefix_fidelity,
    maximally_mixed,
    mixture,
    reference_discrete_learn,
    reference_member_vector,
)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / math.sqrt(2)
MINUS = np.array([1.0, -1.0]) / math.sqrt(2)
PLUS_I = np.array([1.0, 1.0j]) / math.sqrt(2)
MINUS_I = np.array([1.0, -1.0j]) / math.sqrt(2)
AXES = (KET0, KET1, PLUS, MINUS, PLUS_I, MINUS_I)


def axes_class(n):
    return DiscreteClass([AXES] * n)


def random_class(rng, n, s, d=2):
    menus = []
    for _ in range(n):
        menu = []
        for _ in range(s):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            menu.append(v / np.linalg.norm(v))
        menus.append(menu)
    return DiscreteClass(menus)


def basis_state(n, index=0):
    vec = np.zeros(2**n)
    vec[index] = 1.0
    return QuantumState.pure(vec)


# --- class validation -----------------------------------------------------------


def test_class_validation():
    with pytest.raises(ValueError):
        DiscreteClass([[KET0, 2 * KET1]])  # not unit norm
    with pytest.raises(ValueError):
        DiscreteClass([[KET0], [np.ones(3) / math.sqrt(3)]])  # dim mismatch
    with pytest.raises(ValueError):
        DiscreteClass([[]])  # empty menu
    with pytest.raises(ValueError):
        DiscreteClass([[KET0, PLUS]], gamma=0.3)  # bound below actual overlap
    with pytest.raises(ValueError):
        DiscreteClass([[KET0, KET1]])  # orthogonal menu needs explicit gamma
    with pytest.raises(ValueError):
        DiscreteClass([[KET0, KET0]])  # duplicates force gamma = 1
    with pytest.raises(ValueError, match="qubit"):  # overlapping qutrit menus
        random_class(np.random.default_rng(5), 2, 2, d=3)


def test_class_summary_fields():
    cls = axes_class(2)
    assert cls.n == 2 and cls.s == 6 and cls.size == 36
    assert cls.gamma == pytest.approx(0.5)
    assert not cls.gamma_below_stated_range
    tight = DiscreteClass([[KET0, KET1]], gamma=0.2)
    assert tight.gamma_below_stated_range


def test_member_vector_ordering():
    cls = DiscreteClass([[KET0, KET1], [PLUS, KET0]], gamma=0.5)
    vec = member_vector(cls, (1, 0))
    # Site 0 is the most significant index, so |1>|+> lives in entries 2, 3.
    assert vec == pytest.approx(np.array([0, 0, 1, 1]) / math.sqrt(2))
    with pytest.raises(ValueError):
        member_vector(cls, ())
    with pytest.raises(ValueError):
        member_vector(cls, (0, 0, 0))


def test_member_vector_matches_kron_reference():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        cls = random_class(rng, n, 3)
        for _ in range(3):
            member = tuple(int(i) for i in rng.integers(0, 3, size=n))
            for k in range(1, n + 1):
                want = reference_member_vector(cls, member[:k])
                assert np.array_equal(member_vector(cls, member[:k]), want)


# --- census ---------------------------------------------------------------------


def test_census_axes_example():
    rho = basis_state(2)
    hits = class_fidelity_census(rho, axes_class(2), 0.9)
    assert hits == {(0, 0)}


def test_census_threshold_extremes():
    rho = basis_state(2)
    cls = axes_class(2)
    assert len(class_fidelity_census(rho, cls, 0.0)) == 36
    assert class_fidelity_census(rho, cls, 1.0 + 1e-9) == set()


def test_census_budget_guard():
    # 2^18 = 262,144 members, above CENSUS_BUDGET.
    cls = DiscreteClass([[KET0, PLUS]] * 18)
    with pytest.raises(ResourceBudgetError):
        class_fidelity_census(basis_state(18), cls, 0.5)


# --- learner --------------------------------------------------------------------


def test_learn_planted_in_class():
    rng = np.random.default_rng(11)
    cls = random_class(rng, 3, 3)
    plant = (0, 1, 2)
    rho = QuantumState.pure(member_vector(cls, plant))
    o = StateOracle(rho, seed=1)
    out = discrete_learn(o, cls, 0.9, 0.1, 0.05)
    assert plant in out
    assert out <= class_fidelity_census(rho, cls, 0.8)


def test_learn_plus_state_rejects_basis_class():
    n = 3
    cls = DiscreteClass([[KET0, KET1]] * n, gamma=0.5)
    plus = np.ones(2**n) / math.sqrt(2**n)
    o = StateOracle(QuantumState.pure(plus), seed=2)
    assert discrete_learn(o, cls, 0.6, 0.05, 0.05) == set()


def test_learn_maximally_mixed_empty():
    o = StateOracle(maximally_mixed(2), seed=3)
    assert discrete_learn(o, axes_class(2), 0.5, 0.25, 0.05) == set()


def test_learn_validation():
    o = StateOracle(basis_state(2), seed=4)
    cls = axes_class(2)
    with pytest.raises(ValueError):
        discrete_learn(o, cls, 0.5, 0.3, 0.05)  # eps > eta/2
    with pytest.raises(ValueError):
        discrete_learn(o, cls, 1.5, 0.1, 0.05)
    with pytest.raises(ValueError):
        discrete_learn(o, cls, 0.5, 0.2, 0.0)
    with pytest.raises(ValueError):
        discrete_learn(o, axes_class(3), 0.5, 0.2, 0.05)  # size mismatch


def test_learn_sampling_backend_planted(monkeypatch):
    monkeypatch.setattr(oracle, "SHOT_BUDGET", 10**7)
    cls = DiscreteClass([AXES[:4]] * 2)
    rho = basis_state(2)
    o = StateOracle(rho, backend="sampling", seed=6)
    out = discrete_learn(o, cls, 0.8, 0.4, 0.2)
    assert (0, 0) in out
    assert out <= class_fidelity_census(rho, cls, 0.4)


def test_learn_menus_at_the_norm_edge_on_a_shifted_state():
    # A class accepts menu vectors up to 1e-9 off unit norm, so a member of
    # 8 such sites is about 1.6e-8 off, beyond the rotation check's 1e-9:
    # the overlaps take c prod ||s_i||^2 as given instead, and the class
    # learns on a shifted state on both backends.
    rng = np.random.default_rng(83)
    n, plant = 8, (1, 0, 1, 1, 0, 0, 1, 0)
    unit = random_class(rng, n, 2)
    cls = DiscreteClass([[v * (1.0 + 0.99e-9) for v in menu] for menu in unit.site_states])
    rho = planted_mixture(member_vector(unit, plant), 0.9)
    assert rho.data.shift > 0.0
    sites = np.stack([cls.site_states[site][idx] for site, idx in enumerate(plant)])
    with pytest.raises(ValueError, match="orthonormal"):
        _check_rotations(rho.data, [product_vectors(sites[None])])
    for backend in ("exact", "sampling"):
        out = discrete_learn(StateOracle(rho, backend=backend, seed=7), cls, 0.8, 0.1, 0.1)
        assert plant in out
        assert class_fidelity_census(rho, cls, 0.8) <= out <= class_fidelity_census(rho, cls, 0.7)


# --- containment and size-bound audits --------------------------------------------


def test_containment_against_census():
    rng = np.random.default_rng(21)
    for trial in range(8):
        n = int(rng.integers(2, 4))
        s = int(rng.integers(2, 5))
        cls = random_class(rng, n, s)
        anchor = member_vector(
            cls, tuple(int(rng.integers(len(m))) for m in cls.site_states))
        noise = random_mixed(n, rng)
        weight = float(rng.uniform(0.3, 0.9))
        rho = mixture(weight, anchor, noise)
        eta = float(rng.uniform(0.35, 0.7))
        eps = eta / 3.0
        o = StateOracle(rho, seed=100 + trial)
        out = discrete_learn(o, cls, eta, eps, 0.05)
        assert class_fidelity_census(rho, cls, eta) <= out
        assert out <= class_fidelity_census(rho, cls, eta - eps)


def test_census_size_bound():
    # The count of class members above eta obeys the packing bound; the
    # closed form holds in the stated overlap range, the ball-count form
    # always.
    rng = np.random.default_rng(31)
    nontrivial = 0
    for trial in range(12):
        n = int(rng.integers(2, 4))
        s = int(rng.integers(2, 5))
        cls = random_class(rng, n, s)
        anchor = member_vector(
            cls, tuple(int(rng.integers(len(m))) for m in cls.site_states))
        rho = mixture(0.6, anchor, random_mixed(n, rng))
        for eta in (0.3, 0.5, 0.8):
            count = len(class_fidelity_census(rho, cls, eta))
            nontrivial += count > 0
            ratio = math.log(2.0 / eta) / math.log(1.0 / cls.gamma)
            if cls.gamma >= 1.0 / math.e:
                assert count <= (10 * n * s) ** ratio
            assert count <= (4.0 / eta) * (n * s) ** math.floor(ratio)
    assert nontrivial >= 8


def test_prefix_fidelity_monotone():
    rng = np.random.default_rng(41)
    for trial in range(5):
        n = 3
        cls = random_class(rng, n, 3)
        rho = random_mixed(n, rng)
        for first in range(3):
            for second in range(3):
                for third in range(3):
                    member = (first, second, third)
                    fids = [exact_prefix_fidelity(rho, cls, member[:m])
                            for m in range(1, n + 1)]
                    assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))


def test_survivor_guard_trips_outside_stated_range(caplog):
    # Declaring a far-too-small overlap bound shrinks the survivor guard
    # below what a flat eight-way mixture legitimately produces; the run is
    # flagged and the guard reports the failure instead of looping on.
    cls = DiscreteClass([[KET0, KET1]] * 4, gamma=1e-12)
    o = StateOracle(diagonal_state([0.125] * 8 + [0.0] * 8), seed=7)
    with caplog.at_level("WARNING"):
        with pytest.raises(PromiseViolationError):
            discrete_learn(o, cls, 0.16, 0.08, 0.05)
    assert "overlap bound" in caplog.text


# --- one estimate per prefix level against the per-member reference -------------


def run_learner(learn, rho, cls, backend, noise, seed, *args):
    """(output or raised error type, copies, RNG state) of one learner run."""
    o = StateOracle(rho, backend=backend, seed=seed, noise_opnorm=noise)
    try:
        out = learn(o, cls, *args)
    except PromiseViolationError as err:
        out = type(err)
    return out, o.copies_consumed, o._rng.bit_generator.state


@pytest.mark.parametrize("backend, noise", [("exact", 0.0), ("exact", 0.02), ("sampling", 0.0)])
def test_learn_matches_the_per_member_reference(backend, noise):
    # One estimate_fidelity call per prefix level charges and draws exactly
    # what one call per candidate did: the same set, copies and RNG state.
    survived = 0
    for n in range(2, 9):
        for s in (2, 3):
            for w in (1.0, 0.9):
                payload = generate("planted-discrete", {"n": n, "s": s, "w": w}, seed=10 * n + s)
                rho = state_from_json(payload["state"])
                cls = class_from_json(payload["class"])
                for eta, eps in ((0.8, 0.1), (0.4, 0.2)):
                    got, want = (run_learner(learn, rho, cls, backend, noise, n, eta, eps, 0.1)
                                 for learn in (discrete_learn, reference_discrete_learn))
                    assert got == want, (n, s, w, eta)
                    survived += len(got[0])
    assert survived > 0


def test_learn_empty_and_raising_levels_against_the_reference():
    # No survivor: both stop calling at the first empty level.
    n = 3
    cls = DiscreteClass([[KET0, KET1]] * n, gamma=0.5)
    plus = QuantumState.pure(np.ones(2**n) / math.sqrt(2**n))
    got, want = (run_learner(learn, plus, cls, "exact", 0.0, 2, 0.6, 0.05, 0.05)
                 for learn in (discrete_learn, reference_discrete_learn))
    assert got == want and got[0] == set()
    # The guard trips at the same level; the batch has charged that whole
    # level, the reference only the candidates up to the one that tripped.
    cls = DiscreteClass([[KET0, KET1]] * 4, gamma=1e-12)
    rho = diagonal_state([0.125] * 8 + [0.0] * 8)
    got, want = (run_learner(learn, rho, cls, "exact", 0.0, 7, 0.16, 0.08, 0.05)
                 for learn in (discrete_learn, reference_discrete_learn))
    assert got[0] is want[0] is PromiseViolationError
    assert got[1] > want[1]
