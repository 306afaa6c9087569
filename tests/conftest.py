"""Shared pytest hooks (acceptance-criteria summary lines), dense test references and the
reference JSON pair codec."""

import numpy as np

from prodstate.discrete import member_vector
from prodstate.oracle import _compressed_z_register, _operator, _shadow_row_chunks, _z_columns
from prodstate.polyopt import (
    _certainly_empty,
    _orthonormal_columns,
    effective_subspace,
    evaluate_poly_batch,
    support_nets,
)
from prodstate.states import QuantumState, partial_trace, product_unitary


def apply_product_unitary(state, unitaries):
    """The state rotated by the dense Kronecker product of `unitaries`."""
    full = product_unitary(unitaries)
    if state.kind == "pure":
        return QuantumState.pure(full @ state.data, state.local_dim, state.normalized)
    return QuantumState.mixed(full @ state.data @ full.conj().T, state.local_dim,
                              state.normalized)


def exact_z(state, basis=None):
    """Ground-truth amplitude vector z_i = <e_i| U rho U* |0^n>, from the dense U."""
    n = state.n
    rho = state.density()
    if basis is None:
        col = rho[:, 0]
    else:
        u = product_unitary(list(basis))
        col = u @ (rho @ u[0, :].conj())
    return np.array([col[1 << (n - 1 - i)] for i in range(n)])


def exact_prefix_fidelity(rho, cls, member):
    """Exact fidelity of a prefix member against the matching marginal."""
    m = len(member)
    vec = member_vector(cls, member)
    reduced = partial_trace(rho.density(), rho.n, range(m), rho.local_dim)
    return float(np.real(np.vdot(vec, reduced @ vec)))


def reference_spectral_norm(t, restarts, seed):
    """The spectral-norm oracle with one restart at a time and einsum half-steps."""
    rng = np.random.default_rng(seed)
    entries = t.entries
    best = 0.0
    for _ in range(restarts):
        vecs = rng.normal(size=(4, t.side)) + 1j * rng.normal(size=(4, t.side))
        x, y, u, v = (w / np.linalg.norm(w) for w in vecs)
        value = 0.0
        for _ in range(200):
            front = np.einsum("ijkl,k,l->ij", entries, np.conj(u), np.conj(v))
            left, sing, right = np.linalg.svd(front)
            x, y = left[:, 0], right[0]
            back = np.einsum("ijkl,i,j->kl", entries, np.conj(x), np.conj(y))
            left, sing, right = np.linalg.svd(back)
            u, v = left[:, 0], right[0]
            if sing[0] - value <= 1e-12 * max(1.0, value):
                value = float(sing[0])
                break
            value = float(sing[0])
        best = max(best, value)
    return best


def ambient_solve_constrained(sys, dom, eps, net_budget):
    """`solve_constrained` with the objective evaluated on the ambient points."""
    if _certainly_empty(dom, 2.0):
        return None
    wide = _orthonormal_columns(
        np.concatenate([effective_subspace(sys, eps), dom.a.conj().T], axis=1))
    max_support = min(sys.n, int(1.0 / dom.mu**2) + 1)
    radius = dom.nu + 2.0 * dom.gamma
    ceiling = abs(sys.constant) + sum(
        float(np.linalg.norm(t)) * (1.0 + 2.0 * dom.gamma) ** (2 * k)
        for k, t in enumerate(sys.tensors, start=1))
    best_val, best_x = -1.0, None
    for _, _, chunks in support_nets(wide, max_support, radius, dom.gamma, net_budget):
        for points in chunks:
            mask = dom.membership_mask(points, factor=2.0)
            if not mask.any():
                continue
            feasible = points[mask]
            vals = np.abs(evaluate_poly_batch(sys, feasible))
            top = int(np.argmax(vals))
            if vals[top] > best_val:
                best_val, best_x = float(vals[top]), feasible[top]
        if best_val >= ceiling - eps:
            break
    return best_x


def reference_pairs(values):
    """The list-comprehension [re, im] pair encoder the vectorized codec must match."""
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def reference_unpairs(pairs, shape):
    """The element-by-element pair decoder the vectorized codec must match."""
    arr = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    return arr.reshape(shape)


def raw_z_shadows(o, basis, shots):
    """Single-shot amplitude-vector estimates before any averaging.

    Returns a (shots, n) array whose rows are unbiased one-copy estimates of
    the amplitude vector z in the rotated frame.  Sampling backend only;
    charges `shots` copies.
    """
    if o.backend != "sampling":
        raise ValueError("raw shadows exist only on the sampling backend")
    n = o.n
    o._check_shots(shots)
    sigma = _compressed_z_register(_operator(o.hidden), _z_columns(o, basis))
    rows = np.concatenate(list(_shadow_row_chunks(o._rng, sigma, shots)))
    o._charge(shots)
    return (sigma.shape[0] + 1) * rows[:, 1: n + 1] * rows[:, [0]].conj()

CRITERIA = {
    1: "geometry",
    2: "tail-bounds",
    3: "high-fidelity-learner",
    4: "cover-soundness",
    5: "opt-estimation",
    6: "polyopt-oracle-equivalence",
    7: "discrete-learner",
    8: "mps-learner",
    9: "hardness-benchmark",
    10: "reproducibility",
}


def pytest_terminal_summary(terminalreporter):
    """Print one PASS/FAIL line per acceptance criterion that ran."""
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            tag = nodeid.split("test_criterion_")[1]
            number = int(tag.split("_")[0])
            ok = status == "passed"
            outcomes[number] = outcomes.get(number, True) and ok
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(outcomes):
        name = CRITERIA.get(number, "unknown")
        verdict = "PASS" if outcomes[number] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number} {name}: {verdict}")
