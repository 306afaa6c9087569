"""Shared pytest hooks (acceptance-criteria summary lines) and dense test references."""

import numpy as np

from prodstate.discrete import member_vector
from prodstate.oracle import _compressed_z_register, _shadow_row_chunks, _z_columns
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
    sigma = _compressed_z_register(o._rho, _z_columns(o, basis))
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
