"""Improper learning of low-bond-dimension matrix product states on qubits.

A `MatrixProductState` is a unit-norm tensor train with physical dimension 2
at every site.  The learner sweeps the register once: at each step it
estimates the postselected few-qubit marginal, rotates the heavy eigenspace
onto a zeroed leading qubit with a disentangling unitary, and projects that
qubit away.  The register shrinks by one site per step, and only the
disentangler's first-qubit-|0> rows survive the projection: the kept
eigenvectors' adjoints, a 2^(kappa-1) x 2^kappa window map on the leading
kappa live sites.  The sweep keeps those maps as a stack and hands it to the
oracle, which returns the kappa-site marginal directly, so the sweep's dense
arrays stay 2^kappa x 2^kappa.  One final kappa-site tomography, mapped back
through the maps' adjoints in reverse order, reconstructs a matrix product
state whose fidelity tracks the best bond-r state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PromiseViolationError
from .oracle import StateOracle, subnormalized_tomography
from .states import QuantumState, _apply_chain, check_dense_budget

__all__ = [
    "MatrixProductState",
    "mps_learn",
    "mps_to_state",
    "schmidt_rank",
    "state_to_mps",
]

class MatrixProductState:
    """Open-boundary tensor train on qubits; tensors[i] has shape (r_{i-1}, 2, r_i).

    The contraction is validated to be a unit-norm state (within 1e-8) using
    transfer matrices, so construction stays cheap even when the dense
    amplitude vector would not fit in memory.
    """

    def __init__(self, tensors):
        tensors = [np.asarray(t, dtype=complex) for t in tensors]
        if not tensors:
            raise ValueError("a matrix product state needs at least one site")
        for t in tensors:
            if t.ndim != 3:
                raise ValueError("site tensors must have (left, phys, right) axes")
            if t.shape[1] != 2:
                raise ValueError("site tensors must have physical dimension 2")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for left, right in zip(tensors, tensors[1:]):
            if left.shape[2] != right.shape[0]:
                raise ValueError("neighboring bond dimensions do not match")

        transfer = np.ones((1, 1), dtype=complex)
        for t in tensors:
            # transfer_{b b'} = sum_s (A^s)^dagger transfer A^s
            transfer = np.einsum("asb,ac,csd->bd", t.conj(), transfer, t)
        norm_sq = float(np.real(transfer[0, 0]))
        if abs(norm_sq - 1.0) > 1e-8:
            raise ValueError(f"contraction norm^2 is {norm_sq}, not 1")

        self.tensors = tuple(tensors)

    @property
    def n(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return (1,) + tuple(t.shape[2] for t in self.tensors)

    @property
    def max_bond(self) -> int:
        return max(self.bond_dims)


def mps_to_state(m: MatrixProductState) -> QuantumState:
    """Contract the train into a dense normalized pure state.

    Raises ResourceBudgetError when the amplitude vector's 16 * 2^n bytes
    exceed states.DENSE_BUDGET.
    """
    check_dense_budget((2**m.n,))
    amps = np.ones((1, 1), dtype=complex)
    for t in m.tensors:
        # amps: (prefix_dim, r_left) -> (prefix_dim * 2, r_right)
        amps = np.tensordot(amps, t, axes=([1], [0]))
        amps = amps.reshape(amps.shape[0] * amps.shape[1], amps.shape[2])
    vec = amps[:, 0]
    return QuantumState.pure(vec / np.linalg.norm(vec))


def state_to_mps(s: QuantumState, max_bond: int | None = None,
                 tol: float = 1e-12) -> MatrixProductState:
    """Exact tensor train of a pure state via successive factorizations.

    Bond ranks are the Schmidt ranks above tol, optionally capped at
    max_bond (which truncates the smallest Schmidt coefficients).
    """
    if s.kind != "pure":
        raise ValueError("only pure states have a tensor-train form")
    work = s.data.reshape(1, -1)
    tensors = []
    for _ in range(s.n - 1):
        mat = work.reshape(work.shape[0] * 2, -1)
        u, sing, vh = np.linalg.svd(mat, full_matrices=False)
        rank = max(1, int(np.sum(sing > tol)))
        if max_bond is not None:
            rank = min(rank, max_bond)
        tensors.append(u[:, :rank].reshape(-1, 2, rank))
        work = sing[:rank, None] * vh[:rank]
    tensors.append(work.reshape(-1, 2, 1))
    tensors[-1] = tensors[-1] / np.linalg.norm(tensors[-1])
    return MatrixProductState(tensors)


def schmidt_rank(s: QuantumState, cut: int, tol: float = 1e-10) -> int:
    """Number of Schmidt coefficients above tol across sites [1..cut]|[cut+1..n]."""
    if s.kind != "pure":
        raise ValueError("Schmidt rank is defined for pure states")
    if not 1 <= cut < s.n:
        raise ValueError("cut must split the register into two nonempty parts")
    mat = s.data.reshape(2**cut, -1)
    sing = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sing > tol))


def _top_eigenvector(mat: np.ndarray) -> np.ndarray:
    """Unit top eigenvector with the largest-magnitude amplitude made real positive."""
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    vec = vecs[:, -1]
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    return vec / phase


def mps_learn(o: StateOracle, r: int, eps: float, delta: float,
              kappa_override: int | None = None) -> MatrixProductState:
    """Learn a tensor train competing with the best bond-r state.

    With probability 1 - delta the output's fidelity with the hidden state
    is within eps of the best bond-r matrix product state, and its bond
    dimension never exceeds 2^(kappa-1).  ``kappa_override`` narrows the
    sweep window below the guarantee-level width, which keeps desk-scale
    sweeps multi-step; it is sound whenever every postselected marginal
    concentrates on that many dimensions.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if r < 1:
        raise ValueError("bond dimension parameter must be a positive integer")
    n = o.n

    tau = eps * eps / (9.0 * n * n * r**4)
    if kappa_override is None:
        # The guarantee-level window; at desk scale it usually spans the
        # whole register, collapsing the sweep to one full tomography.
        kappa = min(n, math.ceil(math.log(1.0 / tau, 2)) + 1)
    else:
        kappa = int(kappa_override)
        if not 1 <= kappa <= n:
            raise ValueError("kappa_override must lie in [1, n]")
    block = 2 ** (kappa - 1)
    delta_call = delta / n

    # maps[i-1] is step i's window map, the kept eigenvectors' adjoints: it
    # takes the leading kappa of the register's n-i+1 live sites to kappa-1.
    maps = np.zeros((n - kappa, block, 2 * block), dtype=complex)
    for i in range(1, n - kappa + 1):
        sigma = subnormalized_tomography(o, maps[: i - 1], i - 1, tau, delta_call, keep=kappa)
        vals, vecs = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
        order = np.argsort(vals)[::-1]
        heavy = int(np.sum(vals > tau))
        if heavy > block:
            raise PromiseViolationError(
                f"step {i} kept {heavy} eigenvalues above {tau}, beyond the "
                f"{block}-dimensional window; the estimate's trace must have "
                "failed")
        maps[i - 1] = vecs[:, order[:block]].conj().T

    final = subnormalized_tomography(o, maps, n - kappa, tau, delta_call)
    vec = _apply_chain([m.conj().T for m in maps[::-1]], _top_eigenvector(final))
    return state_to_mps(QuantumState.pure(vec / np.linalg.norm(vec)), max_bond=block)
