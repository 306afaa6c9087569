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
arrays stay 2^kappa x 2^kappa; each stack extends the last by one map, and
the oracle keeps the factor behind the last, so the sweep maps the state's
factor once, one map per step.  One final kappa-site tomography gives the top
eigenvector of the last window.  Each map's adjoint is an isometry from
kappa-1 sites to kappa, so it is one site tensor of a staircase train
(Schollwoeck, arXiv:1008.3477, sec. 4): the learner emits the maps' adjoints
as tensors, behind copy tensors on the first kappa-1 sites and ahead of that
eigenvector on the last, and never forms the 2^n amplitude vector.  Its
fidelity tracks the best bond-r state.

Each tomography measures only its kappa-site window behind the zeroed
prefix, so it is charged at dimension 2^kappa, not at the 2^(n-i) sites the
window is cut from: copies grow polynomially in n at a fixed kappa.
`PRODSTATE_LOG=INFO` logs one line per tomography call.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import PromiseViolationError
from .oracle import StateOracle, _check_unit_interval, subnormalized_tomography
from .states import QuantumState, check_dense_budget

__all__ = [
    "MatrixProductState",
    "mps_learn",
    "mps_to_state",
    "state_to_mps",
]

logger = logging.getLogger(__name__)

SCHMIDT_TOL = 1e-12  # `state_to_mps` drops Schmidt coefficients at or below it


class MatrixProductState:
    """Open-boundary tensor train on qubits; tensors[i] has shape (r_{i-1}, 2, r_i).

    The contraction is validated to be a unit-norm state (within 1e-8) using
    transfer matrices, so construction stays cheap even when the dense
    amplitude vector would not fit in memory: each site's transfer step is
    two matrix products, O(chi^3) at bond dimension chi.
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
            left, _, right = t.shape
            x = (transfer @ t.reshape(left, -1)).reshape(-1, right)
            transfer = t.reshape(-1, right).conj().T @ x
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


def state_to_mps(s: QuantumState, max_bond: int | None = None) -> MatrixProductState:
    """Exact tensor train of a pure state via successive factorizations.

    Bond ranks are the Schmidt ranks above SCHMIDT_TOL, optionally capped at
    max_bond (which truncates the smallest Schmidt coefficients).
    """
    if s.kind != "pure":
        raise ValueError("only pure states have a tensor-train form")
    work = s.data.reshape(1, -1)
    tensors = []
    for _ in range(s.n - 1):
        mat = work.reshape(work.shape[0] * 2, -1)
        u, sing, vh = np.linalg.svd(mat, full_matrices=False)
        rank = max(1, int(np.sum(sing > SCHMIDT_TOL)))
        if max_bond is not None:
            rank = min(rank, max_bond)
        tensors.append(u[:, :rank].reshape(-1, 2, rank))
        work = sing[:rank, None] * vh[:rank]
    tensors.append(work.reshape(-1, 2, 1))
    tensors[-1] = tensors[-1] / np.linalg.norm(tensors[-1])
    return MatrixProductState(tensors)


def _spectrum(o: StateOracle, step: int, kappa: int, sigma: np.ndarray,
              tau: float) -> tuple[np.ndarray, int]:
    """(vecs, heavy): sigma's Hermitian-part eigenvectors, ascending, and its count above tau.

    Logs the step's window, its mass mu (the estimate's trace), the heavy
    count and the copies charged so far.
    """
    vals, vecs = np.linalg.eigh((sigma + sigma.conj().T) / 2.0)
    heavy = int(np.sum(vals > tau))
    if logger.isEnabledFor(logging.INFO):
        logger.info("mps step %d: kappa=%d mu=%.6g heavy=%d copies=%d", step, kappa,
                    np.trace(sigma).real, heavy, o.copies_consumed)
    return vecs, heavy


def _top_eigenvector(vecs: np.ndarray) -> np.ndarray:
    """The top (last) of `eigh`'s eigenvectors, its largest-magnitude amplitude made real positive."""
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

    The output is the sweep's staircase: copy tensors
    eye(2^j).reshape(2^(j-1), 2, 2^j) on sites 1..kappa-1, step i's window
    map's adjoint, reshaped (2^(kappa-1), 2, 2^(kappa-1)), on site
    kappa+i-1, and the final window's top eigenvector on site n.  Every
    tensor but the last is left-canonical, and the bond at cut j is
    min(2^j, 2^(kappa-1)), not trimmed to the Schmidt rank.  At kappa = n
    there is no map and that eigenvector is the whole state, which
    `state_to_mps` factors with bonds capped at 2^(n-1).

    Copies: the sum over the n - kappa + 1 tomography calls (one per sweep
    step, then the final one) of `subnormalized_tomography`'s charge at
    window dimension 2^kappa, eps tau = eps^2 / (9 n^2 r^4) and delta / n.
    """
    _check_unit_interval(eps, "eps")
    _check_unit_interval(delta, "delta")
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

    # maps[i-1], step i's window map, is the adjoints of the top `block`
    # eigenvectors, largest first: it takes the leading kappa of the n-i+1
    # live sites to kappa-1, and a stack of them names the measured window.
    maps = np.zeros((n - kappa, block, 2 * block), dtype=complex)
    for i in range(1, n - kappa + 1):
        sigma = subnormalized_tomography(o, maps[: i - 1], i - 1, tau, delta_call)
        vecs, heavy = _spectrum(o, i, kappa, sigma, tau)
        if heavy > block:
            raise PromiseViolationError(
                f"step {i} kept {heavy} eigenvalues above {tau}, beyond the "
                f"{block}-dimensional window; the estimate's trace must have "
                "failed")
        maps[i - 1] = vecs[:, ::-1][:, :block].conj().T

    final = subnormalized_tomography(o, maps, n - kappa, tau, delta_call)
    vecs, _ = _spectrum(o, n - kappa + 1, kappa, final, tau)
    phi = _top_eigenvector(vecs)
    if kappa == n:
        return state_to_mps(QuantumState.pure(phi / np.linalg.norm(phi)), max_bond=block)
    # Sites 1..kappa-1 embed the first window's leading qubits as its bond.
    embeds = [np.eye(2**j, dtype=complex).reshape(2 ** (j - 1), 2, 2**j)
              for j in range(1, kappa)]
    stairs = list(maps.conj().swapaxes(1, 2).reshape(n - kappa, block, 2, block))
    return MatrixProductState(embeds + stairs + [phi.reshape(block, 2, 1)])
