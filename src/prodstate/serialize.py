"""JSON codecs for every object the toolkit reads or writes.

All files are JSON with complex numbers stored as [re, im] pairs; floats go
through Python's shortest-round-trip repr, so save/load is exact.  Every
payload carries an "object" tag and the top-level file a format_version,
which keeps the formats auditable at desk scale.

A state is a normalized qubit register: its file carries "local_dim": 2 and
"normalized": true, and reading refuses any other value.  It stores its
amplitudes ("data", kind "pure") or its density matrix
("data", kind "mixed") as flat pairs, except a factored mixed state
rho = W W* + c I, which stores "factor": {"shape": [dim, r], "data": pairs
of W} and "shift": c in place of the 4^n pairs of rho.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from .cover import Cover
from .discrete import DiscreteClass
from .hardness import Tensor4
from .instances import Graph
from .mps import MatrixProductState
from .states import FactoredDensity, ProductParams, QuantumState

__all__ = [
    "FORMAT_VERSION",
    "canonical_dumps",
    "digest",
    "load_json",
    "save_json",
]

FORMAT_VERSION = 1


def _pairs(values: np.ndarray) -> list:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return np.stack([flat.real, flat.imag], -1).tolist()


def _unpairs(pairs, shape) -> np.ndarray:
    return np.asarray(pairs, dtype=float).reshape(-1, 2).view(complex).reshape(shape)


def _reader(tag: str):
    """Decorate a reader so a missing key raises a ValueError naming the object."""
    def decorate(read):
        @functools.wraps(read)
        def wrapper(d: dict):
            try:
                return read(d)
            except KeyError as exc:
                raise ValueError(f"malformed {tag} object: missing key {exc.args[0]!r}") from None
        return wrapper
    return decorate


def state_to_json(s: QuantumState) -> dict:
    d = {
        "object": "state",
        "n": s.n,
        "local_dim": 2,
        "kind": s.kind,
        "normalized": True,
        "basis": "site1-most-significant",
    }
    if isinstance(s.data, FactoredDensity):
        d["factor"] = {"shape": list(s.data.factor.shape), "data": _pairs(s.data.factor)}
        d["shift"] = s.data.shift
    else:
        d["data"] = _pairs(s.data)
    return d


@_reader("state")
def state_from_json(d: dict) -> QuantumState:
    if d["local_dim"] != 2:
        raise ValueError(f"states are qubit registers; got local_dim {d['local_dim']!r}")
    if d.get("normalized", True) is not True:
        raise ValueError("states must be normalized; got normalized "
                         f"{d['normalized']!r}")
    dim = 2 ** d["n"]
    if "factor" in d:
        data = FactoredDensity(_unpairs(d["factor"]["data"], tuple(d["factor"]["shape"])),
                               d["shift"])
    else:
        data = _unpairs(d["data"], (dim,) if d["kind"] == "pure" else (dim, dim))
    return QuantumState(n=d["n"], kind=d["kind"], data=data)


def params_to_json(p: ProductParams) -> dict:
    return {"object": "product-params", "z": _pairs(np.array(p.z))}


@_reader("product-params")
def params_from_json(d: dict) -> ProductParams:
    return ProductParams(tuple(complex(re, im) for re, im in d["z"]))


def cover_to_json(c: Cover) -> dict:
    return {
        "object": "cover",
        "m": c.m,
        "eta": c.params.eta,
        "eps": c.params.eps,
        "delta": c.params.delta,
        "overrides": dataclasses.asdict(c.params.overrides),
        "members": [params_to_json(p) for p in c.members],
    }


def mps_to_json(m: MatrixProductState) -> dict:
    return {
        "object": "mps",
        "n": m.n,
        "local_dim": 2,
        "tensors": [{"shape": list(t.shape), "data": _pairs(t)}
                    for t in m.tensors],
    }


@_reader("mps")
def mps_from_json(d: dict) -> MatrixProductState:
    return MatrixProductState(
        [_unpairs(t["data"], tuple(t["shape"])) for t in d["tensors"]])


def tensor_to_json(t: Tensor4) -> dict:
    return {"object": "tensor4", "side": t.side, "data": _pairs(t.entries)}


@_reader("tensor4")
def tensor_from_json(d: dict) -> Tensor4:
    side = d["side"]
    return Tensor4(_unpairs(d["data"], (side,) * 4))


def class_to_json(c: DiscreteClass) -> dict:
    return {
        "object": "discrete-class",
        "gamma": c.gamma,
        "site_states": [[_pairs(phi) for phi in menu] for menu in c.site_states],
    }


@_reader("discrete-class")
def class_from_json(d: dict) -> DiscreteClass:
    menus = [[_unpairs(phi, (len(phi),)) for phi in menu]
             for menu in d["site_states"]]
    return DiscreteClass(menus, gamma=d["gamma"])


def graph_to_json(g: Graph) -> dict:
    return {
        "object": "graph",
        "n_vertices": g.n_vertices,
        "edges": sorted([int(s), int(t)] for s, t in g.edges),
    }


@_reader("graph")
def graph_from_json(d: dict) -> Graph:
    return Graph(d["n_vertices"], frozenset(tuple(e) for e in d["edges"]))


def canonical_dumps(payload) -> str:
    """Deterministic JSON text: sorted keys, stable float repr."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def digest(payload) -> str:
    """sha256 of the canonical JSON text of a payload."""
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


def save_json(path, payload) -> None:
    text = canonical_dumps({"format_version": FORMAT_VERSION, **payload})
    Path(path).write_text(text)


def load_json(path) -> dict:
    d = json.loads(Path(path).read_text())
    version = d.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    return d
