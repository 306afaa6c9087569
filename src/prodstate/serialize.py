"""JSON codecs for every object the toolkit reads or writes.

Every payload carries an "object" tag and the top-level file a
format_version.  In format 2 every array whose size grows with the register
(a state's amplitudes or factor, MPS tensors, a 4-tensor's entries) is a
binary block: {"dtype": "complex128-le", "shape": [...], "base64": ...},
the array's little-endian complex128 bytes in C order, so save/load is
exact and costs no Python object per entry.  Small results (product
parameters, class menus, report points) stay readable [re, im] pairs, whose
floats go through Python's shortest-round-trip repr.  A format-1 file
(everything as pairs) is refused with a message that says to regenerate it.

A state is a normalized qubit register.  A pure state stores its 2^n
amplitudes as the block "data"; a mixed state, always rho = W W* + c I,
stores W as the block "factor" (shape [2^n, r]) and "shift": c.  A block
whose shape disagrees with n is refused.  A mixed state file in the legacy
dense form, its density matrix under "data", is refused with a ValueError
that names the factor form.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .cover import Cover
from .discrete import DiscreteClass
from .hardness import Tensor4
from .instances import Graph
from .mps import MatrixProductState
from .states import FactoredDensity, ProductParams, QuantumState, check_dense_budget

__all__ = [
    "FORMAT_VERSION",
    "canonical_dumps",
    "digest",
    "load_json",
    "loads_json",
    "save_json",
]

FORMAT_VERSION = 2
BLOCK_DTYPE = "complex128-le"


def _pairs(values: np.ndarray) -> list:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return np.stack([flat.real, flat.imag], -1).tolist()


def _unpairs(pairs, shape) -> np.ndarray:
    return np.asarray(pairs, dtype=float).reshape(-1, 2).view(complex).reshape(shape)


def _block(a: np.ndarray) -> dict:
    """A complex array as a binary block: its C-order little-endian complex128 bytes in base64."""
    a = np.ascontiguousarray(a, dtype="<c16")
    return {"dtype": BLOCK_DTYPE, "shape": list(a.shape),
            "base64": base64.b64encode(memoryview(a)).decode("ascii")}


def _unblock(obj: dict, tag: str) -> np.ndarray:
    """The read-only array of a `_block` object; ValueError naming `tag` if it is malformed."""
    shape = obj["shape"]
    if not (isinstance(shape, list) and all(type(k) is int and k >= 0 for k in shape)):
        raise ValueError(f"{tag} block: shape {shape!r} is not a list of sizes")
    check_dense_budget(tuple(shape))
    if obj["dtype"] != BLOCK_DTYPE:
        raise ValueError(f"{tag} block: dtype {obj['dtype']!r}, want {BLOCK_DTYPE!r}")
    try:
        raw = base64.b64decode(obj["base64"], validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"{tag} block: invalid base64") from None
    if len(raw) != 16 * math.prod(shape):
        raise ValueError(f"{tag} block: {len(raw)} bytes for shape {shape}, "
                         f"want {16 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<c16").reshape(shape)


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
    d = {"object": "state", "n": s.n, "kind": s.kind, "basis": "site1-most-significant"}
    if isinstance(s.data, FactoredDensity):
        d["factor"] = _block(s.data.factor)
        d["shift"] = s.data.shift
    else:
        d["data"] = _block(s.data)
    return d


def _state_block(d: dict, key: str, ndim: int) -> np.ndarray:
    """The state's `key` block, whose first axis must have 2^n entries."""
    shape = d[key]["shape"]
    if not isinstance(shape, list) or len(shape) != ndim or shape[0] != 2 ** d["n"]:
        raise ValueError(f"state {key} block: shape {shape!r} disagrees with n = {d['n']!r}")
    return _unblock(d[key], f"state {key}")


@_reader("state")
def state_from_json(d: dict) -> QuantumState:
    if "factor" in d:
        data = FactoredDensity(_state_block(d, "factor", 2), d["shift"])
    elif d["kind"] == "mixed":
        raise ValueError("a mixed state file stores rho in factor form: \"factor\" "
                         "(W of rho = W W* + c I) and \"shift\" (c); the legacy dense "
                         "form is refused")
    else:
        data = _state_block(d, "data", 1)
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
    return {"object": "mps", "n": m.n, "tensors": [_block(t) for t in m.tensors]}


def tensor_to_json(t: Tensor4) -> dict:
    return {"object": "tensor4", "side": t.side, "data": _block(t.entries)}


@_reader("tensor4")
def tensor_from_json(d: dict) -> Tensor4:
    if d["data"]["shape"] != [d["side"]] * 4:
        raise ValueError(f"tensor4 block: shape {d['data']['shape']!r} disagrees with "
                         f"side {d['side']!r}")
    return Tensor4(_unblock(d["data"], "tensor4"))


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
    return loads_json(Path(path).read_bytes())


def loads_json(raw: bytes) -> dict:
    """A file's payload from its bytes; ValueError unless its format_version is FORMAT_VERSION."""
    d = json.loads(raw)
    version = d.get("format_version")
    if version == 1:
        raise ValueError("format_version 1 files (complex arrays as [re, im] pairs) are no "
                         "longer read; regenerate the file with `prodstate gen`")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    return d
