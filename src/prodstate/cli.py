"""Command-line experiment runner: instance generators, learners, reports.

Every run is seeded and emits a JSON report whose non-timing content is a
pure function of the config, so experiments can be diffed byte-for-byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .bruteforce import best_product_fidelity
from .cover import CoverOverrides, CoverParams, build_cover, estimate_opt
from .discrete import DiscreteClass, discrete_learn, member_vector
from .errors import ResourceBudgetError
from .hardness import (
    clique_tensor,
    opt_sandwich_check,
    recover_clique_number,
    spectral_norm_oracle,
    tensor_to_state,
)
from .instances import Graph, clique_number, planted_mixture, planted_opt, random_mixed
from .localopt import high_fidelity_learn
from .mps import mps_learn, mps_to_state, state_to_mps
from .oracle import StateOracle
from .polyopt import DEFAULT_NET_BUDGET, OptDomain, PolySystem, evaluate_poly, solve_constrained
from .serialize import (
    canonical_dumps,
    class_from_json,
    class_to_json,
    cover_to_json,
    digest,
    graph_to_json,
    loads_json,
    mps_to_json,
    params_to_json,
    save_json,
    state_from_json,
    state_to_json,
    tensor_from_json,
    tensor_to_json,
)
from .states import QuantumState, fidelity, haar_product_params, haar_state, vector_fidelity

__all__ = ["ExperimentConfig", "generate", "main", "run"]

logger = logging.getLogger(__name__)

# The flags `gen` registers for each kind, with their defaults: exactly the
# params `generate` reads for that kind (clique's --graph becomes "edges").
_PLANTED_FLAGS = {"n": 3, "w": 1.0, "noise": 0.0}
_GEN_FLAGS = {
    "planted-product": _PLANTED_FLAGS,
    "planted-mps": {**_PLANTED_FLAGS, "rank": 2},
    "planted-discrete": {**_PLANTED_FLAGS, "s": 2},
    "clique": {"graph": None, "vertices": None},
    "random-mixed": {"n": 3, "rank": None},
}
_GEN_TYPES = {"n": int, "w": float, "noise": float, "rank": int, "s": int,
              "graph": str, "vertices": int}


class UsageError(ValueError):
    """Bad command line or config; maps to exit code 1."""


@dataclasses.dataclass
class ExperimentConfig:
    """Validated description of one experiment run."""

    algorithm: str
    instance: str | None = None
    backend: str = "exact"
    noise: float = 0.0
    seed: int = 0
    eta: float = 0.8
    eps: float = 0.1
    delta: float = 0.1
    rank: int = 1
    kappa: int | None = None
    n: int | None = None
    net_budget: int | None = None
    degree_cap: int | None = None
    out: str | None = None

    ALGORITHMS = ("highfid", "cover", "estimate-opt", "discrete", "mps",
                  "polyopt", "hardness")

    def __post_init__(self):
        if self.algorithm not in self.ALGORITHMS:
            raise UsageError(f"unknown algorithm {self.algorithm!r}")
        if self.backend not in ("exact", "sampling"):
            raise UsageError("backend must be 'exact' or 'sampling'")
        if not 0.0 < self.eps < 1.0:
            raise UsageError("eps must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise UsageError("delta must lie in (0, 1)")
        if not 0.0 < self.eta < 1.0:
            raise UsageError("eta must lie in (0, 1)")
        if self.noise < 0.0:
            raise UsageError("noise must be nonnegative")
        if self.rank < 1:
            raise UsageError("rank must be a positive integer")
        if self.kappa is not None and self.kappa < 1:
            raise UsageError("kappa must be a positive integer")
        if self.net_budget is not None and self.net_budget < 1:
            raise UsageError("net_budget must be positive")


def _polyopt_instance(seed: int, n: int):
    """Seeded rank-one benchmark system and a feasible shell domain."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    raw = rng.uniform(0.2, 0.5, size=3)
    c = raw * (0.95 / raw.sum())
    tensors = []
    for k in (1, 2):
        vec = np.ones(1, dtype=complex)
        for _ in range(2 * k):
            vec = np.multiply.outer(vec, u).reshape(-1)
        tensors.append(c[k].astype(complex) * vec.reshape((n,) * (2 * k)))
    sys_ = PolySystem(n, complex(c[0]), tuple(tensors))
    nu = float(rng.uniform(0.6, 1.0))
    mu = float(rng.uniform(1.2, 2.0))
    gamma = float(rng.uniform(0.2, 0.35))
    dom = OptDomain(np.zeros((0, n)), np.zeros(0), nu, mu, gamma)
    return sys_, dom


def _planted_weight(params: dict, min_n: int) -> tuple[int, float]:
    """(n, w) of a planted-* kind, with its depolarizing noise folded into w."""
    n, w = int(params["n"]), float(params["w"])
    noise = float(params.get("noise", 0.0))
    if n < min_n or not 0.0 <= w <= 1.0 or not 0.0 <= noise <= 1.0:
        raise UsageError(f"need n >= {min_n}, weight w in [0, 1], noise in [0, 1]")
    return n, w * (1.0 - noise)  # depolarizing noise shrinks the planted weight


def generate(kind: str, params: dict, seed: int = 0) -> dict:
    """Build a seeded instance payload with its ground truth attached."""
    if kind not in _GEN_FLAGS:
        raise UsageError(f"unknown generator kind {kind!r}")
    rng = np.random.default_rng(seed)
    payload = {"object": "instance", "kind": kind, "seed": seed,
               "params": dict(params)}

    if kind == "planted-product":
        n, w = _planted_weight(params, 1)
        planted = haar_product_params(rng, n)
        payload["state"] = state_to_json(planted_mixture(planted, w))
        payload["ground_truth"] = {"opt": planted_opt(w, n),
                                   "planted": params_to_json(planted)}
    elif kind == "planted-mps":
        n, w = _planted_weight(params, 2)
        rank = int(params["rank"])
        if rank < 1:
            raise UsageError("need rank >= 1")
        train = state_to_mps(QuantumState.pure(haar_state(2**n, rng)), max_bond=rank)
        payload["state"] = state_to_json(planted_mixture(mps_to_state(train).data, w))
        payload["ground_truth"] = {"opt": planted_opt(w, n),
                                   "planted_mps": mps_to_json(train)}
    elif kind == "planted-discrete":
        n, w = _planted_weight(params, 1)
        s = int(params["s"])
        if s < 2:
            raise UsageError("need s >= 2")
        menus = []
        for _ in range(n):
            menu = rng.normal(size=(s, 2)) + 1j * rng.normal(size=(s, 2))
            menus.append([phi / np.linalg.norm(phi) for phi in menu])
        cls = DiscreteClass(menus)
        member = tuple(int(rng.integers(0, s)) for _ in range(n))
        payload["state"] = state_to_json(planted_mixture(member_vector(cls, member), w))
        payload["class"] = class_to_json(cls)
        payload["ground_truth"] = {"opt": planted_opt(w, n),
                                   "member": list(member)}
    elif kind == "clique":
        edges = params["edges"]
        vertices = params.get("vertices")
        if vertices is None:
            vertices = max((max(e) for e in edges), default=-1) + 1
        g = Graph(int(vertices), frozenset(tuple(e) for e in edges))
        t = clique_tensor(g)
        kappa = clique_number(g)
        payload["graph"] = graph_to_json(g)
        payload["tensor"] = tensor_to_json(t)
        try:
            payload["state"] = state_to_json(tensor_to_state(t))
        except ResourceBudgetError:
            pass  # beyond side 5 the clique instance carries only its tensor
        payload["ground_truth"] = {"clique_number": kappa,
                                   "spectral_norm": (kappa - 1) / kappa}
    elif kind == "random-mixed":
        n = int(params["n"])
        rank = params.get("rank")
        rank = None if rank is None else int(rank)
        if n < 1 or (rank is not None and rank < 1):
            raise UsageError("need n >= 1 and rank >= 1")
        state = random_mixed(n, rng, rank=rank)
        payload["state"] = state_to_json(state)
        truth = {}
        if n <= 3:
            fid, _ = best_product_fidelity(state, seed=seed)
            truth["opt_reference"] = fid
        payload["ground_truth"] = truth
    return payload


def _load_instance(config: ExperimentConfig) -> tuple[dict, str]:
    if not config.instance:
        raise UsageError(f"{config.algorithm} needs an instance file")
    raw = Path(config.instance).read_bytes()
    return loads_json(raw), hashlib.sha256(raw).hexdigest()


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment and return (and optionally write) its report."""
    logger.info("running %s (backend=%s, seed=%d)", config.algorithm,
                config.backend, config.seed)
    started = time.time()
    result: dict = {}
    fid = None
    copies = 0
    input_digest = None

    if config.algorithm == "polyopt":
        if config.n is None or config.n < 1:
            raise UsageError("polyopt needs --n >= 1")
        sys_, dom = _polyopt_instance(config.seed, config.n)
        input_digest = digest({"seed": config.seed, "n": config.n})
        budget = config.net_budget if config.net_budget is not None else DEFAULT_NET_BUDGET
        point = solve_constrained(sys_, dom, config.eps, net_budget=budget)
        if point is None:
            result = {"feasible": False, "point": None, "value": None}
        else:
            result = {
                "feasible": True,
                "point": [[float(v.real), float(v.imag)] for v in point],
                "value": float(abs(evaluate_poly(sys_, point))),
                "in_slack_domain": bool(dom.contains(point, factor=2.0)),
            }
    elif config.algorithm == "hardness":
        data, input_digest = _load_instance(config)
        if "tensor" not in data:
            raise UsageError("hardness check needs a clique/tensor instance")
        t = tensor_from_json(data["tensor"])
        nu = spectral_norm_oracle(t, seed=config.seed)
        result = {"spectral_norm": nu}
        if "graph" in data:
            result["clique_number"] = recover_clique_number(min(nu, 1 - 1e-12))
        if "state" in data and t.side <= 2:
            state = state_from_json(data["state"])
            opt_prod, _ = best_product_fidelity(state, restarts=8, seed=config.seed)
            result["sandwich"] = opt_sandwich_check(t, math.sqrt(opt_prod))
    else:
        data, input_digest = _load_instance(config)
        if "state" not in data:
            raise UsageError(f"{config.algorithm} needs an instance with a state")
        state = state_from_json(data["state"])
        o = StateOracle(state, backend=config.backend, seed=config.seed,
                        noise_opnorm=config.noise)
        if config.algorithm == "highfid":
            params = high_fidelity_learn(o, config.eps, config.delta)
            fid = fidelity(state, params)
            result = {"params": params_to_json(params)}
        elif config.algorithm == "cover":
            cover = build_cover(o, CoverParams(config.eta, config.eps, config.delta,
                                               CoverOverrides(degree_cap=config.degree_cap)))
            member_fids = [fidelity(state, p) for p in cover.members]
            fid = max(member_fids, default=None)
            result = {"cover": cover_to_json(cover),
                      "member_fidelities": member_fids}
        elif config.algorithm == "estimate-opt":
            est, witness = estimate_opt(o, config.eps, config.delta,
                                        overrides=CoverOverrides(degree_cap=config.degree_cap))
            if witness is not None:
                fid = fidelity(state, witness)
            result = {"estimate": est,
                      "witness": params_to_json(witness) if witness else None}
        elif config.algorithm == "discrete":
            if "class" not in data:
                raise UsageError("discrete learning needs an instance with a class")
            cls = class_from_json(data["class"])
            members = discrete_learn(o, cls, config.eta, config.eps, config.delta)
            fids = {m: vector_fidelity(state, member_vector(cls, m))
                    for m in members}
            fid = max(fids.values(), default=None)
            result = {"members": [list(m) for m in sorted(members)],
                      "count": len(members)}
        elif config.algorithm == "mps":
            train = mps_learn(o, config.rank, config.eps, config.delta,
                              kappa_override=config.kappa)
            fid = vector_fidelity(state, mps_to_state(train).data)
            result = {"mps": mps_to_json(train),
                      "bond_dims": list(train.bond_dims)}
        copies = o.copies_consumed
        truth = data.get("ground_truth", {})
        if fid is not None and "opt" in truth:
            result["opt"] = truth["opt"]
            result["meets_opt_minus_eps"] = bool(fid >= truth["opt"] - config.eps)

    report = {
        "report_version": 1,
        "algorithm": config.algorithm,
        "config": dataclasses.asdict(config),
        "input_digest": input_digest,
        "seeds": {"run": config.seed},
        "result": result,
        "fidelity": fid,
        "copies_consumed": copies,
        "timing": {"wall_seconds": time.time() - started,
                   "finished_at": time.time()},
    }
    if config.out:
        save_json(config.out, report)
    return report


def _parse_edges(text: str) -> list:
    try:
        edges = json.loads(text)
        return [[int(s), int(t)] for s, t in edges]
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise UsageError(f"--graph must be a JSON edge list: {exc}") from None


class _Parser(argparse.ArgumentParser):
    # No prefix matching: `gen planted-product --s 7` would otherwise set --seed.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


# The flags a learner subcommand may take beyond the instance, --seed and --out.
_RUN_FLAGS = {
    "backend": {"choices": ("exact", "sampling"), "default": "exact"},
    "noise": {"type": float, "default": 0.0},
    "eps": {"type": float, "default": 0.1},
    "delta": {"type": float, "default": 0.1},
    "eta": {"type": float, "default": 0.8},
    "rank": {"type": int, "default": 1},
    "kappa": {"type": int, "default": None},
    "degree_cap": {"type": int, "default": None},
}
_ORACLE_FLAGS = ("backend", "noise", "eps", "delta")


def _add_run(p: argparse.ArgumentParser, *flags: str):
    """Register the instance, --seed, --out and exactly the listed _RUN_FLAGS."""
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--seed", type=int, default=0)
    for name in flags:
        p.add_argument("--" + name.replace("_", "-"), **_RUN_FLAGS[name])
    p.add_argument("--out", default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="prodstate",
                     description="Desk-scale product-state learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded instance file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for kind, flags in _GEN_FLAGS.items():
        p = gen_sub.add_parser(kind)
        for name, default in flags.items():
            p.add_argument("--" + name, type=_GEN_TYPES[name], default=default,
                           required=name == "graph")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)

    _add_run(sub.add_parser("highfid", help="learn a high-fidelity product state"),
             *_ORACLE_FLAGS)

    cover = sub.add_parser("cover", help="cover construction and best-fit estimation")
    cover_sub = cover.add_subparsers(dest="mode", required=True)
    _add_run(cover_sub.add_parser("build"), *_ORACLE_FLAGS, "eta", "degree_cap")
    _add_run(cover_sub.add_parser("estimate-opt"), *_ORACLE_FLAGS, "degree_cap")

    discrete = sub.add_parser("discrete", help="finite-class learning")
    discrete_sub = discrete.add_subparsers(dest="mode", required=True)
    _add_run(discrete_sub.add_parser("learn"), *_ORACLE_FLAGS, "eta")

    mps = sub.add_parser("mps", help="matrix-product-state learning")
    mps_sub = mps.add_subparsers(dest="mode", required=True)
    _add_run(mps_sub.add_parser("learn"), *_ORACLE_FLAGS, "rank", "kappa")

    poly = sub.add_parser("polyopt", help="constrained polynomial optimization")
    poly_sub = poly.add_subparsers(dest="mode", required=True)
    solve = poly_sub.add_parser("solve")
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--eps", type=float, default=0.1)
    solve.add_argument("--net-budget", type=int, default=None)
    solve.add_argument("--out", default=None)

    hardness = sub.add_parser("hardness", help="clique-tensor benchmark family")
    hardness_sub = hardness.add_subparsers(dest="mode", required=True)
    _add_run(hardness_sub.add_parser("check"))
    return parser


def _dispatch(args: argparse.Namespace) -> dict | None:
    if args.command == "gen":
        params = {name: getattr(args, name) for name in _GEN_FLAGS[args.kind]}
        if args.kind == "clique":
            params["edges"] = _parse_edges(params.pop("graph"))
        save_json(args.out, generate(args.kind, params, seed=args.seed))
        return None

    algorithm = args.command
    if args.command == "cover":
        algorithm = "cover" if args.mode == "build" else "estimate-opt"

    # A flag the subcommand does not register keeps its ExperimentConfig default.
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return run(ExperimentConfig(algorithm=algorithm,
                                **{k: v for k, v in vars(args).items() if k in fields}))


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("PRODSTATE_LOG", "WARNING"))
    try:
        args = _build_parser().parse_args(argv)
        report = _dispatch(args)
        if report is not None and not report["config"]["out"]:
            sys.stdout.write(canonical_dumps(report))
        return 0
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # UsageError, validation, IO, promise violations
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
