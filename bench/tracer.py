"""Span tracer that wraps the public functions of every prodstate module.

Installing the tracer replaces each public function with a wrapper in every
prodstate module that binds its name (``estimate_z`` in ``oracle`` and
``localopt``, ``partial_trace`` in ``oracle``, ``localopt``, ``mps`` and
``discrete``, ...), so recursive and cross-module calls nest as spans.  Two
class hooks are wrapped in place: ``QuantumState.__post_init__`` (state
validation) and ``StateOracle.__init__``.  Spans stay in memory as
(id, name, start, end, parent id, task id) and are written out when the run
ends.  Self time is a span's duration minus the time its child spans cover.

The program has no queues, locks or threads, so no layer has a time-waited
metric; the layers report work done, busy time and errors only.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import statistics
import time

import prodstate

MODULES = ("states", "oracle", "localopt", "cover", "polyopt", "discrete", "mps",
           "hardness", "instances", "bruteforce", "serialize", "cli")

# Measurement primitives: each charges copies to the oracle it is handed.
# Their copy sum over a pass equals the copies_consumed of its tasks, since
# high_fidelity_learn only re-charges its child oracles' totals.
ORACLE_PRIMITIVES = ("estimate_z", "subspace_tomography", "subnormalized_tomography",
                     "estimate_fidelity")
# The primitives that draw classical shadows on the sampling backend.
SHADOW_PRIMITIVES = ORACLE_PRIMITIVES[:3]
COPY_PRIMITIVES = tuple(f"oracle.{p}" for p in ORACLE_PRIMITIVES) + (
    "localopt.single_site_estimate",)

_CLASS_HOOKS = (("states", "QuantumState", "__post_init__"),
                ("oracle", "StateOracle", "__init__"))


# Metrics that read one field of one traced function's statistics.
_FIELD_METRICS = (
    "states.product_unitary.calls", "states.product_unitary.self_s",
    "states.product_unitary.bytes", "states.partial_trace.calls",
    "states.partial_trace.self_s", "states.QuantumState.self_s",
    *(f"oracle.{p}.{field}" for p in ORACLE_PRIMITIVES for field in ("calls", "self_s", "copies")),
    "localopt.high_fidelity_learn.calls", "localopt.single_site_estimate.copies",
    "localopt.local_optimize.calls", "localopt.local_optimize.self_s",
    "cover.build_cover.calls", "cover.extend_candidate.calls",
    "cover.extend_candidate.self_s", "cover.build_cover.members",
    "polyopt.solve_constrained.calls", "polyopt.solve_constrained.self_s",
    "polyopt.evaluate_poly_batch.points", "polyopt.effective_subspace.self_s",
    "discrete.discrete_learn.self_s", "mps.mps_learn.self_s",
    "mps.disentangling_unitary.calls", "mps.disentangling_unitary.self_s",
    "mps.state_to_mps.self_s", "hardness.spectral_norm_oracle.calls",
    "hardness.spectral_norm_oracle.self_s", "hardness.random_isometry_embed.self_s",
)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


class Stat:
    """Counters of one traced function over one pass."""

    __slots__ = ("calls", "self_s", "errors", "copies", "sampling_s", "sampling_copies",
                 "bytes", "points", "yields", "members")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class Tracer:
    """Collects spans and per-function statistics while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, Stat] = collections.defaultdict(Stat)
        self.edges: collections.Counter = collections.Counter()
        self.task_id: int | None = None
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._patches: list[tuple] = []
        self._next_id = 0

    # --- installation --------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"prodstate.{name}") for name in MODULES}
        binders = list(mods.values()) + [prodstate]
        for layer, mod in mods.items():
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if (attr.startswith("_") or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for binder in binders:
                    for bound_name, value in list(vars(binder).items()):
                        if value is fn:
                            self._patch(binder, bound_name, wrapped)
        for layer, cls_name, method in _CLASS_HOOKS:
            cls = getattr(mods[layer], cls_name)
            self._patch(cls, method, self._wrap(f"{layer}.{cls_name}", cls.__dict__[method],
                                                method=True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, method: bool = False):
        signature = inspect.signature(fn)
        oracle_cls = prodstate.oracle.StateOracle

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            o = args[0] if not method and args and isinstance(args[0], oracle_cls) else None
            copies_before = o.copies_consumed if o is not None else 0
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [sid, name, 0.0]
            self._stack.append(frame)
            stat = self.stats[name]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                own = duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    self.edges[(parent[1], name)] += 1
                self.spans.append((sid, name, start, end,
                                   parent[0] if parent is not None else None, self.task_id))
                stat.calls += 1
                stat.self_s += own
            if o is not None:
                copies = o.copies_consumed - copies_before
                stat.copies += copies
                if o.backend == "sampling":
                    stat.sampling_s += duration
                    stat.sampling_copies += copies
            self._count(name, signature, args, kwargs, result, stat)
            return result

        return wrapper

    @staticmethod
    def _count(name, signature, args, kwargs, result, stat) -> None:
        if name == "states.product_unitary":
            stat.bytes += result.nbytes
        elif name == "oracle.subnormalized_tomography":
            frame = signature.bind(*args, **kwargs).arguments.get("frame")
            if frame is not None:
                stat.bytes += frame.nbytes
        elif name == "polyopt.evaluate_poly_batch":
            stat.points += signature.bind(*args, **kwargs).arguments["points"].shape[0]
        elif name == "cover.extend_candidate":
            stat.yields += result is not None
        elif name in ("cover.build_cover", "discrete.discrete_learn"):
            stat.members += len(result)

    # --- results -------------------------------------------------------

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()

    def copies_seen(self) -> int:
        return sum(self.stats[name].copies for name in COPY_PRIMITIVES if name in self.stats)

    def write(self, path) -> None:
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["id", "name", "start", "end", "parent", "task"],
                       "spans": [[s[0], index[s[1]], s[2], s[3], s[4], s[5]]
                                 for s in self.spans]}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        st = self.stats
        out: dict[str, float] = {}
        for metric in _FIELD_METRICS:
            name, field = metric.rsplit(".", 1)
            out[metric] = getattr(st[name], field)
        out["oracle.subnormalized_tomography.frame_bytes"] = \
            st["oracle.subnormalized_tomography"].bytes
        out["oracle.StateOracle.init_s"] = st["oracle.StateOracle"].self_s
        # Inclusive time: the per-shot Haar unitaries come from states.
        sampling_s = sum(st[f"oracle.{p}"].sampling_s for p in SHADOW_PRIMITIVES)
        sampling_copies = sum(st[f"oracle.{p}"].sampling_copies for p in SHADOW_PRIMITIVES)
        out["oracle.sampling.total_s"] = sampling_s
        out["oracle.sampling.us_per_copy"] = _ratio(1e6 * sampling_s, sampling_copies)
        rungs = self.edges[("localopt.local_optimize", "oracle.estimate_z")]
        out["localopt.rungs_per_call"] = _ratio(rungs, st["localopt.local_optimize"].calls)
        ext = st["cover.extend_candidate"]
        out["cover.candidate_yield"] = _ratio(ext.yields, ext.calls)
        batch = st["polyopt.evaluate_poly_batch"]
        out["polyopt.evaluate_poly_batch.points_per_s"] = _ratio(batch.points, batch.self_s)
        tested = self.edges[("discrete.discrete_learn", "oracle.estimate_fidelity")]
        out["discrete.prefixes_tested"] = tested
        out["discrete.survivor_ratio"] = _ratio(st["discrete.discrete_learn"].members, tested)
        for layer in MODULES:
            stats = [s for name, s in list(st.items()) if name.startswith(layer + ".")]
            out[f"{layer}.self_s"] = sum(s.self_s for s in stats)
            out[f"{layer}.errors"] = sum(s.errors for s in stats)
        return out

    def setup_metrics(self) -> dict[str, float]:
        """Set-up layer metrics of everything recorded since the last reset."""
        st = self.stats
        return {"cli.generate.self_s": st["cli.generate"].self_s,
                "serialize.state_from_json.self_s": st["serialize.state_from_json"].self_s,
                "setup.states.QuantumState.self_s": st["states.QuantumState"].self_s}


def median_metrics(rows: list[dict]) -> dict[str, float]:
    """Metric-wise median over passes."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
