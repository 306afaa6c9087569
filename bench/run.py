"""Benchmark of the prodstate learners and oracle estimators.

    python3 bench/run.py --workload exact-dense --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up the workload's seeded instances three times
(reporting the median), hands the last set to one worker process, which runs
a warm-up pass and then timed passes over the task list for about
``--seconds`` seconds, and scores every task's output against ground truth
outside the timed region.  With ``--trace 0`` the last stdout line is a JSON
object carrying the end-to-end metrics listed in BENCHMARK.json; with
``--trace 1`` untraced and traced passes alternate, and it carries the
per-layer metrics instead.  Metric names and units are read from
BENCHMARK.json, so the two cannot drift apart.  See bench/WORKLOADS.md for
what each workload stresses and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# One BLAS thread: at most nproc (2 on the reference box), and it keeps
# timings of the small dense kernels free of thread scheduling noise.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 2  # a traced run alternates untraced and traced passes
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; exit non-zero without one."""


# --- worker process ------------------------------------------------------------


class Reference:
    """A fixed mix of work that measures the host's current speed.

    Dense complex matrix products (compute), Gram-Schmidt-style updates on a
    20000-row batch (memory traffic, as in the shadow sampler) and a plain
    Python loop (interpreter).  The host's speed drifts by 15-25% over tens
    of seconds; timing this kernel after every task and dividing by the
    pass's median reference time cancels most of that drift.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self.rows = rng.standard_normal((20_000, 5)) + 1j * rng.standard_normal((20_000, 5))
        self.einsum = np.einsum

    def __call__(self) -> float:
        t0 = time.perf_counter()
        x = self.matrix
        for _ in range(3):
            x = (x @ self.matrix) / 160.0
        y = self.rows
        for j in range(5):
            for _ in range(j):
                y = y - self.einsum("bi,bi->b", self.rows.conj(), y)[:, None] * self.rows / 1e3
        total = 0
        for i in range(7_000):
            total += i * i
        return time.perf_counter() - t0


def _timed_pass(insts, tasks, tracer, reference):
    import workloads

    if tracer is not None:
        tracer.reset()
        tracer.install()
    rows, refs = [], []
    try:
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.task_id = i
            t0 = time.perf_counter()
            try:
                out, copies = workloads.run_task(task, insts[task.instance])
                err = None
            except Exception:  # counted as a failed task; the run goes on
                out, copies, err = None, None, traceback.format_exc(limit=3)
            rows.append((time.perf_counter() - t0, out, copies, err))
            refs.append(reference())
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "traced": tracer is not None,
        "wall": sum(r[0] for r in rows),
        "ref": statistics.median(refs),
        "times": [r[0] for r in rows],
        "prints": [workloads.fingerprint(r[1], r[2]) if r[3] is None else r[3].splitlines()[-1]
                   for r in rows],
        "errors": sum(r[3] is not None for r in rows),
        "copies": sum(r[2] for r in rows if r[2] is not None),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["copies_seen"] = tracer.copies_seen()
    return result, rows


def _worker() -> int:
    """Worker entry: read the job from stdin, send pickled messages on stdout.

    Warms up, then runs the requested number of timed passes, alternating
    untraced and traced ones in a traced run.  Messages: ("ready",
    warm-up pass, warm-up outputs) after the warm-up, then ("done", passes,
    peak RSS in MB) or ("error", traceback).
    """
    out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())  # stray prints go to stderr
    insts, tasks, passes_wanted, trace, trace_path, parent_pid = pickle.load(sys.stdin.buffer)

    def send(*msg):
        pickle.dump(msg, out)
        out.flush()

    try:
        import tracer as tracing

        reference = Reference()
        warm, rows = _timed_pass(insts, tasks, None, reference)
        send("ready", warm, [(r[1], r[2], r[3]) for r in rows])
        tr = tracing.Tracer() if trace else None
        passes = []
        for i in range(passes_wanted):
            if os.getppid() != parent_pid:
                raise BenchError("the benchmark process is gone")
            traced = trace and i % 2 == 1
            result, _ = _timed_pass(insts, tasks, tr if traced else None, reference)
            passes.append(result)
        if tr is not None:
            tr.write(trace_path)
        send("done", passes, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    except Exception:
        send("error", traceback.format_exc())
        return 1
    return 0


# --- metrics --------------------------------------------------------------------


def _tail(samples: list[float]):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond.

    NaN when there are too few samples, which only a traced run's single
    untraced pass can give; a traced run does not report the tail.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return math.nan, math.nan
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _score(tasks, insts, outputs, task_s):
    import workloads

    scores, lines = [], []
    for task, (out, _, err), secs in zip(tasks, outputs, task_s):
        head = f"  {task.label:34s} {secs:8.4f} s  "
        if err is not None:
            scores.append(None)
            lines.append(head + f"RAISED  {err.strip().splitlines()[-1]}")
            continue
        s = workloads.score_task(task, insts[task.instance], out)
        scores.append(s)
        lines.append(head + f"{'ok    ' if s.met else 'MISSED'}  {s.detail}")
    return scores, lines


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _setup(workload: str, seed: int):
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        insts, tasks = workloads.build(workload, seed)
        times.append(time.perf_counter() - t0)
    return insts, tasks, times


def _traced_setup(workload: str, seed: int) -> dict:
    import tracer as tracing
    import workloads

    tr = tracing.Tracer()
    tr.install()
    try:
        workloads.build(workload, seed)
    finally:
        tr.uninstall()
    return tr.setup_metrics()


def _run_worker(insts, tasks, passes, trace, trace_path, deadline):
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--worker"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    t0 = time.perf_counter()
    messages = []
    try:
        pickle.dump((insts, tasks, passes, trace, str(trace_path), os.getpid()), proc.stdin)
        proc.stdin.close()
        while len(messages) < 2:
            wait = max(0.0, deadline - time.perf_counter())
            if not select.select([proc.stdout], [], [], wait)[0]:
                raise BenchError("worker did not finish within the run limit")
            msg = pickle.load(proc.stdout)  # written by our own worker only
            if msg[0] == "error":
                raise BenchError(f"worker failed:\n{msg[1]}")
            if msg[0] == "ready":
                warmup_s = time.perf_counter() - t0
            messages.append(msg)
    except (EOFError, BrokenPipeError):
        raise BenchError("worker exited without a result") from None
    finally:
        if proc.poll() is None and len(messages) < 2:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    (_, warm, outputs), (_, passes, peak_mb) = messages
    return warmup_s, warm, outputs, passes, peak_mb


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, list[str]]:
    import tracer as tracing
    import workloads

    started = time.perf_counter()
    insts, tasks, setup_times = _setup(workload, seed)
    setup_layers = _traced_setup(workload, seed) if trace else {}
    trace_path = ROOT / "bench" / "traces" / f"{workload}-seed{seed}.json"
    if trace:
        trace_path.parent.mkdir(exist_ok=True)
    # A fixed pass count per workload, sized so the timed passes take about
    # `seconds` on the reference box: a faster change then measures the same
    # number of task samples, so the tail percentile stays on the same rank.
    count = max(MIN_PASSES, round(seconds / workloads.NOMINAL_PASS_S[workload]))
    warmup_s, warm, outputs, passes, peak_mb = _run_worker(
        insts, tasks, count, trace, trace_path, started + RUN_LIMIT_S)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    reproducible = all(p["prints"] == warm["prints"] for p in passes)
    copies_match = all(p["copies_seen"] == p["copies"] for p in traced)

    task_s = [statistics.median(col) for col in zip(*(p["times"] for p in untraced))]
    scores, score_lines = _score(tasks, insts, outputs, task_s)
    raised = sum(s is None for s in scores)
    missed = sum(s is not None and not s.met for s in scores)
    guaranteed_miss = any(s is not None and not s.met and t.kind in workloads.GUARANTEED_KINDS
                          for t, s in zip(tasks, scores))
    gaps = [s.gap for t, s in zip(tasks, scores) if t.is_learner and s is not None]
    gaps += [float(insts[t.instance].truth["opt"]) for t, s in zip(tasks, scores)
             if t.is_learner and s is None]
    copies = [math.log10(c) for t, (_, c, e) in zip(tasks, outputs)
              if t.uses_oracle and e is None]

    # Timings in units of the pass's median reference time ("ref"); raw
    # seconds are printed alongside.
    samples = [x for p in untraced for x in p["times"]]
    scaled = [x / p["ref"] for p in untraced for x in p["times"]]
    tail_s, _ = _tail(samples)
    tail, tail_pct = _tail(scaled)
    per_task = {x / p["ref"]: t.label for p in untraced for x, t in zip(p["times"], tasks)}
    wall_s = statistics.median(p["wall"] for p in untraced)
    ref_s = statistics.median(p["ref"] for p in untraced)
    metrics = {
        "setup_s": statistics.median(setup_times) + warmup_s,
        "wall_ref": statistics.median(p["wall"] / p["ref"] for p in untraced),
        "task_p50_ref": statistics.median(scaled),
        "task_tail_ref": tail,
        "peak_rss_mb": peak_mb,
        "copies_log10_mean": statistics.fmean(copies) if copies else math.nan,
        "score.fail_rate": (raised + missed) / len(tasks),
        "score.miss_rate": missed / len(tasks),
        "score.fidelity_gap": statistics.fmean(gaps) if gaps else 0.0,
    }
    if trace:
        metrics.update(tracing.median_metrics([p["layers"] for p in traced]))
        metrics.update(setup_layers)
        metrics["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - wall_s

    lines = [
        f"workload {workload}  seed {seed}  blas_threads {BLAS_THREADS} (nproc {os.cpu_count()})"
        f"  passes {len(untraced)} untraced + {len(traced)} traced  tasks/pass {len(tasks)}",
        f"setup_s            {metrics['setup_s']:.4f} s   median of {SETUP_REPEATS} set-ups "
        f"{statistics.median(setup_times):.4f} s + worker start and warm-up pass {warmup_s:.4f} s",
        f"reference          {ref_s:.5f} s   median reference-kernel time of the passes "
        f"({min(p['ref'] for p in untraced):.5f} to {max(p['ref'] for p in untraced):.5f} s)",
        f"wall_ref           {metrics['wall_ref']:.4f} ref   median of {len(untraced)} passes; "
        f"wall_s {wall_s:.4f} s ({min(p['wall'] for p in untraced):.4f} to "
        f"{max(p['wall'] for p in untraced):.4f} s)",
        f"task_p50_ref       {metrics['task_p50_ref']:.4f} ref   n={len(samples)}; "
        f"task_p50_s {statistics.median(samples):.4f} s",
        f"task_tail_ref      {tail:.4f} ref   p{tail_pct:.1f}, n={len(samples)}, "
        f"{TAIL_BEYOND} beyond, task {per_task.get(tail)}; task_tail_s {tail_s:.4f} s",
        f"peak_rss_mb        {peak_mb:.1f} MB   worker process ru_maxrss",
        f"copies_log10_mean  {metrics['copies_log10_mean']:.4f} log10_copies   "
        f"n={len(copies)} oracle tasks",
        f"fail_rate          {metrics['score.fail_rate']:.4f} ratio   "
        f"{raised} raised + {missed} missed of n={len(tasks)} tasks",
        f"miss_rate          {metrics['score.miss_rate']:.4f} ratio   n={len(tasks)} tasks",
        f"fidelity_gap       {metrics['score.fidelity_gap']:.4f} fidelity   "
        f"n={len(gaps)} learner tasks",
        f"outputs reproducible across passes: {reproducible}"
        + (f"; traced copy ledger matches copies_consumed: {copies_match}" if trace else ""),
        "time waited: none to report; the program has no queues, locks or threads",
        "tasks (median untraced seconds, score):",
    ] + score_lines
    if trace:
        traced_wall = statistics.median(p["wall"] for p in traced)
        lines.append(f"self time by layer, median traced pass of {traced_wall:.4f} s:")
        lines += [f"  {layer:10s} {metrics[f'{layer}.self_s']:9.4f} s "
                  f"{100.0 * metrics[f'{layer}.self_s'] / traced_wall:5.1f}%"
                  for layer in tracing.MODULES if metrics[f"{layer}.self_s"] > 0]
        if metrics["oracle.sampling.total_s"] > 0:
            lines.append(f"  sampling-backend shadow primitives, inclusive: "
                         f"{metrics['oracle.sampling.total_s']:.4f} s "
                         f"{100.0 * metrics['oracle.sampling.total_s'] / traced_wall:5.1f}%")

    status = {
        "correct": reproducible and copies_match and not guaranteed_miss,
        "attempted": len(tasks) * len(passes),
        "failed": sum(p["errors"] for p in passes),
    }
    return status, metrics, lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--worker"]:
        return _worker()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    # A terminated run unwinds like an interrupted one, stopping its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = _load_spec()
        import prodstate
        import workloads
    except (OSError, ImportError) as exc:
        print(f"error: cannot load the benchmark or the package from {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    if Path(prodstate.__file__).resolve().parent != ROOT / "src" / "prodstate":
        print(f"error: prodstate imported from {prodstate.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS or args.seed < 0 or args.seconds < 1:
        print("error: unknown workload, negative seed or non-positive seconds", file=sys.stderr)
        return 2

    try:
        status, metrics, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        result = dict(status, metrics={m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                       for m in wanted})
    except (BenchError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        lines.append("per-layer metrics:")
        lines += [f"  {k:48s} {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
