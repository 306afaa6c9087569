"""Fingerprint every benchmark task's output, to check that a change leaves outputs bit-identical.

    python tools/fingerprints.py --seeds 1 2 3 4 5 6 7 8 --out prints.json
    python tools/fingerprints.py --diff parent.json change.json

Run from the root of a source checkout; the package is imported from
``src/`` and the tasks from ``bench/workloads.py``, which this script only
reads.  Each task of the three workloads runs once per seed, untimed, and its
fingerprint is ``workloads.fingerprint``: the sha256 of its output and copy
count, exact to the last bit.  The file maps ``workload/seed/label`` to that
digest.  No workload runs a degree cap, so each seed also fingerprints
capped ``estimate_opt`` runs, labelled ``capped/<seed>/estimate_opt-n<n>-cap<c>``:
a ``planted-product`` instance (w 0.95, noise 0.05) at n = 6, 8, 12 and 16,
caps 1 and 2, eps = delta = 0.1, on the exact backend, with instance seed
1000 seed + n and oracle seed 1000 seed + 100 + n.  ``--diff`` lists the
labels whose digests differ, or that only one file holds, and exits 1 if
there is any.  A task that raises stops the run.
BLAS runs on one thread, as in the benchmark's worker, so a reduction's order
does not depend on the machine's core count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CAPPED = [(n, cap) for n in (6, 8, 12, 16) for cap in (1, 2)]


def fingerprints(seeds) -> dict[str, str]:
    """{workload/seed/label: digest} for every task of every workload at each seed."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    out = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            insts, tasks = workloads.build(workload, seed)
            for task in tasks:
                output, copies = workloads.run_task(task, insts[task.instance])
                out[f"{workload}/{seed}/{task.label}"] = workloads.fingerprint(output, copies)
    for seed in seeds:
        for n, cap in CAPPED:
            out[f"capped/{seed}/estimate_opt-n{n}-cap{cap}"] = capped_fingerprint(seed, n, cap)
    return out


def capped_fingerprint(seed: int, n: int, cap: int) -> str:
    """Digest of one capped `estimate_opt` run on a seeded planted product state."""
    import workloads
    from prodstate import cli, cover, oracle, serialize

    payload = cli.generate("planted-product", {"n": n, "w": 0.95, "noise": 0.05},
                           seed=1000 * seed + n)
    o = oracle.StateOracle(serialize.state_from_json(payload["state"]),
                           seed=1000 * seed + 100 + n)
    output = cover.estimate_opt(o, 0.1, 0.1, cover.CoverOverrides(degree_cap=cap))
    return workloads.fingerprint(output, o.copies_consumed)


def moved(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """Labels whose digests differ between a and b, or that only one of them holds."""
    return sorted(label for label in a.keys() | b.keys() if a.get(label) != b.get(label))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--out", help="write the fingerprints here (default: stdout)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="list the labels that moved between two fingerprint files")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(Path(p).read_text()) for p in args.diff)
        labels = moved(a, b)
        for label in labels:
            print(label)
        print(f"{len(labels)} of {len(a.keys() | b.keys())} tasks moved", file=sys.stderr)
        return 1 if labels else 0
    for name in BLAS_ENV:
        os.environ[name] = "1"
    text = json.dumps(fingerprints(args.seeds), indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
