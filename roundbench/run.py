"""Whole-round OLIVE benchmark: one workload, one seed, one JSON line.

Usage, from the repository root::

    python3 roundbench/run.py --workload long_horizon --seed 1 \\
        --seconds 60 --trace 0

Drives ``OliveSystem`` rounds through public APIs in this one process
(single-process executors, no pools, one numeric thread).  Inputs are
generated from ``--seed`` before any timing starts; every round's
released update is checked independently (a failed check exits 1
without a result).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ledger, which is also printed as a table and written span
by span to ``.roundbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".roundbench"

#: Numeric thread pools are pinned to one thread (never wider than the
#: host): the benchmark measures one single-threaded process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_ledger(workload: str, layer: dict, missing: list[str]) -> None:
    """The per-layer table: value per timed round and share of its wall."""
    wall = layer["round.wall_s"]
    print(f"per-layer ledger: {workload} (per timed traced round, "
          f"wall {wall:.4f} s)")
    print(f"  {'metric':28s} {'value':>14s} {'share':>8s}")
    times = [f"{n}_s" for n in spans.LAYERS] + ["round.unattributed_s"]
    for name in times:
        print(f"  {name:28s} {layer[name]:14.6f} {layer[name] / wall:8.1%}")
    print(f"  {'sum of the above':28s} {sum(layer[n] for n in times):14.6f}")
    for name in ("trace.overhead_s", "sgx.ra_s"):
        print(f"  {name:28s} {layer[name]:14.6f}")
    for name in list(spans.COUNTS) + ["sgx.ra_clients"]:
        print(f"  {name:28s} {layer[name]:14.2f}")
    for target in missing:
        print(f"  (not in the program, not traced: {target})")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"roundbench: the program is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import checks
    import engine
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"roundbench: unknown workload {args.workload!r} "
              f"(choose from {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    inputs = make_inputs(WORKLOADS[args.workload], args.seed)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        result = engine.run(inputs, args.seconds, bool(args.trace), workdir)
    except checks.CheckFailed as exc:
        print(f"roundbench: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        layer = result.per_layer()
        print_ledger(args.workload, layer, result.missing)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
        result.tracer.write(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        values, kind = layer, "per_layer"
    else:
        values, kind = result.end_to_end(), "end_to_end"
    # Names and units are those of BENCHMARK.json, the one list of metrics.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    print(json.dumps({"correct": True, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
