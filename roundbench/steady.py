"""Steadiness runner: repeat the benchmark, report spread against bounds.

Usage, from the repository root::

    python3 roundbench/steady.py [--sets 2]

Runs ``run.py`` ten times on every workload of ``BENCHMARK.json`` -- one
process at a time, the workloads in alternating order from one run to
the next, seeds 1 to 10 -- with the run length of ``BENCHMARK.json``.
For each end-to-end metric of each workload it prints the median, the
quartiles (Python's ``statistics.quantiles(n=4)``) and the spread
``(q3 - q1) / median``, flagged ``OVER`` when the spread exceeds the
metric's bound and ``tight`` when it exceeds a third of it.  With
``--sets 2`` a second set reruns the same seeds and each metric's second
median is compared with the first: ``DRIFT`` marks a change beyond the
bound in either direction.  Any ``OVER`` or ``DRIFT`` makes the exit
code 1.  Raw results go to ``.roundbench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10        # runs per workload and set, seeds 1..RUNS


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    results: dict = {w: [[] for _ in range(args.sets)] for w in names}
    for s in range(args.sets):
        for i in range(RUNS):
            order = names if i % 2 == 0 else names[::-1]
            for w in order:
                r = run_once(w, 1 + i, seconds)
                results[w][s].append(r)
                print(f"set {s + 1} run {i + 1} {w}: "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in r["metrics"].items())
                      + f" ({r['wall_s']:.1f} s)", flush=True)

    out_path = ROOT / ".roundbench" / f"steady-{int(time.time())}.json"
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(results))

    flagged = 0
    for w in names:
        print(f"\n{w}")
        medians = []
        for s, runs in enumerate(results[w]):
            share = {r["failed"] / r["attempted"] for r in runs}
            print(f"  set {s + 1}: {len(runs)} runs, failed share "
                  f"{sorted(share)}, run wall "
                  f"{statistics.median(r['wall_s'] for r in runs):.1f} s")
            medians.append({})
            for name, m in bounds.items():
                vals = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summarize(vals)
                medians[s][name] = med
                flag = ""
                if spread > m["bound"]:
                    flag, flagged = "OVER", flagged + 1
                elif spread > m["bound"] / 3:
                    flag = "tight"
                print(f"    {name:14s} median {med:12.5g}  q1 {q1:12.5g}  "
                      f"q3 {q3:12.5g}  spread {spread:7.2%}  bound "
                      f"{m['bound']:.0%} {flag}")
        if len(medians) == 2:
            for name, m in bounds.items():
                a, b = medians[0][name], medians[1][name]
                drift = (b - a) / a
                flag = ""
                if abs(drift) > m["bound"]:
                    flag, flagged = "DRIFT", flagged + 1
                print(f"    {name:14s} set 2 vs set 1: {drift:+7.2%} "
                      f"({m['better']} is better) {flag}")
    print(f"\n{flagged} flag(s); raw results in {out_path.relative_to(ROOT)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
