"""Run every workload once and print its metrics as a table.

    python3 bench/report.py --seed 0 --seconds 40 [--trace 1]

Each workload runs as ``bench/run.py`` runs it; the table lists every metric
of BENCHMARK.json by name and unit, with the passes attempted and failed.
With ``--trace 1`` it also prints, per workload, the traced pass time, the
tracing overhead and the untraced pass time.  Every traced pass is checked
to have its layers' self times sum to its root spans, and those to cover the
pass to within 1%.
"""

from __future__ import annotations

import argparse
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    results = {}
    for workload in workloads.WORKLOADS:
        results[workload] = run.run(workload, args.seed, args.seconds, bool(args.trace))
        if results[workload] is None:
            print(f"{workload}: no pass succeeded", file=sys.stderr)
            return 1
    names = list(results)
    print(f"{'metric':40s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in names))
    for metric, unit in run.declared_units(bool(args.trace)).items():
        values = " ".join(f"{results[w]['metrics'][metric]['value']:14.6g}" for w in names)
        print(f"{metric:40s} {unit:6s} {values}")
    for key in ("attempted", "failed", "correct"):
        print(f"{key:47s} " + " ".join(f"{str(results[w][key]):>14s}" for w in names))
    if args.trace:
        for w in names:
            m = {k: v["value"] for k, v in results[w]["metrics"].items()}
            print(f"{w}: traced pass {m['trace.traced_wall_s']:.4f} s, untraced pass "
                  f"{m['trace.untraced_wall_s']:.4f} s, tracing overhead "
                  f"{m['trace.overhead_s']:.4f} s")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
