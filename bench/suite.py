"""Run every workload, print each end-to-end metric, and keep the results.

    python3 bench/suite.py --seed 1                      # all workloads, timed
    python3 bench/suite.py --seed 1 --trace              # plus the traced runs
    python3 bench/suite.py --seed 1 --previous OLD.json  # plus deltas
    python3 bench/suite.py --seed 1 --determinism        # two runs per seed

Run it from the repository root. Every workload in ``BENCHMARK.json`` goes
through ``bench/run.py`` for the benchmark's ``run_seconds``, exactly as a
single run would, and its report is printed as ``run.py`` prints it; the
combined results are written to ``--out``. ``--determinism`` runs every
workload twice with one seed and fails unless both runs give the same per-op
outcomes and output digest.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import compare

BENCH = os.path.dirname(os.path.abspath(__file__))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}")
    with open(os.path.join("bench", "out", f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="also make the traced run of each workload")
    ap.add_argument("--out", default=os.path.join("bench", "out", "suite.json"))
    ap.add_argument("--previous", help="an earlier suite file to print deltas against")
    ap.add_argument("--determinism", action="store_true")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    runs, ok = {}, True
    for workload in [w["name"] for w in spec["workloads"]]:
        rec = run_one(workload, args.seed, seconds, 0)
        res = rec["result"]
        runs[workload] = {"end_to_end": rec["metrics"], "extras": rec["extras"], "correct": res["correct"],
                          "attempted": res["attempted"], "failed": res["failed"], "failed_frac": res["failed_frac"],
                          "failures": res["failures"], "digest": res["digest"], "env": rec["env"]}
        ok &= res["correct"]
        if args.trace:
            runs[workload]["per_layer"] = run_one(workload, args.seed, seconds, 1)["metrics"]
        if args.determinism:
            again = run_one(workload, args.seed, seconds, 0)["result"]
            same = again["digest"] == res["digest"] and again["outcomes"] == res["outcomes"]
            ok &= same
            print(f"{workload} determinism: {'same outcomes and digest' if same else 'MISMATCH'}", flush=True)

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "seconds": seconds, "runs": runs}, fh, indent=1, sort_keys=True)
    print(f"results in {args.out}")
    if args.previous:
        lines, regressions = compare.compare(compare.load(args.previous), runs, spec)
        print("\n".join(lines))
        ok &= not regressions
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
