"""Benchmark entry point: one workload, one seed, timed or traced.

    python3 bench/run.py --workload pb-large --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports ``tvbounds`` from ``src/``
there and exits with code 2 when that is missing. The workload runs in fresh
interpreters (``bench/worker.py``): with ``--trace 0`` it sets up
``SETUPS`` times, reports the median set-up time, and times the middle one's
whole passes over the seeded pool for ``--seconds``; with ``--trace 1`` it
makes one traced run and reports the per-layer metrics. The last line of
standard output is the JSON result; the full record, with the machine and
the per-op outcomes, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from time import monotonic, perf_counter

import tracing

SETUPS = 7
DEADLINE_S = 170.0
IMPORT_SAMPLES = 3
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# units of the end-to-end values a timed run prints that BENCHMARK.json does not bound
EXTRA_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "cpu_s_per_op": "s",
               "bound_excess_p50": "TV"}


class BenchError(Exception):
    pass


def _readline(proc, deadline: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - monotonic(), 0.0))
    if not ready:
        raise BenchError("worker timed out")
    line = proc.stdout.readline().decode()
    if not line:
        raise BenchError(f"worker exited with code {proc.wait()} before answering")
    return line.strip()


def _spawn(args, root: str, out: str, env: dict):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--root", root, "--out", out]
    return subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def _finish(proc, line: str | None, deadline: float) -> str | None:
    """Send the worker its command (or ``quit``) and collect its answer."""
    proc.stdin.write(((line or "quit") + "\n").encode())
    proc.stdin.flush()
    answer = _readline(proc, deadline) if line else None
    proc.wait(timeout=max(deadline - monotonic(), 1.0))
    return answer


def _setup(args, root: str, out: str, env: dict, deadline: float, live: list, setups: list):
    """Launch a worker, time it until it reports ready and append the time to ``setups``."""
    start = perf_counter()
    proc = _spawn(args, root, out, env)
    live.append(proc)
    if _readline(proc, deadline) != "ready":
        raise BenchError("worker did not report ready")
    setups.append(perf_counter() - start)
    return proc


def run_workload(args, root: str, out: str, env: dict, deadline: float):
    """Time ``SETUPS`` set-ups (one when tracing); the middle one runs the phase.

    The other set-ups are split before and after the phase, so that their
    median spans the run instead of one moment of a shared machine.
    """
    setups, live = [], []
    try:
        count = 1 if args.trace else SETUPS
        for _ in range(count // 2):
            _finish(_setup(args, root, out, env, deadline, live, setups), None, deadline)
        proc = _setup(args, root, out, env, deadline, live, setups)
        cmd = json.dumps({"seconds": args.seconds, "trace": args.trace})
        result = json.loads(_finish(proc, cmd, deadline))
        for _ in range(count - count // 2 - 1):
            _finish(_setup(args, root, out, env, deadline, live, setups), None, deadline)
        return setups, result
    finally:
        for proc in live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _fresh_interpreter_s(code: str, root: str, env: dict, deadline: float) -> float:
    """Median over ``IMPORT_SAMPLES`` fresh interpreters of the time they print."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(deadline - monotonic(), 1.0), check=True)
        samples.append(float(proc.stdout.strip()))
    return statistics.median(samples)


def import_metrics(root: str, env: dict, deadline: float) -> dict:
    timer = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    bare = []
    for _ in range(IMPORT_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True,
                       timeout=max(deadline - monotonic(), 1.0))
        bare.append(perf_counter() - start)
    return {
        "cli.interpreter_s": statistics.median(bare),
        "cli.import_s": _fresh_interpreter_s(timer.format("tvbounds.cli"), root, env, deadline),
        "continuous.import_s": _fresh_interpreter_s(timer.format("tvbounds.continuous"), root, env, deadline),
    }


def environment(root: str) -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = None
    info["cpu"] = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    info["commit"] = None
    try:
        git = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], root):
            info["commit"] = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return info


def _print_report(args, record: dict):
    res = record["result"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {res['attempted']} ({res['runs']} runs)  failed {res['failed']}  correct {str(res['correct']).lower()}")
    for name, m in record["metrics"].items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    for name, value in record["extras"].items():
        shown = "n/a" if value is None else format(value, ">16.6g")
        print(f"  {name:<34} {shown:>16} {EXTRA_UNITS[name]}  (not in BENCHMARK.json)")
    if not args.trace:
        print(f"  {'failed_frac':<34} {res['failed_frac']:>16.6g} ratio")
        p90 = res["op_p90_s"]
        print(f"  {'op_p90_s':<34} {'n/a' if p90 is None else format(p90, '16.6g'):>16} s"
              f"  ({res['runs']} samples)")
        print(f"  median of {len(record['setup_s_samples'])} set-ups; {res['passes']} passes")
        for kind, share in res["kind_time_share"].items():
            print(f"  time share {kind:<22} {share:.3f}")
    else:
        print(f"  untraced {res['untraced_wall_s']:.4f} s, traced {res['traced_wall_s']:.4f} s, "
              f"{res['spans']} spans")
        for entry in res["unhit"]:
            print(f"  UNMEASURED: expected entry point {entry} saw no calls")
    for reason, n in sorted(res["failures"].items()):
        print(f"  failed x{n}: {reason}")
    for reason, n in sorted(res["legit"].items()):
        print(f"  not certified (legitimate) x{n}: {reason}")
    if res["nondeterministic"]:
        print(f"  NONDETERMINISTIC: {res['nondeterministic']} repeated ops changed output")
    print(f"  digest {res['digest'][:16]}  results in {os.path.relpath(record['path'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tvbounds", "__init__.py")):
        print("error: src/tvbounds not found; run from the root of a tvbounds checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    out = os.path.join(root, "bench", "out")
    os.makedirs(out, exist_ok=True)
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env_info = environment(root)
    try:
        setups, res = run_workload(args, root, out, env, deadline)
        values = dict(res["metrics"])
        if args.trace:
            values.update(import_metrics(root, env, deadline))
            values = tracing.layer_metrics(units, res["stats"], values)
        else:
            values["setup_s"] = statistics.median(setups)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    missing = set(units) - set(values)
    if missing:
        print(f"error: BENCHMARK.json names metrics {sorted(missing)} that the run does not make", file=sys.stderr)
        return 4

    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    # computed but kept out of BENCHMARK.json: printed and recorded only
    extras = {name: v for name, v in values.items() if name not in units}
    path = os.path.join(out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env_info, "setup_s_samples": setups, "metrics": metrics, "extras": extras, "result": res,
              "path": path}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    _print_report(args, record)
    print(json.dumps({"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
