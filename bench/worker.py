"""One workload in a fresh interpreter: set-up, then a timed or traced phase.

``run.py`` drives this process over its standard streams. After set-up
(imports, the seeded input pool, one warm-up op of every kind) it prints
``ready`` and reads one line: ``quit`` ends it, and a JSON object
``{"seconds": s, "trace": 0 or 1}`` starts the phase, whose results come
back as one JSON line.

Timed phase: whole passes over the pool until ``seconds`` have elapsed, with
a reference kernel timed every ``BLOCK_S`` (``KernelSampler``); an op's time
in ``ref`` units is its time divided by the kernel time around it.
Traced phase: warm passes, a fixed number of passes untraced, then the same
passes with ``tracing.Tracer`` installed; the difference in wall time is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# traced runs: (discarded warm passes, measured passes); pb-large's set-up
# warm-up suffices for its second-long ops
TRACE_PASSES = {"pb-large": (0, 1), "exact-rational": (1, 1), "many-small": (1, 3), "cli-mix": (1, 2)}


# a pb-large pass holds 5 ops of seconds each, and over one pass the median
# op is a single op: its spread over ten seeds was 0.17 of the median against
# 0.05-0.09 over two passes. A cli-mix pass (9 ops of about a second) already
# outlasts a 10 s run and takes one
MIN_TIMED_PASSES = {"pb-large": 2}

# the reference kernel runs every BLOCK_S seconds of timed work
BLOCK_S = 0.2


def reference_kernel():
    """Fixed pure-Python work, about 6 ms, that shares no code with tvbounds.

    It mixes an integer loop, float tuples rebuilt each step (allocation
    heavy, like the float pmf code) and ``Fraction`` sums (big-integer gcd,
    like the exact path). Timed every ``BLOCK_S``, it tracks the speed of a
    shared machine, which can change by 1.5x or more within seconds.
    """
    s = 0
    for i in range(25_000):
        s += i * i % 7
    a = (0.5, 0.5)
    for _ in range(160):
        a = tuple(x * 0.4 + y * 0.6 for x, y in zip(a + (0.0,), (0.0,) + a))
    f = Fraction(0)
    for k in range(1, 360):
        f += Fraction(1, k)
    return s, a, f


def interpreter_kernel():
    """A fresh interpreter importing a fixed set of standard modules, about
    0.12 s: process start and module loading, which is what a CLI op pays
    and what the in-process kernel does not track. No timeout: waiting with
    one polls in steps of up to 50 ms, which would quantize the kernel."""
    subprocess.run([sys.executable, "-I", "-c", "import argparse, csv, decimal, email.parser, fractions, json"],
                   check=True)



def _cpu() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb(with_children: bool) -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def _run(runner, op):
    try:
        return runner(op)
    except Exception as exc:  # a raising op is a counted failure, not a crash
        return exc


def run_passes(pool, runner, passes: int, tracer=None):
    """``passes`` passes over ``pool``; returns ``[(op index, wall, raw)]`` and the wall time."""
    records = []
    start = perf_counter()
    for _ in range(passes):
        for i, op in enumerate(pool):
            span = tracer.op_span(op.kind) if tracer else contextlib.nullcontext()
            with span:
                t = perf_counter()
                raw = _run(runner, op)
                wall = perf_counter() - t
            records.append((i, wall, raw))
    return records, perf_counter() - start


class KernelSampler:
    """Times a reference kernel between ops or, with ``timer``, every
    ``BLOCK_S`` from a SIGALRM handler, so that an op lasting seconds is
    sampled from inside too."""

    def __init__(self, kernel, timer: bool):
        self.kernel, self.timer = kernel, timer
        self.starts, self.durations, self.cpus = [], [], []

    def sample(self, *_):
        t, c = perf_counter(), _cpu()
        self.kernel()
        self.cpus.append(_cpu() - c)
        self.durations.append(perf_counter() - t)
        self.starts.append(t)

    def __enter__(self):
        self.sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, BLOCK_S, BLOCK_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def during(self, t0: float, t1: float) -> tuple:
        """Wall and CPU time the kernel took inside ``[t0, t1]``; a handler
        runs between bytecodes, so a sample that starts inside ends inside."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        return sum(self.durations[lo:hi]), sum(self.cpus[lo:hi])

    def around(self, t0: float, t1: float) -> float:
        """Mean kernel time over the samples taken during ``[t0, t1]`` and
        the nearest one on each side."""
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = bisect.bisect_right(self.starts, t1) + 1
        return statistics.fmean(self.durations[lo:hi])


def calibrated_passes(pool, runner, seconds: float, min_passes: int, sampler: KernelSampler):
    """Whole passes, at least ``min_passes``, until ``seconds`` have elapsed;
    without a timer the sampler runs after every block of ``BLOCK_S``.

    Returns ``[(op index, wall, cpu, raw, start, end)]`` with the kernel's
    time taken out of wall and cpu, and the number of passes.
    """
    spans, passes = [], 0
    start = block_start = perf_counter()
    with sampler:
        while passes < min_passes or perf_counter() - start < seconds:
            for i, op in enumerate(pool):
                t0, c0 = perf_counter(), _cpu()
                raw = _run(runner, op)
                c1, t1 = _cpu(), perf_counter()
                spans.append((i, t0, t1, c1 - c0, raw))
                if not sampler.timer and t1 - block_start >= BLOCK_S:
                    sampler.sample()
                    block_start = perf_counter()
            passes += 1
    records = []
    for i, t0, t1, cpu, raw in spans:
        wall_k, cpu_k = sampler.during(t0, t1)
        records.append((i, t1 - t0 - wall_k, cpu - cpu_k, raw, t0, t1))
    return records, passes


def evaluate(pool, records, classify):
    """Classify every record, check each distinct op once, and compare
    repeated passes against the first one.

    ``attempted`` and ``failed`` count distinct ops of the pool, not runs:
    how many passes fit in the timed phase depends on the machine, and
    which ops fail depends only on the seed."""
    import checks
    import workloads as W

    first, outcomes, nondeterministic = {}, [], 0
    for i, _, raw in records:
        try:
            out = classify(pool[i], raw)
        except Exception as exc:  # an output the benchmark cannot read is the op's failure
            out = W.Outcome("fail", f"unreadable output ({type(exc).__name__})", [], repr(exc))
        if i in first:
            nondeterministic += out.canon != first[i].canon
            out = first[i]
        else:
            try:
                extra = checks.check(out)
            except Exception as exc:
                extra = [f"check failed ({type(exc).__name__})"]
            if extra:
                out.status, out.reason = "fail", "; ".join(([out.reason] if out.reason else []) + extra)
            first[i] = out
        outcomes.append(out)
    wrong = sum(1 for o in first.values()
                if any(tag in o.reason for tag in ("dominance", "oracle mismatch", "check failed")))
    digest = hashlib.sha256("\n".join(first[i].canon for i in sorted(first)).encode()).hexdigest()
    summary = {
        "correct": wrong == 0 and nondeterministic == 0,
        "attempted": len(first),
        "failed": sum(1 for o in first.values() if o.status == "fail"),
        "runs": len(records),
        "failures": dict(Counter(o.reason for o in first.values() if o.status == "fail")),
        "legit": dict(Counter(o.reason for o in first.values() if o.status == "legit")),
        "wrong_outputs": wrong,
        "nondeterministic": nondeterministic,
        "digest": digest,
        "outcomes": [f"{pool[i].kind}:{first[i].status}:{first[i].reason}" for i in sorted(first)],
    }
    excess = [e for e in (checks.bound_excess(o) for o in outcomes) if e is not None]
    return summary, excess


def timed_phase(pool, runner, classify, seconds: float, min_passes: int, sampler, with_children: bool) -> dict:
    records, passes = calibrated_passes(pool, runner, seconds, min_passes, sampler)
    rss = _peak_rss_mb(with_children)  # before the checks import numpy
    summary, excess = evaluate(pool, [(i, w, raw) for i, w, _, raw, *_ in records], classify)
    n = len(records)
    ref = [sampler.around(t0, t1) for *_, t0, t1 in records]
    walls = [w for _, w, *_ in records]
    cpus = [c for _, _, c, *_ in records]
    rel = [w / k for w, k in zip(walls, ref)]
    kind_time = Counter()
    for (i, w, *_) in records:
        kind_time[pool[i].kind] += w
    summary.update({
        "metrics": {
            "ops_per_ref": n / sum(rel),
            "op_p50_ref": statistics.median(rel),
            "cpu_ref_per_op": sum(c / k for c, k in zip(cpus, ref)) / n,
            "peak_rss_mb": rss,
            # raw seconds and the bound quality: printed and recorded
            "ops_per_s": n / sum(walls),
            "op_p50_s": statistics.median(walls),
            "cpu_s_per_op": sum(cpus) / n,
            "bound_excess_p50": statistics.median(excess) if excess else None,
        },
        "failed_frac": summary["failed"] / summary["attempted"],
        "op_p90_s": statistics.quantiles(walls, n=10)[-1] if n >= 100 else None,
        "passes": passes,
        "kernel_s": {"median": statistics.median(sampler.durations), "min": min(sampler.durations),
                     "max": max(sampler.durations), "samples": len(sampler.durations)},
        "kind_time_share": {k: v / sum(kind_time.values()) for k, v in sorted(kind_time.items())},
    })
    return summary


def traced_phase(workload, pool, runner, classify, spans_path: str) -> dict:
    import tracing

    warm, passes = TRACE_PASSES[workload]
    run_passes(pool, runner, warm)
    # untraced and traced passes alternate, so a slow spell of a shared
    # machine falls on both sides of the overhead
    tracer, records, untraced, traced = tracing.Tracer(), [], 0.0, 0.0
    for _ in range(passes):
        untraced += run_passes(pool, runner, 1)[1]
        tracer.install()
        try:
            recs, wall = run_passes(pool, runner, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        records += recs
        traced += wall
    tracer.write_spans(spans_path)
    unhit = sorted(e for e in tracing.EXPECTED[workload] if tracer.entry_calls[e] == 0)
    summary, _ = evaluate(pool, records, classify)
    summary.update({
        "metrics": {"bench.trace.overhead_s": traced - untraced, "bench.trace.unhit": len(unhit)},
        "stats": tracer.stats(),
        "unhit": unhit,
        "entry_calls": dict(sorted(tracer.entry_calls.items())),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": len(tracer.spans),
    })
    return summary


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import workloads as W
    import tvbounds

    if not os.path.abspath(tvbounds.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"tvbounds was imported from {tvbounds.__file__}, not from {src}")

    tmpdir = None
    if args.workload == "cli-mix":
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        tmpdir = os.path.join(args.out, f"tmp-{os.getpid()}")
        os.makedirs(tmpdir, exist_ok=True)

        def runner(op):
            return W.run_cli_subprocess(op.inp[1], args.root, env)

        def classify(op, raw):
            name, _, expected, ref = op.inp
            return W.classify_cli(name, expected, ref, raw)

        warm_up = [W.Op("cli", ("expapprox", ["expapprox", "--density", "builtin:expquad"], 0, None))]
    else:
        def runner(op):
            return W.LIBRARY_OPS[op.kind](op.inp)

        def classify(op, raw):
            return W.classify_library(op.kind, op.inp, raw)

        warm_up = W.warm_up_pool(args.workload)

    try:
        pool = W.build_pool(args.workload, args.seed, tmpdir)
        for op in warm_up:
            runner(op)
        print("ready", flush=True)
        line = sys.stdin.readline().strip()
        if not line or line == "quit":
            return 0
        cmd = json.loads(line)
        if cmd["trace"]:
            if args.workload == "cli-mix":
                from tvbounds import cli

                def runner(op):  # in-process, so parse, runner and emit can be split
                    return cli.run(op.inp[1])

            spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl")
            result = traced_phase(args.workload, pool, runner, classify, spans_path)
        else:
            # CLI ops are child processes: sample between them, never beside them
            cli_mix = args.workload == "cli-mix"
            sampler = KernelSampler(interpreter_kernel if cli_mix else reference_kernel, timer=not cli_mix)
            result = timed_phase(pool, runner, classify, cmd["seconds"], MIN_TIMED_PASSES.get(args.workload, 1),
                                 sampler, cli_mix)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if tmpdir:
            shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
