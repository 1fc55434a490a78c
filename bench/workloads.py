"""Seeded input pools and the library or CLI call each op makes.

A workload is a fixed pool of ops drawn from ``random.Random(seed)``. The
timed phase runs the pool in whole passes, so every pass repeats the same
inputs and must reproduce the same canonical outputs. An op returns the raw
result of the public calls it makes; ``classify`` turns that result into an
outcome after timing, and ``checks.py`` re-derives its correctness.

Failure rule: an op fails when it raises, when a CLI op exits with an
unexpected code, or when it does not certify an instance that the generator
guarantees is in the hypothesis class. A compound-geometric draw whose ratio
``P[X=1]/P[X=0]`` reaches 1, or whose aggregate law is not log-concave
relative to its geometric target, is outside the class: it is recorded as
``legit`` with its reason and does not count as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from tvbounds import bounds, compound, distributions, intrinsic_volumes, matroids, sums
from tvbounds.errors import NotApplicableError

# pb-large sizes: pmf construction is quadratic, and n=1500 and n=3000 are
# where the float path reproduces the anchor leak and the binomial underflow
PB_LARGE_SIZES = (500, 1000, 1500, 2000, 3000)
EXACT_SIZES = (20, 60, 120)
EXACT_PER_SIZE = 8

# many-small ops per pass; chosen so that no kind takes half the wall time
MANY_SMALL_WEIGHTS = {
    "tilt": 120,
    "pb-binomial": 24,
    "pb-poisson": 24,
    "compound-poisson": 60,
    "compound-geometric": 60,
    "matroid": 60,
    "iv": 80,
    "gamma": 32,
}

CLI_PB_BINOMIAL_N = 300


@dataclass
class Claim:
    """Bounds an op reported against one oracle, and how to re-derive it."""

    bounds: list
    oracle: tuple  # (lo, hi) as reported by the package
    ref: tuple  # (reference kind, data), a key of checks.REFERENCES, or None


@dataclass
class Outcome:
    status: str  # "ok", "legit" or "fail"
    reason: str = ""
    claims: list = field(default_factory=list)
    canon: str = ""


@dataclass(frozen=True)
class Op:
    kind: str
    inp: object


def _fmt(x) -> str:
    return "null" if x is None else f"{float(x):.12e}"


def _canon(kind: str, status: str, reason: str, claims) -> str:
    parts = [kind, status, reason]
    for c in claims:
        parts.append(",".join(_fmt(b) for b in c.bounds) + "/" + ",".join(_fmt(v) for v in c.oracle))
    return "|".join(parts)


def _report_claim(report, extra_bounds, ref) -> Claim:
    oracle = report.oracle_tv
    return Claim(list(report.core_bounds()) + [float(b) for b in extra_bounds],
                 (oracle.lo, oracle.hi), ref)


def _certified(report) -> bool:
    return not report.details.get("not_applicable") and bool(report.core_bounds())


# ---------------------------------------------------------------------------
# input generators (all draws come from the workload's Random(seed))
# ---------------------------------------------------------------------------


def gen_pb_float(rng: random.Random, n: int) -> tuple:
    return tuple(rng.uniform(0.0, 0.5) for _ in range(n))


def gen_pb_exact(rng: random.Random, n: int) -> tuple:
    return tuple(Fraction(rng.randint(1, 49), 100) for _ in range(n))


def _size(lo: int, hi: int, frac: float) -> int:
    """The integer in ``lo..hi`` at quantile ``frac`` in [0, 1)."""
    return lo + int(frac * (hi - lo + 1))


def gen_pb_small(rng: random.Random, frac: float) -> tuple:
    # log-uniform n in 5..200 keeps most ops under 10 ms while still reaching
    # the sizes where the truncated Poisson reference breaks (n >~ 30)
    return gen_pb_float(rng, int(round(5 * 40**frac)))


def gen_tilt(rng: random.Random, frac: float) -> tuple:
    """A reference on a 2..60 cell window and a convex tilt ``nu = e^-V mu``."""
    length = _size(2, 60, frac)
    offset = rng.randint(-10, 10)
    mu = [rng.uniform(0.05, 1.0) for _ in range(length)]
    v, slope = [0.0], rng.uniform(-2.0, 2.0)
    for _ in range(1, length):
        v.append(v[-1] + slope)
        slope += rng.uniform(0.0, 0.3)
    low = min(v)
    nu = [m * math.exp(low - vi) for m, vi in zip(mu, v)]
    mu_total, nu_total = math.fsum(mu), math.fsum(nu)
    return offset, tuple(m / mu_total for m in mu), tuple(m / nu_total for m in nu)


def _log_concave_masses(rng: random.Random, top: int, a_lo: float, a_hi: float, b_hi: float) -> tuple:
    a, b = rng.uniform(a_lo, a_hi), rng.uniform(0.0, b_hi)
    raw = [math.exp(-a * j - b * j * j) for j in range(top + 1)]
    total = math.fsum(raw)
    return tuple(r / total for r in raw)


def gen_compound_poisson(rng: random.Random, frac: float) -> tuple:
    """Severity e^{-a j - b j^2} with a > ln 2, and a rate inside
    ``2 F_2 / F_1^2 <= lam < 1 / F_1`` so the aggregate is log-concave."""
    sev = _log_concave_masses(rng, _size(2, 6, frac), 0.8, 2.5, 0.5)
    lo, hi = 2.0 * sev[2] / sev[1] ** 2, 1.0 / sev[1]
    return lo + rng.uniform(0.05, 0.95) * (hi - lo), sev


def gen_compound_geometric(rng: random.Random, frac: float) -> tuple:
    # a < 0 moves the count mode off 0; with a large atom F_0 the aggregate is
    # not log-concave, so about a third of these draws certify
    return _log_concave_masses(rng, _size(1, 5, frac), -3.0, 0.5, 0.4), rng.uniform(0.05, 0.6)


def gen_partition(rng: random.Random, frac: float, top: int = 12) -> tuple:
    """Partition-matroid categories ``(size, capacity)`` on 3..top elements, rank >= 2."""
    while True:
        cats, left = [], _size(3, top, frac)
        while left > 0:
            c = rng.randint(1, min(4, left))
            cats.append((c, rng.randint(1, c)))
            left -= c
        rank = sum(d for _, d in cats)
        if rank >= 2:
            return tuple(cats), rng.randint(1, rank - 1)


def gen_iv(rng: random.Random, frac: float) -> tuple:
    dim = _size(1, 8, frac)
    m = rng.randint(0, dim - 1)
    if rng.random() < 0.5:
        return "box", tuple(rng.uniform(0.1, 2.0) for _ in range(dim)), m
    return "cube", (dim, rng.uniform(0.1, 2.0)), m


def gen_gamma(rng: random.Random, frac: float) -> tuple:
    """Two Gamma laws whose shape and rate differences share a sign."""
    k_lo, l_lo = 0.5 + 3.5 * frac, rng.uniform(0.3, 2.5)
    hi = (k_lo + rng.uniform(0.1, 2.0), l_lo + rng.uniform(0.05, 1.5))
    lo = (k_lo, l_lo)
    return (hi, lo) if rng.random() < 0.5 else (lo, hi)


# ---------------------------------------------------------------------------
# library ops: each returns the raw results of its public calls
# ---------------------------------------------------------------------------


def op_pb_binomial(p):
    bv = sums.BernoulliVector(p)
    s = sums.poisson_binomial_pmf(bv)
    report = bounds.certify(sums.binomial_target(bv), s)
    return report, sums.binomial_bound_primary(bv), sums.binomial_bound_secondary(bv)


def op_pb_poisson(p):
    bv = sums.BernoulliVector(p)
    s = sums.poisson_binomial_pmf(bv)
    return bounds.certify(sums.poisson_target(bv), s), sums.poisson_bound(bv)


def op_tilt(inp):
    offset, mu, nu = inp
    return bounds.certify(distributions.DiscreteDist(offset, mu, 0.0),
                          distributions.DiscreteDist(offset, nu, 0.0))


def op_compound_poisson(inp):
    lam, sev = inp
    spec = compound.CompoundPoissonSpec(lam, distributions.make_dist(0, sev))
    return compound.geometric_bound_compound_poisson(spec)


def op_compound_geometric(inp):
    count, p = inp
    spec = compound.CompoundGeometricSpec(distributions.make_dist(0, count), p)
    return compound.geometric_bound_compound_geometric(spec)


def op_matroid(inp):
    cats, m = inp
    prof = matroids.profile_partition(matroids.PartitionMatroidSpec(cats))
    return matroids.matroid_binomial_bound(prof, m), matroids.matroid_poisson_bound(prof, m)


def op_iv(inp):
    shape, data, m = inp
    body = intrinsic_volumes.iv_box(data) if shape == "box" else intrinsic_volumes.iv_cube(*data)
    return intrinsic_volumes.poisson_iv_bound(body, m)


def op_gamma(inp):
    from tvbounds import continuous

    a, b = inp
    return continuous.gamma_tv_bound_anchored(continuous.GammaParams(*a), continuous.GammaParams(*b))


# ---------------------------------------------------------------------------
# classification of raw results (outside the timed region)
# ---------------------------------------------------------------------------


def _na_reason(report) -> str:
    return "not_applicable: " + str(report.details.get("not_applicable") or "no bound")


def _hypothesis_reason(report) -> str:
    return f"hypothesis: fails at {report.hypothesis.first_violation}"


def classify_library(kind: str, inp, raw) -> Outcome:
    if isinstance(raw, BaseException):
        if kind == "compound-geometric" and isinstance(raw, NotApplicableError) and "must be below 1" in str(raw):
            return Outcome("legit", "rho >= 1", [], _canon(kind, "legit", "rho >= 1", []))
        reason = type(raw).__name__
        return Outcome("fail", reason, [], _canon(kind, "fail", reason, []))
    claims, status, reason = [], "ok", ""
    if kind in ("pb-binomial", "pb-large", "exact-rational"):
        report, primary, secondary = raw
        ref = ("pb-exact", inp) if kind == "exact-rational" else ("pb-binomial", inp)
        claims.append(_report_claim(report, (primary, secondary) if _certified(report) else (), ref))
        if not _certified(report):
            status, reason = "fail", _na_reason(report)
    elif kind == "pb-poisson":
        report, bound = raw
        claims.append(_report_claim(report, (bound,) if _certified(report) else (), ("pb-poisson", inp)))
        if not _certified(report):
            status, reason = "fail", _na_reason(report)
    elif kind == "tilt":
        claims.append(_report_claim(raw, (), ("tilt", inp)))
        if not _certified(raw):
            status, reason = "fail", _na_reason(raw)
    elif kind == "compound-poisson":
        claims.append(_report_claim(raw, (raw.stated_bound,), ("compound-poisson", inp)))
        if not raw.hypothesis.holds or not raw.core_bounds():
            status, reason = "fail", "hypothesis_failed"
    elif kind == "compound-geometric":
        claims.append(_report_claim(raw, (raw.stated_bound,), ("compound-geometric", inp)))
        if not raw.hypothesis.holds:
            status, reason = "legit", "aggregate not log-concave relative to target"
    elif kind == "matroid":
        # partition matroids have ULC independent-set profiles
        for which, report in zip(("binomial", "poisson"), raw):
            claims.append(_report_claim(report, (), ("matroid-" + which, inp)))
            if not report.hypothesis.holds:
                status, reason = "fail", f"{which}: {_hypothesis_reason(report)}"
            elif not report.core_bounds():
                status, reason = "fail", f"{which}: no bound"
    elif kind in ("iv", "gamma"):
        # boxes and cubes are ULC of infinite order; Gamma pairs always qualify
        claims.append(_report_claim(raw, (), (kind, inp)))
        if not raw.hypothesis.holds:
            status, reason = "fail", _hypothesis_reason(raw)
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return Outcome(status, reason, claims, _canon(kind, status, reason, claims))


LIBRARY_OPS = {
    "pb-large": op_pb_binomial,
    "exact-rational": op_pb_binomial,
    "pb-binomial": op_pb_binomial,
    "pb-poisson": op_pb_poisson,
    "tilt": op_tilt,
    "compound-poisson": op_compound_poisson,
    "compound-geometric": op_compound_geometric,
    "matroid": op_matroid,
    "iv": op_iv,
    "gamma": op_gamma,
}


# ---------------------------------------------------------------------------
# CLI ops (cli-mix)
# ---------------------------------------------------------------------------

_BOUND_KEYS = ("bound_nu_side", "bound_mu_side", "simplified", "stated_bound", "bound", "bound_secondary")


def _floats(values) -> list:
    """Round-trip through the text the CLI parses, so references see the same inputs."""
    return [float(f"{v:.6f}") for v in values]


def _csv(values) -> str:
    return ",".join(f"{v:.6f}" for v in values)


def _partition_sets(cats) -> list:
    """Independent sets of a partition matroid, listed explicitly."""
    sets, base, blocks = [], 0, []
    for c, d in cats:
        blocks.append((list(range(base, base + c)), d))
        base += c
    for mask in range(1 << base):
        members = [i for i in range(base) if mask >> i & 1]
        if all(sum(1 for i in block if mask >> i & 1) <= d for block, d in blocks):
            sets.append(members)
    return sets


def gen_cli_ops(rng: random.Random, tmpdir: str) -> list:
    """One op per subcommand: (name, argv, expected exit code, reference)."""
    ops = []
    p = _floats(gen_pb_float(rng, CLI_PB_BINOMIAL_N))
    ops.append(("pb-binomial", ["pb-binomial", "--p", _csv(p)], 0, ("pb-binomial", tuple(p))))
    p = _floats(gen_pb_float(rng, rng.randint(10, 40)))
    ops.append(("pb-poisson", ["pb-poisson", "--p", _csv(p)], 0, ("pb-poisson", tuple(p))))

    pmfs = []
    for _ in range(rng.randint(2, 4)):
        alpha = rng.uniform(0.85, 0.95)
        pmfs.append({"offset": 0, "masses": [alpha, 1.0 - alpha], "tail_deficit": 0.0})
    path = os.path.join(tmpdir, "pmfs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pmfs, fh)
    ops.append(("sum-geometric", ["sum-geometric", "--pmfs", path], 0, None))

    cats, m = gen_partition(rng, rng.random(), top=7)
    path = os.path.join(tmpdir, "sets.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_partition_sets(cats), fh)
    ops.append(("matroid", ["matroid", "--sets", path, "--m", str(m)], 0, None))

    shape, data, m = gen_iv(rng, rng.random())
    sides = _floats(data if shape == "box" else (data[1],) * data[0])
    ops.append(("iv", ["iv", "--box", _csv(sides), "--m", str(m)], 0, None))

    lam, sev = gen_compound_poisson(rng, rng.random())
    # full precision: six decimals can break the severity's log-concavity in its tail
    ops.append(("compound", ["compound", "poisson", "--lambda", repr(lam), "--severity", ",".join(map(repr, sev))],
                0, None))

    a, b = gen_gamma(rng, rng.random())
    ops.append(("gamma", ["gamma", "--a", _csv(a), "--b", _csv(b)], 0, None))

    density = "builtin:expquad" if rng.random() < 0.5 else f"builtin:exp:{rng.uniform(0.5, 3.0):.6f}"
    ops.append(("expapprox", ["expapprox", "--density", density], 0, None))

    ops.append(("verify", ["verify", "--suite", "dominance", "--n", "20", "--seed", str(rng.randint(0, 10**6))], 0, None))
    return ops


def run_cli_subprocess(argv, root: str, env: dict):
    proc = subprocess.run([sys.executable, "-m", "tvbounds.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout.rstrip("\n") if proc.returncode != 1 else proc.stderr


def _claims_from_json(obj, ref) -> list:
    claims = []
    if isinstance(obj, dict):
        if obj.get("oracle_tv") is not None:
            found = [obj[k] for k in _BOUND_KEYS if isinstance(obj.get(k), float)]
            if found:
                claims.append(Claim(found, tuple(obj["oracle_tv"]), ref))
        for key in ("binomial", "poisson"):
            claims.extend(_claims_from_json(obj.get(key), None))
    return claims


def classify_cli(name: str, expected: int, ref, raw) -> Outcome:
    if isinstance(raw, BaseException):
        reason = type(raw).__name__
        return Outcome("fail", reason, [], f"{name}|fail|{reason}")
    code, text = raw
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    if code != expected:
        reason = f"exit {code} (expected {expected})"
        return Outcome("fail", reason, [], f"{name}|fail|{reason}|{digest}")
    try:
        data = json.loads(text)
    except ValueError:
        return Outcome("fail", "unparseable output", [], f"{name}|fail|unparseable|{digest}")
    status, reason = "ok", ""
    if name == "verify" and data.get("passes") != data.get("instances"):
        status, reason = "fail", "sweep dominance failures"
    return Outcome(status, reason, _claims_from_json(data, ref), f"{name}|{status}|{reason}|{digest}")


# ---------------------------------------------------------------------------
# workload pools
# ---------------------------------------------------------------------------

def build_pool(workload: str, seed: int, tmpdir: str | None = None) -> list:
    """The ops of one pass, in order; the same seed gives the same pool."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pb-large":
        return [Op("pb-large", gen_pb_float(rng, n)) for n in PB_LARGE_SIZES]
    if workload == "exact-rational":
        return [Op("exact-rational", gen_pb_exact(rng, n))
                for _ in range(EXACT_PER_SIZE) for n in EXACT_SIZES]
    if workload == "many-small":
        gens = {
            "tilt": gen_tilt, "pb-binomial": gen_pb_small, "pb-poisson": gen_pb_small,
            "compound-poisson": gen_compound_poisson, "compound-geometric": gen_compound_geometric,
            "matroid": gen_partition, "iv": gen_iv, "gamma": gen_gamma,
        }
        # sizes are stratified so that a pass costs about the same on every seed
        ops = [Op(kind, gens[kind](rng, (i + rng.random()) / count))
               for kind, count in MANY_SMALL_WEIGHTS.items() for i in range(count)]
        rng.shuffle(ops)
        return ops
    if workload == "cli-mix":
        return [Op("cli:" + op[0], op) for op in gen_cli_ops(rng, tmpdir)]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up_pool(workload: str) -> list:
    """Small ops of every kind a workload runs, executed once during set-up."""
    rng = random.Random(f"warm-up:{workload}")
    if workload == "pb-large":
        return [Op("pb-large", gen_pb_float(rng, 60))]
    if workload == "exact-rational":
        return [Op("exact-rational", gen_pb_exact(rng, 10))]
    if workload == "many-small":
        return [
            Op("tilt", gen_tilt(rng, 0.5)), Op("pb-binomial", gen_pb_float(rng, 10)),
            Op("pb-poisson", gen_pb_float(rng, 10)), Op("compound-poisson", gen_compound_poisson(rng, 0.5)),
            Op("compound-geometric", gen_compound_geometric(rng, 0.5)), Op("matroid", gen_partition(rng, 0.5)),
            Op("iv", gen_iv(rng, 0.5)), Op("gamma", gen_gamma(rng, 0.5)),
        ]
    return []
