"""Randomized verification sweeps: every computed bound must dominate the
exact oracle distance on every generated instance.

Targets are generated as ``nu = e^{-V} mu`` with a random convex ``V`` on the
reference's window, which is exactly the class of instances the envelope
bounds certify.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .bounds import DOMINANCE_SLACK, certify
from .distributions import DiscreteDist, tv_distance
from .errors import BoundNotApplicable
from .matroids import (
    PartitionMatroidSpec,
    enumerate_partition_profile,
    mason_check,
    matroid_binomial_bound,
    matroid_poisson_bound,
    profile_partition,
)
from .sums import (
    BernoulliVector,
    binomial_bound_primary,
    binomial_target,
    poisson_binomial_pmf,
    poisson_bound,
    poisson_target,
)


@dataclass(frozen=True)
class SweepReport:
    """Aggregate outcome of a randomized dominance sweep."""

    instances: int
    passes: int
    worst_slack: float | None
    failures: tuple = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "instances": self.instances,
            "passes": self.passes,
            "worst_slack": self.worst_slack,
            "dominance_failures": list(self.failures),
        }


def random_envelope_instance(rng: random.Random, max_window: int = 60) -> tuple[DiscreteDist, DiscreteDist]:
    """A random reference on a window plus a random log-concave tilt of it."""
    length = rng.randint(2, max_window)
    offset = rng.randint(-10, 10)
    mu_raw = [rng.uniform(0.05, 1.0) for _ in range(length)]
    total = math.fsum(mu_raw)
    mu = DiscreteDist(offset, tuple(m / total for m in mu_raw), 0.0)

    v = [0.0] * length
    slope = rng.uniform(-2.0, 2.0)
    for i in range(1, length):
        v[i] = v[i - 1] + slope
        slope += rng.uniform(0.0, 0.3)  # nonnegative second difference: convex
    v_min = min(v)
    nu_raw = [m * math.exp(-(vi - v_min)) for m, vi in zip(mu.masses, v)]
    total = math.fsum(nu_raw)
    nu = DiscreteDist(offset, tuple(m / total for m in nu_raw), 0.0)
    return mu, nu


def run_dominance_sweep(n: int, seed: int, max_window: int = 60) -> SweepReport:
    """Envelope bounds versus exact TV on random tilted instances."""
    rng = random.Random(seed)
    passes = 0
    worst = None
    failures = []
    for idx in range(n):
        mu, nu = random_envelope_instance(rng, max_window)
        report = certify(mu, nu)
        bounds = report.core_bounds()
        if not bounds:
            slack = math.inf  # nothing to dominate with; count as failure
        else:
            slack = min(bounds) - float(report.oracle_tv.hi)
        if bounds and slack >= -DOMINANCE_SLACK:
            passes += 1
        else:
            failures.append({"index": idx, "mu": mu.to_json(), "nu": nu.to_json(),
                             "slack": None if not bounds else slack})
        if worst is None or (slack is not None and slack < worst):
            worst = slack
    return SweepReport(n, passes, worst, tuple(failures))


def run_sums_sweep(n: int, seed: int, max_terms: int = 30) -> SweepReport:
    """Binomial and Poisson bounds versus exact TV on random Bernoulli vectors."""
    rng = random.Random(seed)
    passes = 0
    worst = None
    failures = []
    for idx in range(n):
        k = rng.randint(1, max_terms)
        bv = BernoulliVector(tuple(rng.uniform(0.0, 0.5) for _ in range(k)))
        s = poisson_binomial_pmf(bv)
        tv_b = tv_distance(binomial_target(bv), s)
        tv_p = tv_distance(poisson_target(bv), s)
        slack = min(
            float(binomial_bound_primary(bv)) - float(tv_b.hi),
            poisson_bound(bv) - float(tv_p.hi),
        )
        if slack >= -DOMINANCE_SLACK:
            passes += 1
        else:
            failures.append({"index": idx, "p": list(bv.p), "slack": slack})
        if worst is None or slack < worst:
            worst = slack
    return SweepReport(n, passes, worst, tuple(failures))


def random_partition_spec(rng: random.Random, max_ground: int = 12) -> PartitionMatroidSpec:
    cats = []
    left = rng.randint(2, max_ground)
    while left > 0:
        c = rng.randint(1, min(4, left))
        cats.append((c, rng.randint(0, c)))
        left -= c
    if all(d == 0 for _, d in cats):
        c, _ = cats[0]
        cats[0] = (c, 1)
    return PartitionMatroidSpec(tuple(cats))


def run_matroid_sweep(n: int, seed: int, max_ground: int = 12) -> SweepReport:
    """Profile cross-validation, Mason inequality, and both approximation
    bounds on random partition matroids."""
    rng = random.Random(seed)
    passes = 0
    worst = None
    failures = []
    for idx in range(n):
        spec = random_partition_spec(rng, max_ground)
        prof = profile_partition(spec)
        fail = None
        slack = math.inf
        if prof.counts != enumerate_partition_profile(spec).counts:
            fail = "profile mismatch"
        elif not mason_check(prof).holds:
            fail = "mason violation"
        else:
            for m in range(1, prof.rank):
                try:
                    for rep in (matroid_binomial_bound(prof, m), matroid_poisson_bound(prof, m)):
                        s = min(rep.core_bounds()) - float(rep.oracle_tv.hi)
                        slack = min(slack, s)
                        if s < -DOMINANCE_SLACK:
                            fail = f"dominance failure at m={m}"
                except BoundNotApplicable:
                    continue
        if fail is None:
            passes += 1
        else:
            failures.append({"index": idx, "categories": list(spec.categories), "reason": fail})
        if slack < (math.inf if worst is None else worst):
            worst = slack
    return SweepReport(n, passes, None if worst == math.inf else worst, tuple(failures))


SUITES = {
    "dominance": run_dominance_sweep,
    "sums": run_sums_sweep,
    "matroids": run_matroid_sweep,
}
