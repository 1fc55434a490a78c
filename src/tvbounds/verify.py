"""Randomized verification sweeps: every computed bound must dominate the
exact oracle distance on every generated instance.  Each verdict is
``bounds.dominance_verdict``, the one the reports carry; ``worst_slack``, the
smallest bound minus the oracle TV, is reported beside it.

Targets are generated as ``nu = e^{-V} mu`` with a random convex ``V`` on the
reference's window, which is exactly the class of instances the envelope
bounds certify.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

from .bounds import certify, dominance_verdict
from .distributions import DiscreteDist
from .errors import BoundNotApplicable

if TYPE_CHECKING:
    from .matroids import PartitionMatroidSpec


class SweepReport:
    """Aggregate outcome of a randomized dominance sweep."""

    __slots__ = ("instances", "passes", "worst_slack", "failures")

    def __init__(self, instances: int, passes: int, worst_slack: float | None, failures: tuple = ()):
        self.instances, self.passes, self.worst_slack, self.failures = instances, passes, worst_slack, failures

    def to_json(self) -> dict:
        return {
            "instances": self.instances,
            "passes": self.passes,
            "worst_slack": self.worst_slack,
            "dominance_failures": list(self.failures),
        }


def _sweep(n: int, seed: int, instance) -> SweepReport:
    """``n`` calls of ``instance(rng)`` on one generator seeded with ``seed``,
    each returning its slack, the smallest bound minus the oracle TV (``inf``
    when no bound was compared), and a failure record or None.  The
    ``worst_slack`` is the smallest finite slack, or None."""
    rng = random.Random(seed)
    slacks, failures = [], []
    for idx in range(n):
        slack, failure = instance(rng)
        slacks.append(slack)
        if failure is not None:
            failures.append({"index": idx, **failure})
    worst = min((s for s in slacks if math.isfinite(s)), default=None)
    return SweepReport(n, n - len(failures), worst, tuple(failures))


def random_envelope_instance(rng: random.Random, max_window: int) -> tuple[DiscreteDist, DiscreteDist]:
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


def _dominance_instance(rng: random.Random):
    mu, nu = random_envelope_instance(rng, 60)
    report = certify(mu, nu)
    bounds = report.core_bounds()
    # with no bound there is nothing to dominate with: a failure
    slack = min(bounds) - float(report.oracle_tv.hi) if bounds else math.inf
    if report.dominated:
        return slack, None
    return slack, {"mu": mu.to_json(), "nu": nu.to_json(), "slack": slack if bounds else None}


def run_dominance_sweep(n: int, seed: int) -> SweepReport:
    """Envelope bounds versus exact TV on random tilted instances."""
    return _sweep(n, seed, _dominance_instance)


def _sums_instance(rng: random.Random):
    from .sums import BernoulliVector, binomial_report, poisson_report

    bv = BernoulliVector(tuple(rng.uniform(0.0, 0.5) for _ in range(rng.randint(1, 30))))
    # each report's closed form against its oracle TV, the sum that tv_distance also takes
    pairs = [(r.oracle_tv, r.stated_bound) for r in (binomial_report(bv), poisson_report(bv))]
    slack = min(bound - float(tv.hi) for tv, bound in pairs)
    dominated = all(dominance_verdict(tv, bound) for tv, bound in pairs)
    return slack, None if dominated else {"p": list(bv.p), "slack": slack}


def run_sums_sweep(n: int, seed: int) -> SweepReport:
    """Binomial and Poisson bounds versus exact TV on random Bernoulli vectors."""
    return _sweep(n, seed, _sums_instance)


def random_partition_spec(rng: random.Random) -> PartitionMatroidSpec:
    from .matroids import PartitionMatroidSpec

    cats = []
    left = rng.randint(2, 12)
    while left > 0:
        c = rng.randint(1, min(4, left))
        cats.append((c, rng.randint(0, c)))
        left -= c
    if all(d == 0 for _, d in cats):
        c, _ = cats[0]
        cats[0] = (c, 1)
    return PartitionMatroidSpec(tuple(cats))


def _matroid_instance(rng: random.Random):
    from .matroids import (enumerate_partition_profile, mason_check, matroid_binomial_bound, matroid_poisson_bound,
                           profile_partition)

    spec = random_partition_spec(rng)
    prof = profile_partition(spec)
    fail, slack = None, math.inf
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
                    if not rep.dominated:
                        fail = f"dominance failure at m={m}"
            except BoundNotApplicable:
                continue
    return slack, None if fail is None else {"categories": list(spec.categories), "reason": fail}


def run_matroid_sweep(n: int, seed: int) -> SweepReport:
    """Profile cross-validation, Mason inequality, and both approximation
    bounds on random partition matroids."""
    return _sweep(n, seed, _matroid_instance)


SUITES = {
    "dominance": run_dominance_sweep,
    "sums": run_sums_sweep,
    "matroids": run_matroid_sweep,
}
