"""Compound Poisson and compound geometric laws: exact mass functions via
recursion / convolution powers, log-concavity criteria, and geometric
approximation.

Parameterization conventions (they differ, deliberately):

* Geometric *targets* built from a probability ratio ``rho < 1`` use
  ``mu[k] = (1 - rho) rho^k`` so that ``mu[k+1]/mu[k] = rho`` exactly; this is
  the only reading under which the target's mass ratio matches the compound
  law's at the anchor.
* Geometric *summands* of a compound geometric law use
  ``P[xi = j] = (1 - p) p^j`` (success mass ``1 - p``), the convention that
  reproduces the closed atom identities ``P[X=0] = sum_k F_k (1-p)^k`` and
  ``P[X=1] = sum_k k F_k p (1-p)^k``.
"""

from __future__ import annotations

import math

from .bounds import BoundReport, certify, clamp01
from .distributions import (
    DEFAULT_TAIL_BUDGET,
    DiscreteDist,
    LogConcavityCertificate,
    _geometric_law,
    _three_term,
    convolve,
    family_geometric,
    is_log_concave,
)
from .errors import HypothesisError, InvalidDistributionError, NotApplicableError


class CompoundPoissonSpec:
    """Random sum of ``N ~ Poisson(lam)`` i.i.d. summands with mass function
    ``severity`` on the non-negative integers."""

    __slots__ = ("lam", "severity")

    def __init__(self, lam: float, severity: DiscreteDist):
        if not lam > 0:
            raise InvalidDistributionError("rate must be positive")
        if severity.offset != 0:
            raise InvalidDistributionError("severity must be supported on 0..")
        self.lam, self.severity = lam, severity


class CompoundGeometricSpec:
    """Random sum of ``N ~ count_dist`` i.i.d. geometric summands with
    ``P[xi = j] = (1 - p) p^j``."""

    __slots__ = ("count_dist", "p")

    def __init__(self, count_dist: DiscreteDist, p: float):
        if not 0 < p < 1:
            raise InvalidDistributionError("summand parameter p must lie in (0, 1)")
        if count_dist.offset != 0:
            raise InvalidDistributionError("count distribution must be supported on 0..")
        self.count_dist, self.p = count_dist, p


def compound_poisson_pmf(spec: CompoundPoissonSpec) -> DiscreteDist:
    """Aggregate mass function by the Panjer-class recursion:
    ``P[X=0] = exp(-lam (1 - F_0))``,
    ``P[X=k] = (lam / k) sum_{j=1..k} j F_j P[X=k-j]``."""
    lam, f = spec.lam, spec.severity
    f0 = float(f.mass(0))
    p0 = math.exp(-lam * (1.0 - f0))
    if not p0:
        raise NotApplicableError(f"P[X=0] = exp(-{lam * (1.0 - f0):.6g}) underflows")
    masses = [p0]
    cum = p0
    jmax = len(f.masses) - 1
    mean_sev = sum(k * float(f.mass(k)) for k in range(jmax + 1))
    cap = int(20 * (lam * max(mean_sev, 1.0) + 10)) + len(f.masses)
    k = 0
    while 1.0 - cum > DEFAULT_TAIL_BUDGET and k < cap:
        k += 1
        acc = 0.0
        for j in range(1, min(k, jmax) + 1):
            fj = float(f.mass(j))
            if fj:
                acc += j * fj * masses[k - j]
        masses.append(lam / k * acc)
        cum += masses[-1]
    return DiscreteDist(0, tuple(masses), max(1.0 - cum, 0.0))


def log_concave_criterion(spec: CompoundPoissonSpec) -> LogConcavityCertificate:
    """The aggregate law is log-concave iff ``lam F_1^2 >= 2 F_2`` (given the
    severity itself is log-concave with support in the non-negative integers).

    That is the aggregate's three-term inequality at 1: over ``P[X=0]`` its
    first cells are ``1``, ``lam F_1`` and ``lam (lam F_1^2 + 2 F_2) / 2``,
    which ``_three_term`` compares in floats; with ``F_1 = 0`` the third is 1
    if the severity has mass above 1, a gap at 1.  A severity that is not
    log-concave raises a distinct error instead of a criterion outcome.
    """
    f = spec.severity
    cert = is_log_concave(f)
    if not cert.holds:
        raise HypothesisError("severity mass function is not log-concave",
                              {"certificate": cert.to_json()})
    lam, f1, f2 = spec.lam, float(f.mass(1)), float(f.mass(2))
    return _three_term((1.0, lam * f1, lam * (lam * f1 * f1 / 2 + f2) if f1 else float(f.support_max > 1)))


def _matched_report(nu: DiscreteDist, rho: float, stated: float, details: dict) -> BoundReport:
    """``certify``'s report at anchor 0 against the geometric target of mass
    ratio ``rho``, ``mu[k] = (1 - rho) rho^k``, with the carried closed form
    ``stated``, raw and clamped (``details["stated_bound_clamped"]``).

    Its certificate is the aggregate law's relative to the target, so the
    envelope bounds are reported only when that holds, and the report is
    not applicable when it fails; the raw anchor-atom arithmetic
    ``min(nu_0/mu_0 - 1, 1 - mu_0/nu_0)`` is always carried in ``details``
    (it can be negative when the certificate fails).
    """
    target = _geometric_law(1.0 - rho, rho, DEFAULT_TAIL_BUDGET, len(nu.masses))
    n0, m0 = float(nu.mass(0)), float(target.mass(0))
    details = dict(details, stated_bound_clamped=float(clamp01(stated)),
                   matched_atom_bound_raw=min(n0 / m0 - 1.0, 1.0 - m0 / n0))
    return certify(target, nu, 0, stated_bound=stated, details=details)


def geometric_bound_compound_poisson(spec: CompoundPoissonSpec) -> BoundReport:
    """Geometric approximation of a log-concave compound Poisson law.

    The target has mass ratio ``lam F_1`` (valid when below one) and matches
    the aggregate ratio ``P[X=1]/P[X=0]`` exactly.  The report carries the
    closed form ``e^{lam (1 - F_0)} - 1`` (``stated_bound``, raw) and its
    sharper companion ``e^{lam (1 - F_0)} (1 - lam F_1) - 1`` in ``details``;
    dominance is asserted for the directly recomputed anchor bounds only.
    """
    cert = log_concave_criterion(spec)
    if not cert.holds:
        raise HypothesisError("aggregate law fails the log-concavity criterion lam F_1^2 >= 2 F_2")
    lam, f = spec.lam, spec.severity
    ratio = lam * float(f.mass(1))
    if ratio >= 1:
        raise NotApplicableError(f"lam F_1 = {ratio:.6g} must be below 1")
    stated = math.expm1(lam * (1.0 - float(f.mass(0))))
    details = {"theta": 1.0 - ratio, "proof_form_bound": math.exp(lam * (1.0 - float(f.mass(0)))) * (1.0 - ratio) - 1.0}
    return _matched_report(compound_poisson_pmf(spec), ratio, stated, details)


def compound_geometric_pmf(spec: CompoundGeometricSpec) -> DiscreteDist:
    """Aggregate mass function ``sum_k F_k * (k-fold convolution of the
    geometric summand)``, truncated where the aggregate tail is below budget.

    Only cells inside the single-summand truncation window are kept: every
    composition of such a cell stays inside the window, so those cells carry
    full relative accuracy and the reported window is trustworthy for
    certificates.  The atoms satisfy the closed identities ``P[X=0] = sum_k
    F_k (1-p)^k`` and ``P[X=1] = sum_k k F_k p (1-p)^k``.
    """
    f, p = spec.count_dist, spec.p
    kmax = f.support_max
    q = 1.0 - p
    if kmax == 0:
        return DiscreteDist(0, (1.0,), 0.0)
    sub_budget = DEFAULT_TAIL_BUDGET * 1e-4 / kmax
    for _ in range(6):
        # summand masses (1-p) p^j are a geometric law with success mass 1-p
        summand = family_geometric(q, sub_budget)
        j_exact = len(summand.masses) - 1
        out = [0.0] * (kmax * j_exact + 1)
        out[0] += float(f.mass(0))
        power = None
        for k in range(1, kmax + 1):
            power = summand if power is None else convolve(power, summand)
            fk = float(f.mass(k))
            if fk:
                for i, m in enumerate(power.masses):
                    out[i] += fk * m
        kept = out[: j_exact + 1]
        deficit = 1.0 - math.fsum(kept)
        if deficit <= DEFAULT_TAIL_BUDGET:
            return DiscreteDist(0, tuple(kept), max(deficit, 0.0))
        sub_budget *= 1e-3
    raise InvalidDistributionError("could not reach the tail budget")


def geometric_bound_compound_geometric(spec: CompoundGeometricSpec) -> BoundReport:
    """Geometric approximation of a compound geometric law with log-concave
    count distribution.

    The carried closed form is ``(1/F_1) (1 + (1-F_1)/(p(1-p)))^2 - 1``.

    Preconditions, in the order they are checked:

    1. ``F_1 > 0``, else ``NotApplicableError``. The closed form divides by
       ``F_1``; a zero there is also what makes a count with ``F_0 > 0`` and
       mass beyond 1 fail log-concavity, so it is reported as the root cause.
    2. The count law is log-concave, else ``HypothesisError`` carrying the
       certificate.
    3. The target's mass ratio ``rho = P[X=1]/P[X=0]`` is below one, else
       ``NotApplicableError``.
    """
    f, p = spec.count_dist, spec.p
    f1 = float(f.mass(1))
    if f1 <= 0:
        raise NotApplicableError("closed-form bound needs F_1 > 0")
    cert = is_log_concave(f)
    if not cert.holds:
        raise HypothesisError("count distribution is not log-concave",
                              {"certificate": cert.to_json()})
    nu = compound_geometric_pmf(spec)
    rho = float(nu.mass(1)) / float(nu.mass(0))
    if rho >= 1:
        raise NotApplicableError(f"P[X=1]/P[X=0] = {rho:.6g} must be below 1")
    base = 1.0 + (1.0 - f1) / (p * (1.0 - p))  # from 1e154 on the bound is inf and ``** 2`` would raise
    stated = (1.0 / f1) * base ** 2 - 1.0 if base < 1e154 else math.inf
    return _matched_report(nu, rho, stated, {"rho": rho})
