"""Total-variation bounds from a single anchored mass-ratio comparison.

When ``nu`` is log-concave relative to ``mu`` (and ``mu`` has interval
support), the log mass ratio ``log(nu_k / mu_k)`` is concave, so it lies below
its chord through any anchor pair ``ell, ell+1`` with positive target mass.
Integrating that tangent-line envelope against either measure yields two
upper bounds on the total variation distance:

    B_nu = sum_y (1 - (p_ell/q_ell) * r^(y-ell))_+  nu_y
    B_mu = sum_y ((q_ell/p_ell) * r^-(y-ell) - 1)_+ mu_y

with ``p = mu``, ``q = nu`` and ``r = p_{ell+1} q_ell / (p_ell q_{ell+1})``
(the signed exponent is what the concavity argument yields; it is exact for
log-linear ratio profiles at any anchor).  If the anchor is *ratio matched*
(``p_ell/p_{ell+1} = q_ell/q_{ell+1}``, so ``r = 1``) both collapse to closed
forms in the two anchor masses alone.

At a ratio-matched anchor ``q_ell >= p_ell`` necessarily holds and the
simplified bound equals ``1 - p_ell/q_ell``, the smaller of the two terms.

Every discrete report, from ``certify`` and from the application modules, is
built by ``anchored_report``: the oracle TV, the anchor record and the bounds
are computed there and nowhere else, and every report derives its dominance
verdict from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .distributions import (
    DiscreteDist,
    Interval,
    LogConcavityCertificate,
    _aligned,
    _kernel_cells,
    _support_interval,
    _union_window,
    is_log_concave_relative,
    tv_distance,
)
from .errors import (
    AbsoluteContinuityError,
    HypothesisError,
    InvalidAnchorError,
)

#: an anchor counts as ratio matched when the normalized cross-product gap
#: |p_{l+1} q_l - q_{l+1} p_l| / max(...) falls below this
ANCHOR_MATCH_TOL = 1e-12

#: slack used both by the randomized sweeps and by dominance verdicts; absorbs
#: truncation deficits on the oracle side of exact-equality instances
DOMINANCE_SLACK = 1e-10


def dominance_verdict(tv: "Interval | None", *bounds) -> bool | None:
    """``oracle.hi <= min(bounds) + slack``; ``None`` without oracle or bounds."""
    if tv is None:
        return None
    cands = [float(b) for b in bounds if b is not None]
    if not cands:
        return None
    return bool(float(tv.hi) <= min(cands) + DOMINANCE_SLACK)


@dataclass(frozen=True)
class Anchor:
    """An index at which consecutive-mass ratios of target and reference are
    compared; ``ratio_gap`` is the normalized cross-product mismatch."""

    ell: int
    ratio_matched: bool
    ratio_gap: float

    def to_json(self) -> dict:
        return {"ell": self.ell, "ratio_matched": self.ratio_matched, "ratio_gap": float(self.ratio_gap)}


@dataclass(frozen=True)
class BoundReport:
    """A computed bound with its certification context.

    Every discrete report comes from ``anchored_report``.
    ``bound_nu_side``/``bound_mu_side`` are the two envelope sums, or the
    caller's closed-form pair (clamped to [0, 1]), ``simplified`` the
    ratio-matched closed form when available, ``stated_bound`` an unclamped
    corollary-style closed form carried verbatim by the application modules.
    ``dominated`` is derived, not stored: the verdict
    ``oracle_tv.hi <= min(core bounds) + 1e-10`` when an oracle was computed
    (the slack absorbs truncation deficits on exact-equality instances).
    """

    bound_nu_side: float | None
    bound_mu_side: float | None
    simplified: float | None
    anchor: Anchor | None
    hypothesis: LogConcavityCertificate
    oracle_tv: Interval | None
    stated_bound: float | None = None
    details: Mapping[str, object] = field(default_factory=dict)

    def core_bounds(self) -> list[float]:
        return [float(b) for b in (self.bound_nu_side, self.bound_mu_side, self.simplified) if b is not None]

    @property
    def dominated(self) -> bool | None:
        return dominance_verdict(self.oracle_tv, *self.core_bounds())

    def to_json(self) -> dict:
        return {
            "bound_nu_side": None if self.bound_nu_side is None else float(self.bound_nu_side),
            "bound_mu_side": None if self.bound_mu_side is None else float(self.bound_mu_side),
            "simplified": None if self.simplified is None else float(self.simplified),
            "anchor": None if self.anchor is None else self.anchor.to_json(),
            "hypothesis": self.hypothesis.to_json(),
            "oracle_tv": None if self.oracle_tv is None else self.oracle_tv.to_json(),
            "dominated": self.dominated,
            "stated_bound": None if self.stated_bound is None else float(self.stated_bound),
            "details": dict(self.details),
        }


def clamp01(x):
    """TV-type bounds are reported clamped to [0, 1]."""
    if isinstance(x, Fraction):
        return min(max(x, Fraction(0)), Fraction(1))
    return min(max(float(x), 0.0), 1.0)


def _safe_exp(e: float) -> float:
    if e > 709.0:
        return math.inf
    return math.exp(e)


def _reduced(n: int, d: int) -> tuple[int, int]:
    g = math.gcd(n, d)
    return n // g, d // g


def _hypothesis(mu: DiscreteDist, nu: DiscreteDist) -> tuple[LogConcavityCertificate, HypothesisError | None]:
    """The certificate of ``nu`` against ``mu``, and the error saying why the
    envelope bounds do not apply (returned, not raised) or ``None``."""
    try:
        cert = is_log_concave_relative(nu, mu)
    except AbsoluteContinuityError as e:
        # without its traceback, whose frames would hold it in a reference cycle
        return LogConcavityCertificate(False, e.details["index"], True), e.with_traceback(None)
    if not cert.holds:
        return cert, HypothesisError("target is not log-concave relative to the reference",
                                     {"certificate": cert.to_json()})
    ok, gap, _, _ = _support_interval(mu.masses, mu.offset)
    if not ok:
        return (LogConcavityCertificate(False, gap, False),
                HypothesisError("reference support is not a contiguous interval", {"gap_at": gap}))
    return cert, None


def _check_hypothesis(mu: DiscreteDist, nu: DiscreteDist) -> LogConcavityCertificate:
    cert, error = _hypothesis(mu, nu)
    if error is not None:
        raise error
    return cert


def _positive_at(d: DiscreteDist, ell: int) -> bool:
    return d.mass(ell) > 0 and d.mass(ell + 1) > 0


def _check_anchor(d: DiscreteDist, ell: int, role: str = "target"):
    if not _positive_at(d, ell):
        raise InvalidAnchorError(f"anchor {ell} needs positive {role} mass at {ell} and {ell + 1}")


def _envelope_sum(cells, den: int, a: tuple[int, int], r: tuple[int, int], sign: int) -> Fraction:
    """``sum_i (sign (1 - a r^i))_+ cells[i] / den`` for positive ``a = an/ad``
    and ``r = rn/rd``, as one ``Fraction``.

    Each sign test compares ``an rn^i`` with ``ad rd^i``, kept as incremental
    integer powers; the kept cells ``c_i`` give ``sum c_i - a sum c_i r^i``,
    whose polynomial in ``r`` is accumulated by Horner's rule over one power
    of ``rd``.
    """
    (an, ad), (rn, rd) = a, r
    kept = []
    for c in cells:
        kept.append(c if c and sign * (ad - an) > 0 else 0)
        an, ad = an * rn, ad * rd
    hn, hd = 0, 1
    for c in reversed(kept):
        hd *= rd
        hn = hn * rn + c * hd
    an, ad = a
    return Fraction(sign * (sum(kept) * ad * hd - an * hn), ad * hd * den)


def tv_bounds_at_anchor(mu: DiscreteDist, nu: DiscreteDist, ell: int, *, check: bool = True):
    """The two envelope bounds ``(B_nu, B_mu)`` at anchor ``ell``, clamped to [0, 1].

    Exact rational inputs are evaluated exactly on their integer numerators
    (``_envelope_sum``), with ``r`` and ``p_ell/q_ell`` each reduced by one
    gcd; float inputs in log space (the ratio power is
    ``exp((y-ell) log r)``) with saturation instead of overflow, which is
    harmless because the sums are clamped at 1.
    """
    if check:
        _check_hypothesis(mu, nu)
    _check_anchor(nu, ell)
    _check_anchor(mu, ell, "reference")

    if mu.is_exact and nu.is_exact:
        (p, d_mu), (q, d_nu) = mu.integer_masses, nu.integer_masses
        i, j = ell - mu.offset, ell - nu.offset
        r = _reduced(p[i + 1] * q[j], p[i] * q[j + 1])
        ratio = _reduced(p[i] * d_nu, q[j] * d_mu)
        # a = ratio * r^(offset - ell) puts each window's first cell at power 0
        b_nu = _envelope_sum(q, d_nu, (ratio[0] * r[1] ** j, ratio[1] * r[0] ** j), r, 1)
        b_mu = _envelope_sum(p, d_mu, (ratio[1] * r[0] ** i, ratio[0] * r[1] ** i), r[::-1], -1)
        return clamp01(b_nu), clamp01(b_mu)

    ql, ql1 = nu.mass(ell), nu.mass(ell + 1)
    pl, pl1 = mu.mass(ell), mu.mass(ell + 1)
    log_ratio = math.log(float(pl)) - math.log(float(ql))
    log_r = (math.log(float(pl1)) + math.log(float(ql))) - (math.log(float(pl)) + math.log(float(ql1)))
    b_nu = 0.0
    for i, q in enumerate(nu.masses):
        if q <= 0:
            continue
        y = nu.offset + i
        term = 1.0 - _safe_exp(log_ratio + (y - ell) * log_r)
        if term > 0:
            b_nu += term * float(q)
    b_mu = 0.0
    for i, p in enumerate(mu.masses):
        if p <= 0:
            continue
        y = mu.offset + i
        term = _safe_exp(-log_ratio - (y - ell) * log_r) - 1.0
        if term > 0:
            b_mu += term * float(p)
            if b_mu > 1.0:
                break
    return clamp01(b_nu), clamp01(b_mu)


def _anchor_gaps(mu: DiscreteDist, nu: DiscreteDist, ells) -> list[tuple[int, float, float, bool | None]]:
    """Per anchor ``ell``: ``(ell, diff, gap, matched)`` for the cross
    products ``lhs = p_{l+1} q_l`` and ``rhs = q_{l+1} p_l``, whose equality is
    the ratio-match condition.

    ``diff = lhs - rhs`` and the normalized gap ``|lhs - rhs| / max(lhs, rhs)``
    are floats; ``matched`` says whether ``lhs == rhs != 0`` exactly, or is
    ``None`` for float laws.  Exact laws multiply their integer numerators, so
    both products carry the positive factor ``d_mu d_nu``; each float is one
    correctly rounded int division by it, the same division
    ``Fraction.__float__`` performs.
    """
    exact = mu.is_exact and nu.is_exact
    window = _union_window(mu, nu)
    p, q = _aligned(mu, window, exact), _aligned(nu, window, exact)
    den = _kernel_cells(mu, exact)[1] * _kernel_cells(nu, exact)[1]
    out = []
    for ell in ells:
        i = ell - window.start
        lhs, rhs = p[i + 1] * q[i], q[i + 1] * p[i]
        fl, fr = float(lhs / den), float(rhs / den)
        scale = max(fl, fr)
        gap = math.inf if scale == 0 else abs(fl - fr) / scale
        out.append((ell, fl - fr, gap, lhs == rhs != 0 if exact else None))  # both vanish when the reference does
    return out


def anchor_at(mu: DiscreteDist, nu: DiscreteDist, ell: int) -> Anchor:
    """Build the anchor record at a specific index.

    Only the target's cells are checked; a reference without mass at both
    anchor cells gives an infinite gap.
    """
    _check_anchor(nu, ell)
    [(_, _, gap, matched)] = _anchor_gaps(mu, nu, [ell])
    return Anchor(ell, gap <= ANCHOR_MATCH_TOL if matched is None else matched, gap)


def tv_bound_matched_anchor(mu: DiscreteDist, nu: DiscreteDist, ell: int, *, check: bool = True):
    """Closed-form bound ``min(q_l/p_l - 1, 1 - p_l/q_l)`` at a ratio-matched anchor.

    Asserts ``q_l >= p_l`` (which any ratio-matched anchor of a valid instance
    satisfies; the opposite orientation would make both terms negative).
    """
    if check:
        _check_hypothesis(mu, nu)
    anc = anchor_at(mu, nu, ell)
    if not anc.ratio_matched:
        raise InvalidAnchorError(
            f"anchor {ell} is not ratio matched (normalized gap {anc.ratio_gap:.3e})"
        )
    ql, pl = nu.mass(ell), mu.mass(ell)
    if mu.is_exact and nu.is_exact:
        if ql < pl:
            raise InvalidAnchorError("matched anchor with target mass below reference mass")
        return clamp01(min(Fraction(ql) / Fraction(pl) - 1, 1 - Fraction(pl) / Fraction(ql)))
    ql, pl = float(ql), float(pl)
    if ql < pl * (1.0 - 1e-9):
        raise InvalidAnchorError("matched anchor with target mass below reference mass")
    return clamp01(min(ql / pl - 1.0, 1.0 - pl / ql))


def _candidate_anchors(mu: DiscreteDist, nu: DiscreteDist):
    """All valid anchors (both target cells positive) with their gap data."""
    ells = [ell for ell in range(nu.support_min, nu.support_max) if _positive_at(nu, ell)]
    return [(ell, diff, gap) for ell, diff, gap, _ in _anchor_gaps(mu, nu, ells)]


def find_ratio_anchor(mu: DiscreteDist, nu: DiscreteDist) -> Anchor | None:
    """Scan consecutive support pairs for a ratio-matched anchor.

    Returns the anchor with the smallest normalized gap among matched indices
    (ties broken by smaller index), or the nearest-to-crossing anchor when the
    cross-product difference changes sign without vanishing, or ``None`` when
    neither happens (e.g. two distinct geometric laws, whose ratios never
    meet).
    """
    cands = _candidate_anchors(mu, nu)
    if not cands:
        return None
    matched = [(gap, ell) for ell, _, gap in cands if gap <= ANCHOR_MATCH_TOL]
    if matched:
        gap, ell = min(matched)
        return Anchor(ell, True, gap)
    signs = [d for _, d, _ in cands]
    if any(a > 0 > b or a < 0 < b for a, b in zip(signs, signs[1:])):
        gap, ell = min((gap, ell) for ell, _, gap in cands)
        return Anchor(ell, False, gap)
    return None


def _best_effort_anchor(mu: DiscreteDist, nu: DiscreteDist) -> Anchor | None:
    """Smallest-gap valid anchor even without a crossing; any valid index
    yields a correct (possibly weak) bound."""
    found = find_ratio_anchor(mu, nu)
    if found is not None:
        return found
    cands = _candidate_anchors(mu, nu)
    if not cands:
        return None
    gap, ell = min((gap, ell) for ell, _, gap in cands)
    return Anchor(ell, gap <= ANCHOR_MATCH_TOL, gap)


def anchored_report(
    mu: DiscreteDist,
    nu: DiscreteDist,
    ell: int,
    hypothesis: LogConcavityCertificate,
    *,
    closed_forms=None,
    stated_bound: float | None = None,
    details: Mapping[str, object] = {},
) -> BoundReport:
    """The report for target ``nu`` against reference ``mu`` at anchor ``ell``.

    The bounds are the caller's ``closed_forms`` pair ``(nu side, mu side)``,
    clamped, when given. Without one they are 0 when the oracle TV is exactly
    0, and otherwise the two envelope sums, plus the matched closed form at a
    ratio-matched anchor, when ``hypothesis`` holds and both laws have mass at
    ``ell`` and ``ell+1``. A target without mass at both anchor cells has no
    anchor record; ``details["anchor_outside_target_support"]`` names ``ell``.
    """
    tv = tv_distance(mu, nu)
    details = dict(details)
    anchor = simplified = b_nu = b_mu = None
    if _positive_at(nu, ell):
        anchor = anchor_at(mu, nu, ell)
    else:
        details["anchor_outside_target_support"] = ell
    if closed_forms is not None:
        b_nu, b_mu = (None if b is None else float(clamp01(b)) for b in closed_forms)
    elif tv.hi == 0:
        b_nu = b_mu = simplified = 0.0
    elif hypothesis.holds and anchor is not None and _positive_at(mu, ell):
        b_nu, b_mu = (float(b) for b in tv_bounds_at_anchor(mu, nu, ell, check=False))
        if anchor.ratio_matched:
            simplified = float(tv_bound_matched_anchor(mu, nu, ell, check=False))
    return BoundReport(b_nu, b_mu, simplified, anchor, hypothesis, tv, stated_bound, details)


def _not_applicable(reason: str, cert: LogConcavityCertificate, mu: DiscreteDist, nu: DiscreteDist) -> BoundReport:
    return BoundReport(None, None, None, None, cert, tv_distance(mu, nu), None, {"not_applicable": reason})


def certify(mu: DiscreteDist, nu: DiscreteDist, ell: int | None = None) -> BoundReport:
    """Full pipeline: hypothesis check and anchor selection, then
    ``anchored_report``.  Hypothesis failures and invalid anchors come back as
    a structured not-applicable report (with the oracle TV) instead of an
    exception.
    """
    cert, error = _hypothesis(mu, nu)
    if error is not None:
        reason = "absolute continuity violated" if isinstance(error, AbsoluteContinuityError) else str(error)
        return _not_applicable(reason, cert, mu, nu)

    if ell is None:
        anc = _best_effort_anchor(mu, nu)
        if anc is not None:
            ell = anc.ell
        elif tv_distance(mu, nu).hi == 0:
            ell = nu.support_min  # the single atom both laws share: the bound is 0
        else:
            return _not_applicable("no valid anchor (target support is a single atom)", cert, mu, nu)
    else:
        try:
            _check_anchor(nu, ell)
        except InvalidAnchorError as e:
            return _not_applicable(str(e), cert, mu, nu)
    return anchored_report(mu, nu, ell, cert)
