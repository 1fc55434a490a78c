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

Every discrete report is built by ``certify``: the bounds are computed there
and nowhere else, and every report derives its dominance verdict from them.
It reads its pair in one ``distributions._pair_scan``: absolute continuity,
the oracle TV and the gap rows of the valid anchors (or of the anchor asked
for).  The scan decides no certificate: a report carries the caller's
certificate of its own hypothesis or else, through ``_verdict``, the relative
one, which ``distributions._three_term`` decides on the scan's aligned cells.
``anchor_at`` turns a row into the anchor record, ratio matched as the row's
flag says: on exact equality of the cross products for exact laws and within
``distributions.ANCHOR_MATCH_TOL`` for floats.  ``certify`` alone decides
whether a bound's hypothesis holds and whether an anchor is valid (target mass
at both of its cells, a row off subnormal float cells); its helpers
``anchor_at``, ``tv_bounds_at_anchor`` and ``tv_bound_matched_anchor`` trust
that and check nothing.  The anchor searches below are each a few lines over
the same scan.  Every dominance verdict, of the reports and of the ``verify``
sweeps, is ``dominance_verdict``, the one reader of ``DOMINANCE_SLACK``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter
from typing import Mapping

from .distributions import (
    DiscreteDist,
    Interval,
    LogConcavityCertificate,
    _pair_scan,
    _support_interval,
)

_NOT_RELATIVE = "target is not log-concave relative to the reference"
_REF_GAP = "reference support is not a contiguous interval"
_SUBNORMAL = "anchor {} has subnormal float cells"
_OUTSIDE = "anchor {0} needs positive target mass at {0} and {1}"

#: slack of every dominance verdict, of the reports and of the randomized
#: sweeps; absorbs truncation deficits on the oracle side of exact-equality
#: instances
DOMINANCE_SLACK = 1e-10


def dominance_verdict(tv: "Interval | None", *bounds) -> bool | None:
    """``oracle.hi <= min(bounds) + slack``; ``None`` without oracle or bounds."""
    if tv is None:
        return None
    cands = [float(b) for b in bounds if b is not None]
    if not cands:
        return None
    return bool(float(tv.hi) <= min(cands) + DOMINANCE_SLACK)


class Anchor:
    """An index at which consecutive-mass ratios of target and reference are
    compared; ``ratio_gap`` is the normalized cross-product mismatch."""

    __slots__ = ("ell", "ratio_matched", "ratio_gap")

    def __init__(self, ell: int, ratio_matched: bool, ratio_gap: float):
        self.ell, self.ratio_matched, self.ratio_gap = ell, ratio_matched, ratio_gap

    def to_json(self) -> dict:
        return {"ell": self.ell, "ratio_matched": self.ratio_matched, "ratio_gap": float(self.ratio_gap)}


class BoundReport:
    """A computed bound with its certification context.

    Every discrete report comes from ``certify``, the Gamma and exponential
    ones from ``continuous``, and the product-body one, which has no oracle,
    from ``intrinsic_volumes.product_bounds``.  ``bound_nu_side`` and
    ``bound_mu_side`` are the two envelope sums, ``simplified`` the
    ratio-matched closed form when available, ``stated_bound`` an unclamped
    corollary-style closed form carried verbatim by the application modules.
    A not-applicable report has no anchor and no bounds, and
    ``details["not_applicable"]`` names why.
    ``dominated`` and ``status`` are derived, not stored: ``dominance_verdict``
    of the oracle and the core bounds, and ``hypothesis_failed`` when the
    hypothesis fails, else ``not_applicable`` when ``details`` names a reason,
    else ``certified``.
    """

    __slots__ = ("bound_nu_side", "bound_mu_side", "simplified", "anchor", "hypothesis", "oracle_tv",
                 "stated_bound", "details")

    def __init__(self, bound_nu_side: float | None, bound_mu_side: float | None, simplified: float | None,
                 anchor: Anchor | None, hypothesis: LogConcavityCertificate, oracle_tv: Interval | None,
                 stated_bound: float | None = None, details: Mapping[str, object] | None = None):
        self.bound_nu_side, self.bound_mu_side, self.simplified = bound_nu_side, bound_mu_side, simplified
        self.anchor, self.hypothesis, self.oracle_tv = anchor, hypothesis, oracle_tv
        self.stated_bound, self.details = stated_bound, {} if details is None else details

    def core_bounds(self) -> list[float]:
        return [float(b) for b in (self.bound_nu_side, self.bound_mu_side, self.simplified) if b is not None]

    @property
    def dominated(self) -> bool | None:
        return dominance_verdict(self.oracle_tv, *self.core_bounds())

    @property
    def status(self) -> str:
        if not self.hypothesis.holds:
            return "hypothesis_failed"
        return "not_applicable" if self.details.get("not_applicable") else "certified"

    def to_json(self) -> dict:
        return {
            "bound_nu_side": None if self.bound_nu_side is None else float(self.bound_nu_side),
            "bound_mu_side": None if self.bound_mu_side is None else float(self.bound_mu_side),
            "simplified": None if self.simplified is None else float(self.simplified),
            "anchor": None if self.anchor is None else self.anchor.to_json(),
            "hypothesis": self.hypothesis.to_json(),
            "oracle_tv": None if self.oracle_tv is None else self.oracle_tv.to_json(),
            "dominated": self.dominated,
            "status": self.status,
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


def _safe_expm1(e: float) -> float:
    """``math.expm1``, saturated to ``inf`` where it leaves the float range."""
    try:
        return math.expm1(e)
    except OverflowError:
        return math.inf


def _reduced(n: int, d: int) -> tuple[int, int]:
    g = math.gcd(n, d)
    return n // g, d // g


def _verdict(mu: DiscreteDist, ac: int | None, relative, hypothesis: LogConcavityCertificate | None = None):
    """The certificate a report carries, the caller's ``hypothesis`` or else
    the relative one from a ``_pair_scan``'s ``ac`` and ``relative`` (called
    only when ``ac`` is None), and the reason why the bounds do not apply or
    None; absolute continuity is checked under either."""
    if ac is not None:
        return hypothesis or LogConcavityCertificate(False, ac, True), "absolute continuity violated"
    if hypothesis is not None:
        return hypothesis, None
    cert = relative()
    if not cert.holds:
        return cert, _NOT_RELATIVE
    ok, gap, _, _ = _support_interval(mu._cells, mu.offset)
    if not ok:
        return LogConcavityCertificate(False, gap, False), _REF_GAP
    return cert, None


def _positive_at(d: DiscreteDist, ell: int) -> bool:
    return d.mass(ell) > 0 and d.mass(ell + 1) > 0


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


def _float_envelope(d: DiscreteDist, ell: int, log_a: float, log_r: float, sign: float) -> float:
    """``sum_y (sign (1 - exp(sign (log_a + (y - ell) log_r))))_+ d_y``, the
    float ``_envelope_sum``; negation is exact, so ``sign = -1.0`` is bit for
    bit ``exp(-log_a - (y - ell) log_r) - 1``.  It stops past 1, where the clamp takes it."""
    a, r, b = sign * log_a, sign * log_r, 0.0
    for k, m in enumerate(d.masses, d.offset - ell):
        if m > 0:
            term = sign - sign * _safe_exp(a + k * r)
            if term > 0:
                b += term * float(m)
                if b > 1.0:
                    break
    return b


def tv_bounds_at_anchor(mu: DiscreteDist, nu: DiscreteDist, ell: int):
    """The two envelope bounds ``(B_nu, B_mu)`` at anchor ``ell``, clamped to [0, 1],
    under the hypothesis and at the valid anchor that ``certify`` decides:
    this function trusts both.

    Exact rational inputs are evaluated exactly on their integer numerators
    (``_envelope_sum``), with ``r`` and ``p_ell/q_ell`` each reduced by one
    gcd; float inputs in log space (the ratio power is
    ``exp((y-ell) log r)``) with saturation instead of overflow, which is
    harmless because the sums are clamped at 1.
    """
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
    return (clamp01(_float_envelope(nu, ell, log_ratio, log_r, 1.0)),
            clamp01(_float_envelope(mu, ell, log_ratio, log_r, -1.0)))


def anchor_at(row) -> Anchor:
    """The anchor record of a ``_pair_scan`` gap row, ratio matched as the row says."""
    ell, _, gap, matched = row
    return Anchor(ell, matched, gap)


def tv_bound_matched_anchor(mu: DiscreteDist, nu: DiscreteDist, ell: int):
    """Closed-form bound ``min(q_l/p_l - 1, 1 - p_l/q_l)`` at the ratio-matched
    anchor ``ell`` and under the hypothesis that ``certify`` decides, as the
    envelope sums are.

    Two probability laws have ``q_l >= p_l`` there, up to rounding; a target
    stored short of its deficit can sit below, where both terms are negative
    and the clamp gives 0, as the envelope sums do at such an anchor.  For
    positive ``p, q`` the smaller term is always ``1 - p/q``, which exact laws
    form as one ``Fraction`` of their numerators, ``(Q d_mu - P d_nu) / (Q
    d_mu)`` for ``q_l = Q/d_nu`` and ``p_l = P/d_mu``.
    """
    if mu.is_exact and nu.is_exact:
        (p, d_mu), (q, d_nu) = mu.integer_masses, nu.integer_masses
        top = q[ell - nu.offset] * d_mu
        return clamp01(Fraction(top - p[ell - mu.offset] * d_nu, top))
    ql, pl = float(nu.mass(ell)), float(mu.mass(ell))
    return clamp01(min(ql / pl - 1, 1 - pl / ql))


def _candidate_anchors(mu: DiscreteDist, nu: DiscreteDist):
    """All valid anchors (both target cells positive) as ``(ell, diff, gap)``:
    the ``_pair_scan`` gap rows without their match flag."""
    return [row[:3] for row in _pair_scan(mu, nu)[2]]


def find_ratio_anchor(mu: DiscreteDist, nu: DiscreteDist) -> Anchor | None:
    """Scan consecutive support pairs for a ratio-matched anchor, on the
    ``_pair_scan`` gap rows.

    Returns the anchor with the smallest normalized gap (ties broken by
    smaller index) when some row is matched or the cross-product difference
    changes sign without vanishing, or ``None`` when neither happens (e.g.
    two distinct geometric laws, whose ratios never meet).
    """
    rows = _pair_scan(mu, nu)[2]
    signs = [d for _, d, _, _ in rows]
    if (any(matched for _, _, _, matched in rows)
            or any(a > 0 > b or a < 0 < b for a, b in zip(signs, signs[1:]))):
        return anchor_at(min(rows, key=itemgetter(2)))
    return None


def _best_effort_anchor(mu: DiscreteDist, nu: DiscreteDist) -> Anchor | None:
    """The smallest-gap valid anchor of the ``_pair_scan`` gap rows (ties to
    the smaller index), matched or not: any valid index yields a correct
    (possibly weak) bound."""
    row = min(_pair_scan(mu, nu)[2], key=itemgetter(2), default=None)
    return None if row is None else anchor_at(row)


def certify(mu: DiscreteDist, nu: DiscreteDist, ell: int | None = None,
            hypothesis: LogConcavityCertificate | None = None, *,
            stated_bound: float | None = None, details: Mapping[str, object] = {}) -> BoundReport:
    """The report for target ``nu`` against reference ``mu`` at anchor
    ``ell``, or at the gap row of smallest gap (ties to the smaller index).

    Its certificate is the caller's ``hypothesis``, or else that of ``nu``
    relative to ``mu``; absolute continuity is checked under either.  The
    bounds are 0 when the oracle TV is exactly 0, at any anchor, and
    otherwise, when the certificate holds, the two envelope sums, plus the
    matched closed form at a ratio-matched anchor, each raised by the
    target's ``tail_deficit``: the true TV exceeds the stored cells' TV by at
    most that.  A caller's failed certificate keeps the anchor and reports no
    bounds.  An anchor without target mass at both cells has no record; where
    the bounds need none, ``details["anchor_outside_target_support"]`` names it.

    Otherwise the report is not applicable, in one shape: no anchor and no
    bounds, the caller's ``details`` and ``stated_bound``, and
    ``details["not_applicable"]`` the reason: absolute continuity, a failed
    relative certificate or reference gap, a single target atom, an anchor
    outside the target's support or on subnormal float cells, whose few
    digits give no slope.  No other code checks the anchor: the helpers that
    build its record and its bounds trust these reasons.
    """
    ac, relative, rows, tv = _pair_scan(mu, nu, ell)
    cert, reason = _verdict(mu, ac, relative, hypothesis)
    details = dict(details)
    row = min(rows, key=itemgetter(2), default=None)
    if reason is None and ell is None:
        if row is not None:
            ell = row[0]
        elif tv.hi == 0 or nu.support_min < nu.support_max:  # a bound of 0, or no row off subnormal cells
            ell = nu.support_min
        else:
            reason = "no valid anchor (target support is a single atom)"
    if reason is None and tv.hi == 0 and not _positive_at(nu, ell):
        details["anchor_outside_target_support"] = ell
    elif reason is None and tv.hi != 0 and row is None:  # no row: outside the target's support, or subnormal
        reason = (_SUBNORMAL if _positive_at(nu, ell) else _OUTSIDE).format(ell, ell + 1)
    if reason is not None:
        details["not_applicable"] = reason
        return BoundReport(None, None, None, None, cert, tv, stated_bound, details)
    anchor = None if row is None else anchor_at(row)
    simplified = b_nu = b_mu = None
    if tv.hi == 0:
        b_nu = b_mu = simplified = 0.0
    elif cert.holds:  # absolute continuity gives the reference mass at both anchor cells
        lift = lambda b: min(float(b + nu.tail_deficit), 1.0)  # b >= 0
        b_nu, b_mu = map(lift, tv_bounds_at_anchor(mu, nu, ell))
        if anchor.ratio_matched:
            simplified = lift(tv_bound_matched_anchor(mu, nu, ell))
    return BoundReport(b_nu, b_mu, simplified, anchor, cert, tv, stated_bound, details)
