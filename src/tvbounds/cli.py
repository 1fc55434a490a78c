"""Command-line front end.

Reports are emitted as canonical JSON (sorted keys, floats rendered as
``%.12e``, byte-identical for identical argv and seed), CSV (one flattened
row per report), or a human table.

Exit codes: 0 success, 2 when a bound's hypotheses fail ("bound not
applicable", with the structured explanation on stdout), 1 for input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import compound as comp
from . import continuous as cont
from . import intrinsic_volumes as iv
from . import matroids as mat
from . import sums
from .bounds import BoundReport, certify, clamp01, dominance_verdict
from .distributions import DEFAULT_TAIL_BUDGET, DiscreteDist, make_dist
from .errors import BoundNotApplicable, InvalidDistributionError, MatroidAxiomError
from .verify import SUITES

SUBCOMMANDS = (
    "pb-binomial", "pb-poisson", "sum-geometric", "matroid", "iv",
    "compound", "gamma", "expapprox", "verify",
)


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: subcommand, its parameters, and global knobs."""

    subcommand: str
    params: dict
    tail_budget: float = DEFAULT_TAIL_BUDGET
    fmt: str = "json"
    seed: int | None = None


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _canon(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, Fraction):
        return float(obj)
    if isinstance(obj, float):
        return obj
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if hasattr(obj, "to_json"):
        return _canon(obj.to_json())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _render_json(obj) -> str:
    """Sorted keys, floats as %.12e (the documented comparison precision)."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return json.dumps(str(obj))
        return f"{obj:.12e}"
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_render_json(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, list):
        return "[" + ",".join(_render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj)!r}")


def _flatten(obj, prefix="") -> dict:
    out = {}
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, list):
        out[prefix.rstrip(".")] = json.dumps(_canon(obj))
    else:
        out[prefix.rstrip(".")] = obj
    return out


def emit(report, fmt: str) -> str:
    """Render a report dict in the requested output format."""
    data = _canon(report)
    if fmt == "json":
        return _render_json(data)
    if fmt == "csv":
        flat = _flatten(data)
        cells = []
        for v in flat.values():
            if isinstance(v, float):
                cells.append(f"{v:.12e}")
            else:
                cells.append("" if v is None else str(v))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(flat.keys()))
        writer.writerow(cells)
        return buf.getvalue().rstrip("\n")
    if fmt == "table":
        flat = _flatten(data)
        width = max(len(k) for k in flat)
        lines = []
        for k, v in flat.items():
            sv = f"{v:.12e}" if isinstance(v, float) else str(v)
            lines.append(f"{k:<{width}}  {sv}")
        return "\n".join(lines)
    raise InvalidDistributionError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"malformed number in {text!r}") from e


def _build_parser() -> argparse.ArgumentParser:
    # global options live on a parent with SUPPRESS defaults so they can be
    # given before or after the subcommand without the subparser resetting them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "table"), default=argparse.SUPPRESS)
    common.add_argument("--tail-budget", type=float, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    # no set_defaults here: it would mutate the shared parent actions and make
    # the subparser overwrite values parsed before the subcommand; fallbacks
    # are applied with getattr when the RunConfig is assembled
    parser = argparse.ArgumentParser(prog="tvbounds", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("pb-binomial", parents=[common], help="binomial approximation to a Bernoulli sum")
    p.add_argument("--p", type=_float_list, required=True)

    p = sub.add_parser("pb-poisson", parents=[common], help="Poisson approximation to a Bernoulli sum")
    p.add_argument("--p", type=_float_list, required=True)

    p = sub.add_parser("sum-geometric", parents=[common], help="geometric approximation to a sum")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--p", type=_float_list, help="Bernoulli success probabilities")
    g.add_argument("--pmfs", help="JSON file: list of {offset, masses, tail_deficit}")

    p = sub.add_parser("matroid", parents=[common], help="profiles, certificates, and bounds")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--uniform", help="n,r")
    g.add_argument("--partition", help="c1:d1,c2:d2,...")
    g.add_argument("--sets", help="JSON file: list of integer arrays")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--include-zero", action="store_true")
    p.add_argument("--half", action="store_true", help="also report the Binomial(n,1/2) bound")

    p = sub.add_parser("iv", parents=[common], help="intrinsic-volume bounds")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--box", type=_float_list)
    g.add_argument("--cube", help="n,s")
    g.add_argument("--ball", type=int)
    g.add_argument("--product", help="JSON file: {mode, factors:[{scale, box|cube|ball}]}")
    p.add_argument("--m", type=int, default=0)

    p = sub.add_parser("compound", parents=[common], help="compound-law geometric approximations")
    csub = p.add_subparsers(dest="kind", required=True)
    cp = csub.add_parser("poisson", parents=[common])
    cp.add_argument("--lambda", dest="lam", type=float, required=True)
    cp.add_argument("--severity", type=_float_list, required=True)
    cg = csub.add_parser("geometric", parents=[common])
    gg = cg.add_mutually_exclusive_group(required=True)
    gg.add_argument("--count", help="JSON file: {offset, masses, tail_deficit}")
    gg.add_argument("--count-masses", type=_float_list)
    cg.add_argument("--p", type=float, required=True)

    p = sub.add_parser("gamma", parents=[common], help="Gamma vs Gamma TV bounds")
    p.add_argument("--a", type=_float_list, required=True, help="shape,rate")
    p.add_argument("--b", type=_float_list, required=True, help="shape,rate")
    p.add_argument("--case", choices=("i", "ii"), default="i")
    p.add_argument("--z", type=float, default=None)

    p = sub.add_parser("expapprox", parents=[common], help="exponential approximation (Kolmogorov)")
    p.add_argument("--density", required=True, help="builtin:<name>")

    p = sub.add_parser("verify", parents=[common], help="randomized dominance sweeps")
    p.add_argument("--suite", choices=sorted(SUITES), default="dominance")
    p.add_argument("--n", type=int, default=100)

    return parser


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _report_with_kind(kind: str, report: BoundReport, **extra) -> dict:
    out = {"kind": kind}
    out.update(report.to_json())
    out.update(extra)
    return out


def _run_pb_binomial(cfg: RunConfig) -> dict:
    bv = sums.BernoulliVector(tuple(cfg.params["p"]))
    s = sums.poisson_binomial_pmf(bv)
    target = sums.binomial_target(bv)
    report = certify(target, s)
    bound = float(sums.binomial_bound_primary(bv))
    secondary = sums.binomial_bound_secondary(bv)
    return _report_with_kind(
        "pb_binomial", report,
        bound=bound, bound_secondary=secondary,
        tv=report.oracle_tv.to_json(), p=[float(v) for v in bv.p],
        target_p=1.0 - 1.0 / float(bv.summary().m_n),
    )


def _run_pb_poisson(cfg: RunConfig) -> dict:
    bv = sums.BernoulliVector(tuple(cfg.params["p"]))
    s = sums.poisson_binomial_pmf(bv)
    target = sums.poisson_target(bv, cfg.tail_budget)
    report = certify(target, s)
    return _report_with_kind(
        "pb_poisson", report,
        bound=sums.poisson_bound(bv), tv=report.oracle_tv.to_json(),
        p=[float(v) for v in bv.p], rate=float(bv.summary().lambda_n),
    )


def _run_sum_geometric(cfg: RunConfig) -> dict:
    if cfg.params.get("p"):
        xis = [make_dist(0, (1.0 - v, v)) for v in cfg.params["p"]]
    else:
        xis = [DiscreteDist.from_json(d) for d in _load_json(cfg.params["pmfs"])]
    report = sums.geometric_sum_bound(xis, cfg.tail_budget)
    return _report_with_kind("sum_geometric", report)


def _run_matroid(cfg: RunConfig) -> dict:
    if cfg.params.get("uniform"):
        n, r = (int(v) for v in cfg.params["uniform"].split(","))
        prof = mat.profile_uniform(n, r)
    elif cfg.params.get("partition"):
        cats = tuple(tuple(int(v) for v in c.split(":")) for c in cfg.params["partition"].split(","))
        prof = mat.profile_partition(mat.PartitionMatroidSpec(cats))
    else:
        arrays = _load_json(cfg.params["sets"])
        masks = frozenset(sum(1 << e for e in arr) for arr in arrays)
        n = max((max(arr) + 1 for arr in arrays if arr), default=1)
        prof = mat.profile_from_set_system(mat.SetSystem(n, masks))
    m = cfg.params["m"]
    include_zero = cfg.params.get("include_zero", False)
    out = {
        "kind": "matroid",
        "profile": list(prof.counts),
        "n": prof.n,
        "rank": prof.rank,
        "mason": mat.mason_check(prof).to_json(),
        "binomial": mat.matroid_binomial_bound(prof, m, include_zero).to_json(),
        "poisson": mat.matroid_poisson_bound(prof, m, include_zero, cfg.tail_budget).to_json(),
    }
    if cfg.params.get("half") and cfg.params.get("partition"):
        cats = tuple(tuple(int(v) for v in c.split(":")) for c in cfg.params["partition"].split(","))
        try:
            out["half_bound"] = float(mat.partition_half_bound(mat.PartitionMatroidSpec(cats)))
        except BoundNotApplicable as e:
            out["half_bound"] = None
            out["half_not_applicable"] = str(e)
    return out


def _iv_from_params(cfg: RunConfig) -> iv.IVSequence:
    if cfg.params.get("box"):
        return iv.iv_box(cfg.params["box"])
    if cfg.params.get("cube"):
        n_s = cfg.params["cube"].split(",")
        return iv.iv_cube(int(n_s[0]), float(n_s[1]))
    return iv.iv_ball(int(cfg.params["ball"]))


def _factor_from_json(d: dict) -> iv.ProductFactor:
    scale = float(d.get("scale", 1.0))
    if "box" in d:
        body = iv.iv_box(d["box"])
    elif "cube" in d:
        body = iv.iv_cube(int(d["cube"][0]), float(d["cube"][1]))
    elif "ball" in d:
        body = iv.iv_ball(int(d["ball"]))
    elif "segment" in d:
        return iv.segment_factor(float(d["segment"]))
    else:
        raise InvalidDistributionError("factor needs one of box/cube/ball/segment")
    return iv.ProductFactor(body, scale)


def _run_iv(cfg: RunConfig) -> dict:
    if cfg.params.get("product"):
        spec = _load_json(cfg.params["product"])
        factors = [_factor_from_json(d) for d in spec["factors"]]
        bound = iv.product_bounds(factors, spec["mode"])
        return {"kind": "iv_product", "mode": spec["mode"], "bound": bound,
                "bound_clamped": float(clamp01(bound))}
    body = _iv_from_params(cfg)
    report = iv.poisson_iv_bound(body, cfg.params["m"], cfg.tail_budget)
    out = {
        "kind": "iv",
        "V": [float(v) for v in body.V],
        "W": float(body.W),
        "m": cfg.params["m"],
    }
    if cfg.params.get("ball") and report.dominated is False:
        # flagged family: report the hypothesis outcome, not an uncertified bound
        out["hypothesis"] = report.hypothesis.to_json()
        out["note"] = "bound did not dominate the oracle for this body; bounds suppressed"
        out["oracle_tv"] = report.oracle_tv.to_json()
        return out
    out.update(report.to_json())
    return out


def _run_compound(cfg: RunConfig) -> dict:
    if cfg.params["kind"] == "poisson":
        sev = make_dist(0, cfg.params["severity"])
        spec = comp.CompoundPoissonSpec(cfg.params["lam"], sev)
        report = comp.geometric_bound_compound_poisson(spec, cfg.tail_budget)
        return _report_with_kind("compound_poisson", report)
    if cfg.params.get("count"):
        count = DiscreteDist.from_json(_load_json(cfg.params["count"]))
    else:
        count = make_dist(0, cfg.params["count_masses"])
    spec = comp.CompoundGeometricSpec(count, cfg.params["p"])
    report = comp.geometric_bound_compound_geometric(spec, cfg.tail_budget)
    return _report_with_kind("compound_geometric", report)


def _run_gamma(cfg: RunConfig) -> dict:
    ka, la = cfg.params["a"]
    kb, lb = cfg.params["b"]
    a, b = cont.GammaParams(ka, la), cont.GammaParams(kb, lb)
    if cfg.params["case"] == "i":
        report = cont.gamma_tv_bound_anchored(a, b)
        return _report_with_kind("gamma_case_i", report,
                                 crossings=cont.gamma_density_crossings(a, b))
    z = cfg.params.get("z")
    if z is None:
        raise InvalidDistributionError("--case ii requires --z")
    bound = cont.gamma_tv_bound_perturbative(a, b, z)
    tv = cont.tv_gamma_quadrature(a, b)
    return {"kind": "gamma_case_ii", "bound": bound, "bound_clamped": float(clamp01(bound)),
            "z": z, "oracle_tv": tv.to_json(), "dominated": dominance_verdict(tv, clamp01(bound))}


def _run_expapprox(cfg: RunConfig) -> dict:
    name = cfg.params["density"]
    if not name.startswith("builtin:"):
        raise InvalidDistributionError("only builtin:<name> densities are supported")
    model = cont.builtin_density(name.split(":", 1)[1])
    report = cont.exp_kolmogorov_bound(model)
    return _report_with_kind("expapprox", report, density=model.name)


def _run_verify(cfg: RunConfig) -> dict:
    seed = cfg.seed if cfg.seed is not None else 0
    sweep = SUITES[cfg.params["suite"]](cfg.params["n"], seed)
    out = {"kind": "sweep", "suite": cfg.params["suite"], "seed": seed}
    out.update(sweep.to_json())
    return out


_RUNNERS = {
    "pb-binomial": _run_pb_binomial,
    "pb-poisson": _run_pb_poisson,
    "sum-geometric": _run_sum_geometric,
    "matroid": _run_matroid,
    "iv": _run_iv,
    "compound": _run_compound,
    "gamma": _run_gamma,
    "expapprox": _run_expapprox,
    "verify": _run_verify,
}


def run(argv) -> tuple[int, str]:
    """Parse argv, execute, and return (exit_code, output_text)."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return (1 if e.code else 0), ""
    params = {k: v for k, v in vars(ns).items()
              if k not in ("format", "tail_budget", "seed", "subcommand")}
    cfg = RunConfig(
        ns.subcommand,
        params,
        getattr(ns, "tail_budget", DEFAULT_TAIL_BUDGET),
        getattr(ns, "format", "json"),
        getattr(ns, "seed", None),
    )
    try:
        report = _RUNNERS[cfg.subcommand](cfg)
    except BoundNotApplicable as e:
        payload = {"kind": "not_applicable", "error": "bound not applicable",
                   "reason": str(e), "details": _canon(e.details)}
        return 2, emit(payload, cfg.fmt)
    except (InvalidDistributionError, MatroidAxiomError, ValueError, OSError) as e:
        return 1, f"error: {e}"
    if report.get("details", {}).get("not_applicable") or report.get("note"):
        return 2, emit(report, cfg.fmt)
    return 0, emit(report, cfg.fmt)


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code in (0, 2) else sys.stderr
    print(text, file=stream)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
