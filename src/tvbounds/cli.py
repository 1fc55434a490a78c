"""Command-line front end.

Reports are emitted as canonical JSON (sorted keys, floats rendered as
``%.12e``, byte-identical for identical argv and seed), CSV (one flattened
row per report), or a human table.

Each runner parses its options, makes one library call and renders the
report that its application module returns (``matroid`` renders two, under
``binomial`` and ``poisson``) beside a ``kind``.  The CLI owns no other key:
``kind``, the matroid pair with ``--half``'s ``half_bound`` or
``half_not_applicable``, and ``verify``'s ``suite`` and ``seed``, since a sweep
is not a report.

Exit codes: 0 success, 1 for input errors, 2 when a bound does not apply: a
``BoundNotApplicable`` raised ("bound not applicable", with the structured
explanation on stdout), or an output that holds reports none of whose
``status`` is ``certified``.

Each subcommand imports its application module (``sums``, ``matroids``,
``intrinsic_volumes``, ``compound``, ``continuous`` or ``verify``) inside its
runner, on first use. A process runs one subcommand, and with bytecode caching
off (``PYTHONDONTWRITEBYTECODE``, or a checkout with no ``__pycache__``) it
compiles every module it imports, so a module it never runs would cost it the
compilation alone.

For the same reason no record class uses ``dataclasses``: each is a plain
class with an explicit ``__init__``. Importing ``dataclasses`` loads
``inspect``, ``ast``, ``dis`` and ``tokenize``, 6-10 ms on top of what the CLI
already imports, and each frozen dataclass compiles its generated methods at
class creation, about 1.2 ms a class against 0.03 ms for a plain one (Python
3.11.7, 2-vCPU Xeon VM). Without them ``pb-binomial`` takes 147 ms per process
against 165 ms (median of 15 alternating processes, no bytecode cache).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from .distributions import DiscreteDist, make_dist
from .errors import BoundNotApplicable, InvalidDistributionError, MatroidAxiomError

if TYPE_CHECKING:
    from . import intrinsic_volumes as iv

SUBCOMMANDS = (
    "pb-binomial", "pb-poisson", "sum-geometric", "matroid", "iv",
    "compound", "gamma", "expapprox", "verify",
)

# the keys of verify.SUITES, named here so that building the parser does not
# import verify
SUITE_NAMES = ("dominance", "matroids", "sums")


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------


def _render_json(obj) -> str:
    """Sorted keys, floats as %.12e (the documented comparison precision)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return json.dumps(str(obj))
        return f"{obj:.12e}"
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_render_json(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj)!r}")


def _flatten(obj, prefix="") -> dict:
    out = {}
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        out[prefix.rstrip(".")] = json.dumps(obj)
    else:
        out[prefix.rstrip(".")] = obj
    return out


def emit(report, fmt: str) -> str:
    """Render a report dict in the requested output format."""
    if fmt == "json":
        return _render_json(report)
    if fmt not in ("csv", "table"):
        raise InvalidDistributionError(f"unknown format {fmt!r}")
    # one text per flattened key, for both formats
    none = "" if fmt == "csv" else "None"
    cells = {k: f"{v:.12e}" if isinstance(v, float) else none if v is None else str(v)
             for k, v in _flatten(report).items()}
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows((cells.keys(), cells.values()))
        return buf.getvalue().rstrip("\n")
    width = max(map(len, cells))
    return "\n".join(f"{k:<{width}}  {v}" for k, v in cells.items())


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _finite(text: str, kind=float):
    """``kind(text)`` for a number in an option or a JSON file, whose float must be finite."""
    try:
        v = float(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"malformed number {text!r}") from e
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return kind(text)


def _float_list(text: str) -> list[float]:
    return [_finite(v) for v in text.split(",") if v != ""]


def _build_parser() -> argparse.ArgumentParser:
    # global options live on a parent with SUPPRESS defaults so they can be
    # given before or after the subcommand without the subparser resetting them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "table"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    # no set_defaults here: it would mutate the shared parent actions and make
    # the subparser overwrite values parsed before the subcommand; fallbacks
    # are applied with getattr where the namespace is read
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
    g.add_argument("--cube", type=lambda text: text.split(","), help="n,s")
    g.add_argument("--ball", type=int)
    g.add_argument("--product", help="JSON file: {mode, factors:[{scale, box|cube|ball}]}")
    p.add_argument("--m", type=int, default=0)

    p = sub.add_parser("compound", parents=[common], help="compound-law geometric approximations")
    csub = p.add_subparsers(dest="kind", required=True)
    cp = csub.add_parser("poisson", parents=[common])
    cp.add_argument("--lambda", dest="lam", type=_finite, required=True)
    cp.add_argument("--severity", type=_float_list, required=True)
    cg = csub.add_parser("geometric", parents=[common])
    gg = cg.add_mutually_exclusive_group(required=True)
    gg.add_argument("--count", help="JSON file: {offset, masses, tail_deficit}")
    gg.add_argument("--count-masses", type=_float_list)
    cg.add_argument("--p", type=_finite, required=True)

    p = sub.add_parser("gamma", parents=[common], help="Gamma vs Gamma TV bounds")
    p.add_argument("--a", type=_float_list, required=True, help="shape,rate")
    p.add_argument("--b", type=_float_list, required=True, help="shape,rate")
    p.add_argument("--case", choices=("i", "ii"), default="i")
    p.add_argument("--z", type=_finite, default=None)

    p = sub.add_parser("expapprox", parents=[common], help="exponential approximation (Kolmogorov)")
    p.add_argument("--density", required=True, help="builtin:<name>")

    p = sub.add_parser("verify", parents=[common], help="randomized dominance sweeps")
    p.add_argument("--suite", choices=SUITE_NAMES, default="dominance")
    p.add_argument("--n", type=int, default=100)

    return parser


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_float=_finite, parse_constant=_finite, parse_int=lambda t: _finite(t, int))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _run_pb_binomial(ns: argparse.Namespace) -> dict:
    from . import sums

    return {"kind": "pb_binomial", **sums.binomial_report(sums.BernoulliVector(tuple(ns.p))).to_json()}


def _run_pb_poisson(ns: argparse.Namespace) -> dict:
    from . import sums

    return {"kind": "pb_poisson", **sums.poisson_report(sums.BernoulliVector(tuple(ns.p))).to_json()}


def _run_sum_geometric(ns: argparse.Namespace) -> dict:
    from . import sums

    if ns.p is not None:
        for i, v in enumerate(ns.p):
            if not 0 <= v <= 1:
                raise InvalidDistributionError(f"p_{i} = {v} must lie in [0, 1]")
        xis = [make_dist(0, (1.0 - v, v)) for v in ns.p]
    else:
        pmfs = _load_json(ns.pmfs)
        if not isinstance(pmfs, list):
            raise InvalidDistributionError("--pmfs needs a list of distributions")
        xis = [DiscreteDist.from_json(d) for d in pmfs]
    return {"kind": "sum_geometric", **sums.geometric_sum_bound(xis).to_json()}


def _run_matroid(ns: argparse.Namespace) -> dict:
    from . import matroids as mat

    partition = None
    if ns.uniform is not None:
        n, r = (int(v) for v in ns.uniform.split(","))
        prof = mat.profile_uniform(n, r)
    elif ns.partition is not None:
        cats = tuple(tuple(int(v) for v in c.split(":")) for c in ns.partition.split(","))
        partition = mat.PartitionMatroidSpec(cats)
        prof = mat.profile_partition(partition)
    else:
        prof = mat.profile_from_set_system(mat.SetSystem.from_json(_load_json(ns.sets)))
    # each report's details hold the profile, and the binomial one's hypothesis is the Mason certificate
    out = {"kind": "matroid", "binomial": mat.matroid_binomial_bound(prof, ns.m, ns.include_zero).to_json(),
           "poisson": mat.matroid_poisson_bound(prof, ns.m, ns.include_zero).to_json()}
    if ns.half and partition is not None:
        try:
            out["half_bound"] = float(mat.partition_half_bound(partition))
        except BoundNotApplicable as e:
            out["half_bound"] = None
            out["half_not_applicable"] = str(e)
    return out


def _iv_body(spec: dict) -> iv.IVSequence | None:
    """The box (side lengths), cube (``[n, s]``) or ball (dimension) that
    ``spec`` names, in that order; None when it names none of them."""
    from . import intrinsic_volumes as iv

    if spec.get("box") is not None:
        return iv.iv_box(spec["box"])
    if spec.get("cube") is not None:
        n, s = spec["cube"]
        return iv.iv_cube(int(n), _finite(s))
    if spec.get("ball") is not None:
        return iv.iv_ball(int(spec["ball"]))
    return None


def _factor_from_json(d: dict) -> iv.ProductFactor:
    from . import intrinsic_volumes as iv

    # box and cube are lists of numbers, ball, segment and scale numbers
    numbers = lambda v: isinstance(v, list) and all(type(x) in (int, float) for x in v)
    fields = ("box", "cube", "ball", "segment", "scale")
    if not (isinstance(d, dict) and all(numbers(d[k] if k in fields[:2] else [d[k]]) for k in fields if k in d)):
        raise InvalidDistributionError("a factor is {scale, box: [sides] | cube: [n, s] | ball: n | segment: s}")
    if sum(k in d for k in fields[:4]) != 1:
        raise InvalidDistributionError("a factor names exactly one of box/cube/ball/segment")
    # a scaled segment [0, s] is the segment [0, scale * s]
    factor = iv.segment_factor(float(d["segment"])) if "segment" in d else iv.ProductFactor(_iv_body(d))
    return iv.ProductFactor(factor.body, float(d.get("scale", 1.0)) * factor.scale)


def _run_iv(ns: argparse.Namespace) -> dict:
    from . import intrinsic_volumes as iv

    if ns.product is not None:
        spec = _load_json(ns.product)
        if not (isinstance(spec, dict) and isinstance(spec.get("mode"), str) and isinstance(spec.get("factors"), list)):
            raise InvalidDistributionError("--product needs {mode: string, factors: [objects]}")
        factors = [_factor_from_json(d) for d in spec["factors"]]
        return {"kind": "iv_product", **iv.product_bounds(factors, spec["mode"]).to_json()}
    return {"kind": "iv", **iv.poisson_iv_bound(_iv_body(vars(ns)), ns.m).to_json()}


def _run_compound(ns: argparse.Namespace) -> dict:
    from . import compound as comp

    if ns.kind == "poisson":
        spec = comp.CompoundPoissonSpec(ns.lam, make_dist(0, ns.severity))
        return {"kind": "compound_poisson", **comp.geometric_bound_compound_poisson(spec).to_json()}
    if ns.count is not None:
        count = DiscreteDist.from_json(_load_json(ns.count))
    else:
        count = make_dist(0, ns.count_masses)
    spec = comp.CompoundGeometricSpec(count, ns.p)
    return {"kind": "compound_geometric", **comp.geometric_bound_compound_geometric(spec).to_json()}


def _run_gamma(ns: argparse.Namespace) -> dict:
    from . import continuous as cont

    ka, la = ns.a
    kb, lb = ns.b
    a, b = cont.GammaParams(ka, la), cont.GammaParams(kb, lb)
    if ns.case == "i":
        return {"kind": "gamma_case_i", **cont.gamma_tv_bound_anchored(a, b).to_json()}
    if ns.z is None:
        raise InvalidDistributionError("--case ii requires --z")
    return {"kind": "gamma_case_ii", **cont.gamma_tv_bound_perturbative(a, b, ns.z).to_json()}


def _run_expapprox(ns: argparse.Namespace) -> dict:
    from . import continuous as cont

    name = ns.density
    if not name.startswith("builtin:"):
        raise InvalidDistributionError("only builtin:<name> densities are supported")
    model = cont.builtin_density(name.split(":", 1)[1])
    return {"kind": "expapprox", **cont.exp_kolmogorov_bound(model).to_json()}


def _run_verify(ns: argparse.Namespace) -> dict:
    from .verify import SUITES

    if ns.n < 1:
        raise InvalidDistributionError("--n must be at least 1")
    seed = getattr(ns, "seed", 0)
    sweep = SUITES[ns.suite](ns.n, seed)
    out = {"kind": "sweep", "suite": ns.suite, "seed": seed}
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
    fmt = getattr(ns, "format", "json")
    try:
        report = _RUNNERS[ns.subcommand](ns)
    except BoundNotApplicable as e:
        payload = {"kind": "not_applicable", "error": "bound not applicable",
                   "reason": str(e), "details": e.details}
        return 2, emit(payload, fmt)
    except (InvalidDistributionError, MatroidAxiomError, ValueError, OSError, argparse.ArgumentTypeError) as e:
        return 1, f"error: {e}"
    statuses = [r["status"] for r in (report, *report.values()) if isinstance(r, dict) and "status" in r]
    return 2 if statuses and "certified" not in statuses else 0, emit(report, fmt)


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code in (0, 2) else sys.stderr
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # the reader closed early: point the stream at devnull, so that the
        # flush at exit does not raise again, and exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
