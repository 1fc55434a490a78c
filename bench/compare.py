"""Per-metric deltas between two benchmark results.

    python3 bench/compare.py OLD.json NEW.json

Either file may be a suite file written by ``bench/suite.py`` or a single run
record from ``bench/out/``. End-to-end metrics are judged only against the
bounds that ``BENCHMARK.json`` sets; per-layer metrics have no bound and are
listed as plain deltas.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """``{workload: {"end_to_end": metrics, "per_layer": metrics}}`` from either file kind."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "runs" in data:
        return data["runs"]
    key = "per_layer" if data["trace"] else "end_to_end"
    return {data["workload"]: {key: data["metrics"]}}


def compare(old: dict, new: dict, spec: dict) -> list:
    """Printable lines, and the regressions beyond a bound as ``(workload, metric)``."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    lines, regressions = [], []
    for workload in sorted(set(old) & set(new)):
        lines.append(f"{workload}")
        for section in ("end_to_end", "per_layer"):
            before, after = old[workload].get(section, {}), new[workload].get(section, {})
            for name in [n for n in before if n in after]:
                a, b = before[name]["value"], after[name]["value"]
                change = (b - a) / abs(a) if a else (0.0 if b == a else float("inf"))
                direction = bounds[name]["better"] if section == "end_to_end" else better.get(name, "lower")
                worse = change if direction == "lower" else -change
                verdict = ""
                if section == "end_to_end":
                    bound = bounds[name]["bound"]
                    verdict = "REGRESSION" if worse > bound else "ok"
                    verdict += f" (bound {bound:.0%})"
                    if worse > bound:
                        regressions.append((workload, name))
                elif a == b:
                    continue
                lines.append(f"  {name:<34} {a:>14.6g} -> {b:<14.6g} {change:+8.1%} {after[name]['unit']:<6} {verdict}")
    return lines, regressions


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    lines, regressions = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(lines))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
