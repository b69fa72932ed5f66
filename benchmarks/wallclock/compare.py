"""Compare two sets of timed runs, one row per workload and metric.

    python benchmarks/wallclock/compare.py A/ B/ [--json OUT]

``A/`` and ``B/`` hold the documents ``run.py --json`` wrote (any file
names; traced runs are ignored).  ``A`` is the base: every relative
figure is a share of A's median.  For each workload and end-to-end
metric the row gives both medians with their quartiles, B's change, the
spread of A's own runs, the bound, and a verdict:

* ``unresolved`` -- A's quartile spread is wider than the bound, so the
  runs cannot tell a regression of that size from noise;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B's median is better than A's by more than A's spread;
* ``no worse`` -- anything else.

A bound of 0 (``failed_frac``) is absolute: differences are in the
metric's own unit and any worsening at all is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import registry  # noqa: E402
from harness import quartiles  # noqa: E402


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, over the timed runs in ``directory``."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("mode") != "timed":
            continue
        per_metric = out.setdefault(doc["workload"], {})
        for name, entry in doc["end_to_end"].items():
            per_metric.setdefault(name, []).append(entry["value"])
    return out


def row(metric: registry.Metric, a: list[float], b: list[float]) -> dict:
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    base = qa[1] if metric.bound else 1.0  # bound 0: absolute, in the metric's unit
    worsening = sign * (qb[1] - qa[1]) / base
    spread_a, spread_b = (qa[2] - qa[0]) / base, (qb[2] - qb[0]) / (qb[1] if metric.bound else 1.0)
    if spread_a > metric.bound:
        verdict = "unresolved"
    elif worsening > metric.bound:
        verdict = "worse"
    elif worsening < -spread_a:
        verdict = "better"
    else:
        verdict = "no worse"
    return {"metric": metric.name, "unit": metric.unit, "better": metric.better,
            "bound": metric.bound, "runs_a": len(a), "runs_b": len(b),
            "a": {"q1": qa[0], "median": qa[1], "q3": qa[2], "spread": spread_a},
            "b": {"q1": qb[0], "median": qb[1], "q3": qb[2], "spread": spread_b},
            "b_worse_by": worsening, "verdict": verdict}


def compare(dir_a: Path, dir_b: Path) -> dict[str, list[dict]]:
    """workload -> rows, for every workload both sets ran."""
    a, b = load(dir_a), load(dir_b)
    return {
        w: [row(m, a[w][m.name], b[w][m.name]) for m in registry.END_TO_END
            if m.name in a[w] and m.name in b[w]]
        for w in registry.WORKLOAD_NAMES if w in a and w in b
    }


def render(table: dict[str, list[dict]]) -> str:
    lines = []
    for workload, rows in table.items():
        lines.append(f"{workload}  (A: {rows[0]['runs_a']} runs, B: {rows[0]['runs_b']} runs)")
        for r in rows:
            a, b = r["a"], r["b"]
            if r["bound"]:
                change = (f"B worse by {r['b_worse_by']:+.1%} of A's median"
                          f"  A's spread {a['spread']:.1%}  bound {r['bound']:.0%}")
            else:
                change = f"B worse by {r['b_worse_by']:+.3g} {r['unit']}  bound 0 (absolute)"
            lines.append(
                f"  {r['metric']:<22} A {a['median']:.5g} [{a['q1']:.5g}, {a['q3']:.5g}]"
                f"  B {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}] {r['unit']}"
                f"  {change}  -> {r['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--json", type=Path, metavar="OUT", help="also write the rows here")
    args = p.parse_args(argv)
    table = compare(args.a, args.b)
    if not table:
        print("no workload has timed runs in both directories", file=sys.stderr)
        return 2
    print(render(table))
    if args.json:
        args.json.write_text(json.dumps(table, indent=1))
    return 1 if any(r["verdict"] == "worse" for rows in table.values() for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
