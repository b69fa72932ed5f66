#!/usr/bin/env python
"""Tuning the communication-avoiding step size (Fig. 9 in miniature).

The step size s trades per-message software cost against redundant
halo computation and ghost memory.  This example sweeps s in the
comm-bound regime (tuned kernel, ratio 0.2) and in the kernel-bound
regime (ratio 1.0), prints the tradeoff columns, and uses the CA plan
(``repro.core.spec.ca_plan``) to show what each s costs in replication
before running anything.
"""

import repro
from repro.analysis.tables import format_table
from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.spec import ca_plan


def main() -> None:
    problem = repro.JacobiProblem(n=5760, iterations=30)
    machine = repro.nacl(16)
    tile = 288
    step_sizes = (1, 5, 10, 15, 25, 40)

    base_build = build_base_graph(problem, machine, tile=tile, with_kernels=False)

    rows = []
    for s in step_sizes:
        p = ca_plan(base_build, build_ca_graph(
            problem, machine, tile=tile, steps=s, with_kernels=False,
        )) if s > 1 else None
        bound = repro.run(problem, impl="ca-parsec", machine=machine,
                          tile=tile, steps=s, ratio=0.2, mode="simulate")
        calm = repro.run(problem, impl="ca-parsec", machine=machine,
                         tile=tile, steps=s, ratio=1.0, mode="simulate")
        rows.append((
            s,
            bound.messages,
            f"{bound.redundant_fraction:.1%}",
            f"{(p.extra_ghost_bytes / 1e6) if p else 0.0:.1f}",
            f"{bound.gflops:.0f}",
            f"{calm.gflops:.1f}",
        ))

    print(format_table(
        ("s", "messages", "redundant work", "extra ghost MB",
         "GFLOP/s (r=0.2)", "GFLOP/s (r=1.0)"),
        rows,
        title="CA step-size tuning, 16 NaCL nodes, 5760^2 grid, tile 288",
    ))

    best = max(rows, key=lambda r: float(r[4]))
    print(f"\nbest step in the comm-bound regime: s={best[0]}")
    print("paper's finding: the optimum is interior and must be searched; "
          "step size is nearly irrelevant when the kernel dominates.")


if __name__ == "__main__":
    main()
