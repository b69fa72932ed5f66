"""Generic parameter sweeps over the unified runner.

The figure modules hard-code the paper's sweeps; users exploring their
own workloads want the general tool: give :class:`Sweep` the axes to
cross (machine presets, node counts, implementations, tiles, steps,
ratios...), get one flat record per configuration, ready for
`repro.analysis.tables` or CSV export.

Example
-------
>>> from repro.experiments.sweeper import Sweep
>>> from repro.stencil.problem import JacobiProblem
>>> sweep = Sweep(problem=JacobiProblem(n=1152, iterations=6))
>>> records = sweep.run(impl=["base-parsec", "ca-parsec"],
...                     nodes=[4, 16], ratio=[1.0, 0.2], tile=[288])
>>> len(records)
8
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..analysis import csvio
from ..core.config import SWEEP, knob_names
from ..core.runner import run
from ..machine.machine import MachineSpec, preset
from ..stencil.problem import JacobiProblem

#: Axes forwarded to :func:`repro.core.runner.run` verbatim: the
#: :class:`~repro.core.config.RunConfig` knobs marked sweepable.
RUN_AXES = knob_names(SWEEP)


@dataclass
class Sweep:
    """A cartesian sweep over runner parameters for one problem.

    ``machine_factory`` maps (machine_name, nodes) to a
    :class:`MachineSpec`; the default uses the presets.  ``on_result``
    is called after each configuration (progress reporting).
    """

    problem: JacobiProblem
    machine_factory: Callable[[str, int], MachineSpec] = field(
        default=lambda name, nodes: preset(name, nodes=nodes)
    )
    on_result: Callable[[dict], None] | None = None

    def run_configs(
        self,
        configs: Sequence[dict],
        machine: MachineSpec,
        mode: str = "simulate",
        **common: Any,
    ) -> list[dict]:
        """Evaluate explicit configuration dicts, no cartesian expansion.

        This is the single evaluation path shared by :meth:`run` and
        the autotuner (:mod:`repro.tuning.search`): each config dict is
        forwarded to :func:`repro.core.runner.run` on top of
        ``common`` kwargs (backend, jobs, ...), and the records come
        back in input order.
        """
        records = []
        for config in configs:
            result = run(self.problem, machine=machine, mode=mode,
                         **common, **config)
            record = result.to_dict()
            records.append(record)
            if self.on_result is not None:
                self.on_result(record)
        return records

    def run(
        self,
        machine: Sequence[str] = ("nacl",),
        nodes: Sequence[int] = (4,),
        mode: str = "simulate",
        seed: int | None = None,
        **axes: Sequence[Any],
    ) -> list[dict]:
        """Cross every axis and run each configuration once.

        ``axes`` values must be sequences; keys must be runner
        parameters (see :data:`RUN_AXES`).  Returns
        ``RunResult.to_dict()`` records, one per configuration, in
        deterministic (itertools.product) order; a ``seed`` shuffles
        the evaluation (and record) order reproducibly -- the same
        seed always yields the same order, which is how time-boxed
        studies sample the space fairly without losing replayability.
        """
        unknown = set(axes) - set(RUN_AXES)
        if unknown:
            raise ValueError(
                f"unknown sweep axes {sorted(unknown)}; valid: {RUN_AXES}"
            )
        for key, values in axes.items():
            if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
                raise TypeError(f"axis {key!r} must be a sequence, got {values!r}")
        names = list(axes)
        configs = [
            (machine_name, node_count, dict(zip(names, combo)))
            for machine_name, node_count in itertools.product(machine, nodes)
            for combo in itertools.product(*(axes[name] for name in names))
        ]
        if seed is not None:
            random.Random(seed).shuffle(configs)
        specs: dict[tuple[str, int], MachineSpec] = {}
        records = []
        for machine_name, node_count, kwargs in configs:
            key = (machine_name, node_count)
            if key not in specs:
                specs[key] = self.machine_factory(machine_name, node_count)
            record = self.run_configs([kwargs], machine=specs[key], mode=mode)[0]
            record["machine_preset"] = machine_name
            records.append(record)
        return records


def to_csv(
    records: Sequence[dict],
    path: str | None = None,
    fields: Sequence[str] | None = None,
) -> str:
    """One export path for sweep *and* tuning records: render the flat
    dicts as CSV text (via :mod:`repro.analysis.csvio`) and optionally
    write them to ``path``.  Returns the CSV text either way."""
    text = csvio.dumps(records, fields)
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def best(records: Sequence[dict], metric: str = "gflops") -> dict:
    """The record maximising ``metric``."""
    if not records:
        raise ValueError("no records to choose from")
    return max(records, key=lambda r: r[metric])


def pivot(
    records: Sequence[dict], row_key: str, col_key: str, value: str = "gflops"
) -> tuple[list, list, list[list]]:
    """Reshape records into a (row labels, column labels, matrix)
    triple for table rendering; missing cells become None."""
    rows = sorted({r[row_key] for r in records}, key=lambda v: (str(type(v)), v))
    cols = sorted({r[col_key] for r in records}, key=lambda v: (str(type(v)), v))
    matrix = [[None] * len(cols) for _ in rows]
    for rec in records:
        i = rows.index(rec[row_key])
        j = cols.index(rec[col_key])
        matrix[i][j] = rec[value]
    return rows, cols, matrix
