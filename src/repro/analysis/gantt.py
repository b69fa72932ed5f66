"""ASCII Gantt rendering of execution traces (Fig. 10 in text form).

PaRSEC's profiling system draws per-worker timelines; here each
(node, worker) lane becomes a row of characters, one per time bucket,
showing what the worker spent most of that bucket doing.  Boundary
tasks, interior tasks and communication get distinct glyphs so the
CA-vs-base occupancy difference is visible in a terminal.
"""

from __future__ import annotations

from ..runtime.trace import Trace

#: Glyph per span kind; '.' is idle.
DEFAULT_GLYPHS = {
    "interior": "#",
    "boundary": "B",
    "init": "i",
    "spmv": "#",
    "send": ">",
    "recv": "<",
}
IDLE = "."

#: Glyph per critical-path blame category (the ``crit`` overlay row).
CRIT_GLYPHS = {
    "compute": "#",
    "comm": "X",
    "wire": "~",
    "queue": "-",
    "comm-queue": "=",
    "startup": " ",
}


def render_gantt(
    trace: Trace,
    node: int,
    width: int = 100,
    glyphs: dict[str, str] | None = None,
    include_comm: bool = True,
    critpath=None,
) -> str:
    """Render one node's lanes over the trace's makespan.

    Each lane shows, per bucket, the kind that occupied the most time
    in that bucket (idle if nothing ran).  The communication thread is
    the lane labelled ``comm``.  Passing a
    :class:`repro.obs.critpath.CritPathReport` as ``critpath`` adds a
    ``crit`` overlay row on top, one blame glyph per bucket
    (:data:`CRIT_GLYPHS`), so the makespan-deciding chain lines up
    visually with the worker activity below it.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    glyphs = {**DEFAULT_GLYPHS, **(glyphs or {})}
    horizon = trace.makespan()
    if horizon <= 0:
        return "(empty trace)"
    bucket = horizon / width
    lanes: dict[int, list[dict[str, float]]] = {}
    for span in trace.spans:
        if span.node != node:
            continue
        if span.worker < 0 and not include_comm:
            continue
        lane = lanes.setdefault(span.worker, [dict() for _ in range(width)])
        first = int(span.start / bucket)
        last = min(width - 1, int(span.end / bucket))
        for b in range(first, last + 1):
            lo = max(span.start, b * bucket)
            hi = min(span.end, (b + 1) * bucket)
            if hi > lo:
                lane[b][span.kind] = lane[b].get(span.kind, 0.0) + (hi - lo)
    lines = []
    if critpath is not None and critpath.segments:
        weights: list[dict[str, float]] = [dict() for _ in range(width)]
        for seg in critpath.segments:
            first = int(seg.start / bucket)
            last = min(width - 1, int(seg.end / bucket))
            for b in range(first, last + 1):
                lo = max(seg.start, b * bucket)
                hi = min(seg.end, (b + 1) * bucket)
                if hi > lo:
                    weights[b][seg.blame] = weights[b].get(seg.blame, 0.0) + (hi - lo)
        row = "".join(
            CRIT_GLYPHS.get(max(cell, key=cell.get), "?") if cell else IDLE
            for cell in weights
        )
        lines.append(f" crit |{row}|")
    for worker in sorted(lanes, reverse=False):
        row = []
        for cell in lanes[worker]:
            if not cell:
                row.append(IDLE)
            else:
                kind = max(cell, key=cell.get)
                row.append(glyphs.get(kind, kind[0].upper()))
        label = "comm" if worker < 0 else f"w{worker:02d}"
        lines.append(f"{label:>5} |{''.join(row)}|")
    header = (
        f"node {node}, {horizon * 1e3:.2f} ms "
        f"({bucket * 1e3:.3f} ms/char; "
        + ", ".join(f"{g}={k}" for k, g in glyphs.items() if any(s.kind == k for s in trace.spans))
        + f", {IDLE}=idle)"
    )
    return "\n".join([header, *lines])


def legend() -> str:
    """Human-readable glyph legend for rendered charts."""
    return ", ".join(f"{g} = {k}" for k, g in DEFAULT_GLYPHS.items()) + f", {IDLE} = idle"

