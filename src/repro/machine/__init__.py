"""Machine models: nodes, networks, rooflines, STREAM and NetPIPE.

The paper reduces its two clusters to a handful of measured parameters
(Table I, Fig. 5); this package captures those parameters as
:class:`~repro.machine.machine.MachineSpec` presets and provides the
models (roofline, alpha-beta network) the evaluation is built on.
Names resolve on first access (:mod:`repro._lazy`): a run needs the
presets, not the host measurements.
"""

from .._lazy import lazy_exports

#: Re-exported name -> the sub-module that defines it
#: (``"module:attribute"`` where the name is an alias).
_EXPORTS = {
    **dict.fromkeys(("MachineSpec", "nacl", "preset", "stampede2", "summit_like"),
                    "machine"),
    "NetworkSpec": "network",
    "NodeSpec": "node",
    **dict.fromkeys(("AI_HIGH", "AI_LOW", "FLOP_PER_POINT", "RooflinePoint", "attainable",
                     "node_attainable", "ridge_point", "stencil_peak_range"), "roofline"),
    "StreamResult": "stream",
    "stream_model": "stream:model",
    "stream_run_host": "stream:run_host",
    "NetpipePoint": "netpipe",
    "netpipe_model": "netpipe:model_curve",
    "run_host_loopback": "netpipe",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "AI_HIGH",
    "AI_LOW",
    "FLOP_PER_POINT",
    "MachineSpec",
    "NetpipePoint",
    "NetworkSpec",
    "NodeSpec",
    "RooflinePoint",
    "StreamResult",
    "attainable",
    "nacl",
    "netpipe_model",
    "node_attainable",
    "preset",
    "ridge_point",
    "run_host_loopback",
    "stampede2",
    "stencil_peak_range",
    "stream_model",
    "stream_run_host",
    "summit_like",
    "units",
]
