"""Edge-preserving self-healing overlay simulator.

The healer answers adversarial node churn by weaving small expander or
clique "clouds" over the survivors, never deleting an edge that was
present originally or added by the adversary.  The package pairs the
state machine with an exact verification harness for the structural
bounds that property buys: edge preservation, bounded degree growth,
monotone subgraph density, connectivity, expansion, and stretch.
"""
from .adversary import Event, Strategy, Trace, decode_trace, encode_trace, gen_trace
from .engine import Cloud, CloudKind, CloudRegistry, Healer, RepairCounters, coherence_errors
from .expander import CloudTopology, ExpanderConfig, build_topology, expansion_exact
from .graph import BLACK, ColoredGraph, ShadowGraph
from .metrics import MetricsReport, evaluate

__all__ = [
    "BLACK",
    "Cloud",
    "CloudKind",
    "CloudRegistry",
    "CloudTopology",
    "ColoredGraph",
    "Event",
    "ExpanderConfig",
    "Healer",
    "MetricsReport",
    "RepairCounters",
    "ShadowGraph",
    "Strategy",
    "Trace",
    "build_topology",
    "coherence_errors",
    "decode_trace",
    "encode_trace",
    "evaluate",
    "expansion_exact",
    "gen_trace",
]

__version__ = "0.1.0"
