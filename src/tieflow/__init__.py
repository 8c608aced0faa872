"""Continuous-time tie-decay friendship networks from co-location events.

Pipeline: parse event logs, count co-occurrences, orient edges by degree,
evaluate tie-decay weights at any instant, rank nodes with PageRank, and
detect communities by simulated information flow. A synthetic generator
with planted communities supports end-to-end verification.
"""

from .cooccur import CooccurrenceGraph, build_cooccurrence_graph
from .events import EventLog, TimeRange, filter_events, parse_events
from .ifs import (
    CommunityAssignment,
    FlowParams,
    detect_communities,
    propagation_probability,
    select_origins,
    sweep_epsilon,
)
from .metrics import (
    BehaviorProfile,
    PartitionReport,
    behavior_profiles,
    modularity,
    partition_report,
    variance_comparison,
)
from .orient import DirectedTieGraph, node_degrees, orient_edges
from .pagerank import PageRankVector, WalkParams, pagerank, rank_nodes
from .synth import SyntheticConfig, generate, nmi
from .tiedecay import (
    DecayParams,
    NetworkSnapshot,
    edge_weight_at,
    sample_snapshots,
    snapshot_at,
)

__version__ = "0.1.0"

__all__ = [
    "BehaviorProfile",
    "CommunityAssignment",
    "CooccurrenceGraph",
    "DecayParams",
    "DirectedTieGraph",
    "EventLog",
    "FlowParams",
    "NetworkSnapshot",
    "PageRankVector",
    "PartitionReport",
    "SyntheticConfig",
    "TimeRange",
    "WalkParams",
    "behavior_profiles",
    "build_cooccurrence_graph",
    "detect_communities",
    "edge_weight_at",
    "filter_events",
    "generate",
    "modularity",
    "nmi",
    "node_degrees",
    "orient_edges",
    "pagerank",
    "parse_events",
    "partition_report",
    "propagation_probability",
    "rank_nodes",
    "sample_snapshots",
    "select_origins",
    "snapshot_at",
    "sweep_epsilon",
    "variance_comparison",
]
