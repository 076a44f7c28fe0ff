"""OPAQUE core: obfuscated path queries, the obfuscator, server and filter.

This package implements the paper's contribution proper: the obfuscated
path query abstraction (Definition 1), breach probability (Definition 2),
the independent/shared query variants (Section III-C), and the three system
components of Figure 6 — path query obfuscator, obfuscated path query
processor (server side), and candidate result path filter — plus the
adversary models used to measure how well the protection works.
"""

from repro.core.query import (
    ClientRequest,
    ObfuscatedPathQuery,
    PathQuery,
    ProtectionSetting,
)
from repro.core.privacy import (
    PrivacyReport,
    breach_probability,
    pair_posterior,
    posterior_breach,
    posterior_entropy_bits,
    privacy_report,
)
from repro.core.endpoints import (
    CompactEndpointStrategy,
    FakeEndpointStrategy,
    PopularityWeightedStrategy,
    RingEndpointStrategy,
    SelectionContext,
    UniformEndpointStrategy,
    get_strategy,
)
from repro.core.clustering import QueryCluster, cluster_requests
from repro.core.obfuscator import ObfuscationRecord, PathQueryObfuscator
from repro.core.server import DirectionsServer, ServerResponse
from repro.core.filter import CandidateResultPathFilter
from repro.core.attacks import (
    CollusionAttack,
    LinkageAttack,
    ServerAdversary,
    empirical_breach_rate,
)
from repro.core.protocol import TrafficLog, estimate_message_bytes
from repro.core.system import OpaqueSystem, SessionReport
from repro.core.planner import ProtectionPlan, candidate_splits, plan_protection
from repro.core.verification import CandidatePathVerifier
from repro.core.privacy import route_exposure

__all__ = [
    "PathQuery",
    "ObfuscatedPathQuery",
    "ProtectionSetting",
    "ClientRequest",
    "breach_probability",
    "pair_posterior",
    "posterior_breach",
    "posterior_entropy_bits",
    "privacy_report",
    "PrivacyReport",
    "FakeEndpointStrategy",
    "SelectionContext",
    "UniformEndpointStrategy",
    "RingEndpointStrategy",
    "CompactEndpointStrategy",
    "PopularityWeightedStrategy",
    "get_strategy",
    "QueryCluster",
    "cluster_requests",
    "PathQueryObfuscator",
    "ObfuscationRecord",
    "DirectionsServer",
    "ServerResponse",
    "CandidateResultPathFilter",
    "ServerAdversary",
    "CollusionAttack",
    "LinkageAttack",
    "empirical_breach_rate",
    "TrafficLog",
    "estimate_message_bytes",
    "OpaqueSystem",
    "SessionReport",
    "ProtectionPlan",
    "plan_protection",
    "candidate_splits",
    "CandidatePathVerifier",
    "route_exposure",
]
