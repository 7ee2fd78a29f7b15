"""The paper's primary contribution: the subsequence-matching framework.

The framework runs in five steps (Section 7):

1. partition every database sequence into windows of length ``lambda/2``
   (:mod:`repro.core.segmentation`);
2. insert the windows into a metric index -- by default the reference net
   (:mod:`repro.indexing`);
3. extract from the query all segments with lengths between
   ``lambda/2 - lambda0`` and ``lambda/2 + lambda0``;
4. run a range query for every query segment, producing (segment, window)
   pairs;
5. generate candidate subsequence pairs from those matches and verify them
   (:mod:`repro.core.candidates`, :mod:`repro.core.verification`), answering
   the user's Type I / II / III query.

:class:`~repro.core.matcher.SubsequenceMatcher` is the public face of the
pipeline.
"""

from repro.core.config import MatcherConfig
from repro.core.queries import (
    QueryResult,
    QueryStats,
    RangeQuery,
    LongestSubsequenceQuery,
    NearestSubsequenceQuery,
    SegmentMatch,
    SubsequenceMatch,
    TopKCandidates,
    TopKQuery,
    match_ranking_key,
)
from repro.core.segmentation import partition_database, extract_query_segments
from repro.core.candidates import CandidateChain, chain_segment_matches
from repro.core.executor import (
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    make_executor,
)
from repro.core.pipeline import ProbeResult, QueryPipeline
from repro.core.matcher import SubsequenceMatcher
from repro.core.sharded import ShardedMatcher
from repro.core.service import SearchService, config_fingerprint
from repro.core.wire import (
    WIRE_SCHEMA_VERSION,
    SearchRequest,
    canonical_json,
    error_envelope,
    parse_search_request,
    parse_spec,
    result_envelope,
    sequence_from_wire,
    sequence_to_wire,
)
from repro.core.bruteforce import brute_force_matches, brute_force_longest, brute_force_nearest

__all__ = [
    "SearchService",
    "config_fingerprint",
    "WIRE_SCHEMA_VERSION",
    "SearchRequest",
    "canonical_json",
    "error_envelope",
    "parse_search_request",
    "parse_spec",
    "result_envelope",
    "sequence_from_wire",
    "sequence_to_wire",
    "Executor",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "make_executor",
    "ShardedMatcher",
    "MatcherConfig",
    "QueryResult",
    "QueryStats",
    "RangeQuery",
    "LongestSubsequenceQuery",
    "NearestSubsequenceQuery",
    "SegmentMatch",
    "SubsequenceMatch",
    "TopKCandidates",
    "TopKQuery",
    "match_ranking_key",
    "partition_database",
    "extract_query_segments",
    "CandidateChain",
    "chain_segment_matches",
    "ProbeResult",
    "QueryPipeline",
    "SubsequenceMatcher",
    "brute_force_matches",
    "brute_force_longest",
    "brute_force_nearest",
]
