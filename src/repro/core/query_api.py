"""The shared declarative query surface of every matcher backend.

:class:`QueryInterfaceMixin` holds everything the plain
:class:`~repro.core.matcher.SubsequenceMatcher` and the
:class:`~repro.core.sharded.ShardedMatcher` expose identically on top of
their per-class ``execute(spec)`` dispatch: the heterogeneous
:meth:`~QueryInterfaceMixin.execute_many` batch entry point.  Keeping it
here -- written once -- is what guarantees the two backends' public query
APIs cannot drift.

The host class only needs to provide ``execute(spec) -> QueryResult`` and
the ``last_query_stats`` / ``last_batch_stats`` attributes.
"""

from __future__ import annotations

from typing import List

from repro.core.queries import BaseQuery, QueryResult, QueryStats
from repro.exceptions import QueryError


class QueryInterfaceMixin:
    """``execute_many``, shared by every backend."""

    def execute_many(self, specs: List) -> List[QueryResult]:
        """Answer many bound specs -- of any mix of query types -- in order.

        Each spec carries its own query sequence and parameters, so one
        batch can mix range, longest, nearest, and top-k queries.  A query that
        raises :class:`~repro.exceptions.QueryError` (a Type III/top-k
        query with no segment match at ``max_radius``, or an unbound spec)
        contributes an envelope with
        :attr:`~repro.core.queries.QueryResult.error` set instead of
        aborting the batch; an entry that is not a query spec at all is a
        programming error and propagates.  The error envelope carries the
        failed query's own statistics (the sweep that found no segment
        matches) or empty statistics when the query failed before doing any
        work -- never another query's accounting.  Per-query statistics
        land in :attr:`last_batch_stats` (:attr:`last_query_stats` keeps
        the final query's stats).
        """
        results: List[QueryResult] = []
        batch_stats: List[QueryStats] = []
        for spec in specs:
            previous_stats = self.last_query_stats
            try:
                result = self.execute(spec)
            except QueryError as error:
                if not isinstance(spec, BaseQuery):
                    raise
                stats = self.last_query_stats
                if stats is previous_stats:
                    # The query failed before installing its own stats
                    # (e.g. an unbound spec): report zero work, not the
                    # previous query's accounting.
                    stats = QueryStats()
                result = QueryResult.build(spec, [], stats, error=str(error))
            results.append(result)
            batch_stats.append(result.stats)
        self.last_batch_stats = batch_stats
        return results
