"""Correctness checks, all outside the timed region.

Every miss counts as one failed request.  The checks only use the
harness's own copy of the network (read back from the file the server
was given) and the dict ``dijkstra`` oracle, so they share no code with
the CSR/overlay engines they judge.
"""

from __future__ import annotations

import random

from repro.core.privacy import breach_probability
from repro.exceptions import ReproError
from repro.search.dijkstra import dijkstra_path
from repro.service.wire import RouteResponse

from ledger.client import DriveResult, Outcome

_TOLERANCE = 1e-9
#: the oracle judges a seeded tenth of the requests, at least this many
_ORACLE_FRACTION = 0.10
_ORACLE_MIN = 100


def oracle_sample(outcomes: list[Outcome], seed: int) -> set[int]:
    """Indexes (into ``outcomes``) of the requests the oracle judges."""
    size = min(
        len(outcomes), max(_ORACLE_MIN, int(len(outcomes) * _ORACLE_FRACTION))
    )
    return set(random.Random(f"oracle:{seed}").sample(range(len(outcomes)), size))


def check_query(outcome: Outcome) -> str:
    """The query that left the proxy protects the user as requested."""
    request, query = outcome.request, outcome.query
    if not query.satisfies(request.setting):
        return "query smaller than the protection setting"
    if not query.covers(request.query):
        return "query does not cover the true pair"
    if breach_probability(query) > request.setting.target_breach + 1e-12:
        return "breach probability above 1/(f_s*f_t)"
    return ""


def check_table(outcome: Outcome) -> str:
    """Exactly ``|S|*|T|`` entries, in the query's wire order."""
    try:
        wire = RouteResponse.from_json(outcome.body)
    except ValueError:
        return "response does not decode"
    pairs = [(s, t) for s, t, _, _ in wire.paths]
    if pairs != outcome.query.pairs():
        return "table is not |S|x|T| in wire order"
    return ""


def check_walk(outcome: Outcome, network) -> str:
    """The user's path is a walk s..t whose weights sum to its cost."""
    path, true = outcome.path, outcome.request.query
    if path is None:
        return "no path returned"
    if (path.nodes[0], path.nodes[-1]) != true.as_pair():
        return "path does not join the true endpoints"
    total = 0.0
    for u, v in zip(path.nodes, path.nodes[1:]):
        if not network.has_edge(u, v):
            return "path uses a missing edge"
        total += network.edge_weight(u, v)
    if abs(total - path.distance) > _TOLERANCE:
        return "path cost differs from its summed weights"
    return ""


def check_oracle(outcome: Outcome, network, memo: dict) -> str:
    """The user's path is as short as the dict Dijkstra oracle's."""
    pair = outcome.request.query.as_pair()
    best = memo.get(pair)
    if best is None:
        best = memo[pair] = dijkstra_path(network, *pair).distance
    if abs(best - outcome.path.distance) > _TOLERANCE:
        return "path is not a shortest path"
    return ""


def check_identity(outcome: Outcome, stack) -> str:
    """Payload byte-identical to the in-process answer (static maps)."""
    try:
        expected = RouteResponse.from_server(stack.answer(outcome.query))
        got = RouteResponse.from_json(outcome.body)
    except (ReproError, ValueError):
        return "in-process answer or response decode failed"
    if got.payload_json() != expected.payload_json():
        return "payload differs from the in-process answer"
    return ""


def run_checks(
    result: DriveResult, network, seed: int, stack=None
) -> dict[int | str, str]:
    """Judge every request; returns ``{request index: first miss}``
    (a refused reweight is keyed ``"reweight@<index>"``).

    ``network`` is the harness's copy at epoch 0 and is advanced through
    the run's reweights here.  A request that overlapped reweights may
    match any epoch the server could have been in when it answered;
    matching none is a stale (or otherwise wrong) answer.  ``stack``,
    when given, is an in-process serving stack over the same static map
    for the byte-identity check on the oracle's sample.
    """
    failures: dict[int | str, str] = {}
    outcomes = result.outcomes
    sample = oracle_sample(outcomes, seed)
    pending: list[tuple[int, Outcome]] = []
    for position, outcome in enumerate(outcomes):
        miss = (
            outcome.error or check_query(outcome) or check_table(outcome)
        )
        if miss:
            failures[outcome.index] = miss
        else:
            pending.append((position, outcome))
    for reweight in result.reweights:
        if reweight.status != 200:
            failures[f"reweight@{reweight.before_index}"] = (
                f"http {reweight.status}"
            )

    network = network.copy()
    last_miss: dict[int, str] = {}
    for epoch in range(len(result.reweights) + 1):
        if epoch:
            u, v, weight = result.reweights[epoch - 1].change
            network.add_edge(u, v, weight)
        memo: dict = {}
        later = []
        for position, outcome in pending:
            lo, hi = outcome.epochs
            if epoch < lo:
                later.append((position, outcome))
                continue
            miss = check_walk(outcome, network)
            if not miss and position in sample:
                miss = check_oracle(outcome, network, memo)
            if miss and epoch < hi:
                later.append((position, outcome))  # try the next epoch
            if miss:
                last_miss[outcome.index] = miss
            else:
                last_miss.pop(outcome.index, None)
        pending = later
    failures.update(last_miss)

    if stack is not None:
        for position in sorted(sample):
            outcome = outcomes[position]
            if outcome.index not in failures:
                miss = check_identity(outcome, stack)
                if miss:
                    failures[outcome.index] = miss
    return failures
