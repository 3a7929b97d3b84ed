"""Per-layer metrics of a traced run.

`install` wraps library functions at the module attributes their callers
resolve: `cmpchess.search.legal_moves` is board work done for the search,
while the `legal_moves` calls made inside board.py itself (by
`apply_move`) stay part of `board.apply_move`. Match adjudication calls
board.py through `cmpchess.match` and is left in `match.self_s`.

`metrics` turns the spans and counters of the traced passes into the
`per_layer` metrics of BENCHMARK.json. Every metric is reported on every
workload; a layer the workload does not run reads 0. The tracing overhead
(`trace.overhead_s`, traced minus untraced median pass time) is a
measurement only where it exceeds `trace.untraced_spread_s`.
"""

from __future__ import annotations

import random
import statistics

import numpy as np

from cmpchess import dataset, encoding, inference, match, search
from cmpchess.nn import model as nn_model
from cmpchess.nn import train as nn_train

# distinct learned-comparator pairs that `inference.fastpath_flips` checks,
# sampled in one untimed pass after the traced ones
FLIP_PAIRS = 512

# (owner, attribute, span name)
SPANS = (
    (search, "legal_moves", "board.legal_moves"),
    (search, "apply_move", "board.apply_move"),
    (search, "bound_compare", "search.bound_compare"),
    (inference, "active_bits", "encoding.active_bits"),
    (inference, "sparse_affine", "inference.sparse_affine"),
    (inference, "features_of", "inference.features_of"),
    (inference, "compare", "inference.compare"),
    (match, "run_match", "match"),
    (nn_train, "loss_and_gradients", "nn.loss_and_gradients"),
    (nn_train, "apply_gradients", "nn.apply_gradients"),
    (nn_train, "pair_accuracy", "nn.pair_accuracy"),
    (nn_train, "train_deepchess", "nn.train_deepchess"),
    (dataset, "load_positions", "dataset.load_positions"),
    (dataset, "split", "dataset.split"),
    (dataset, "class_matrix", "dataset.class_matrix"),
)


class PairProbe:
    """Counts comparator calls whose ordered (zobrist_a, zobrist_b) pair
    was already asked earlier in the same `search_root` call."""

    def __init__(self):
        self.seen: set = set()
        self.calls = 0
        self.repeats = 0

    def new_search(self, args) -> None:
        self.seen.clear()

    def pair(self, pa, pb) -> None:
        key = (pa.zobrist, pb.zobrist)
        self.calls += 1
        if key in self.seen:
            self.repeats += 1
        else:
            self.seen.add(key)


def install(tracer) -> PairProbe:
    probe = PairProbe()
    for owner, attr, name in SPANS:
        tracer.patch(owner, attr, name)
    tracer.patch(nn_train, "pair_batches", "nn.pair_batches", generator=True)
    for owner in (search, match):
        tracer.patch(owner, "search_root", "search", on_call=probe.new_search)
    tracer.patch(inference.MaterialComparator, "__call__", "inference.material",
                 on_call=lambda args: probe.pair(args[1], args[2]))
    tracer.patch(inference, "compare_white_perspective", "inference.learned",
                 on_call=lambda args: probe.pair(args[1], args[2]))
    return probe


def sample_learned_pairs(run_pass) -> tuple:
    """(steps, pairs): `run_pass()` with a recorder on
    `cmpchess.inference.compare_white_perspective`, and a uniform sample
    (reservoir sampling) of FLIP_PAIRS distinct (net, position a,
    position b) it saw, a != b. The key holds the net object, so no two
    nets' pairs are taken for one another."""
    seen: set = set()
    sample: list = []
    rng = random.Random(0)  # the pairs themselves vary with the seed
    inner = inference.compare_white_perspective

    def recorded(net, pa, pb, *rest):
        key = (net, pa.zobrist, pb.zobrist)
        if pa.zobrist != pb.zobrist and key not in seen:
            seen.add(key)
            if len(sample) < FLIP_PAIRS:
                sample.append((net, pa, pb))
            else:
                k = rng.randrange(len(seen))
                if k < FLIP_PAIRS:
                    sample[k] = (net, pa, pb)
        return inner(net, pa, pb, *rest)

    inference.compare_white_perspective = recorded
    try:
        steps = run_pass()
    finally:
        inference.compare_white_perspective = inner
    return steps, sample


def fastpath_flips(pairs: list) -> int:
    """Sampled pairs on which the cached sparse `compare` verdict differs
    from the argmax of the dense batched `forward_pairs`."""
    by_net: dict = {}
    for net, pa, pb in pairs:
        by_net.setdefault(id(net), (net, []))[1].append((pa, pb))
    flips = 0
    for net, group in by_net.values():
        cache = inference.FeatureCache(4096)
        a = np.stack([encoding.encode(pa) for pa, _ in group])
        b = np.stack([encoding.encode(pb) for _, pb in group])
        dense = nn_model.forward_pairs(net, a, b).argmax(axis=1)
        for (pa, pb), d in zip(group, dense):
            verdict = inference.compare(
                net, inference.features_of(pa, net, cache),
                inference.features_of(pb, net, cache))[0]
            flips += (verdict is inference.Ordering.FIRST_BETTER) != (d == 0)
    return int(flips)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def metrics(snapshots: list, plain: list, traced: list,
            pairs: list) -> tuple:
    """(per-layer metrics, passes whose exact call counts differ from the
    first traced pass). `plain`/`traced` hold (busy, search) seconds of
    each untraced/traced pass; `pairs` is the `sample_learned_pairs`
    sample."""
    from workloads import merge

    calls, _, probe, steps = snapshots[0]
    mismatched = sum(s[0] != calls for s in snapshots[1:])

    def self_s(name: str) -> float:
        return statistics.median(s[1].get(name, 0.0) for s in snapshots)

    sig = merge(s.signature for s in steps)
    counts = merge(s.counts for s in steps)
    nodes = sig.get("nodes", 0)
    cmp_calls = sig.get("cmp_calls", 0)
    plain_busy = [busy for busy, _ in plain]
    untraced = statistics.median(plain_busy)
    # quartile distance of the untraced passes; an overhead inside it is
    # noise (one pass gives no spread and reads 0)
    q1, _, q3 = (statistics.quantiles(plain_busy, n=4) if len(plain_busy) > 1
                 else (0.0, 0.0, 0.0))
    overhead = statistics.median(busy for busy, _ in traced) - untraced
    search_s = statistics.median(s for _, s in plain)

    m = {}
    for name in ("board.legal_moves", "board.apply_move",
                 "encoding.active_bits", "inference.sparse_affine",
                 "inference.features_of", "inference.compare",
                 "inference.material", "inference.learned",
                 "search.bound_compare"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s(name)
    hits = counts.get("cache_hits", 0)
    m.update({
        "board.legal_moves_per_node": _ratio(calls["board.legal_moves"], nodes),
        "inference.cache_hit_rate": _ratio(
            hits, hits + counts.get("cache_misses", 0)),
        "inference.cache_evictions": counts.get("cache_evictions", 0),
        "inference.repeat_pair_share": _ratio(probe.repeats, probe.calls),
        "inference.fastpath_flips": fastpath_flips(pairs),
        "search.nodes": nodes,
        "search.cutoffs": sig.get("cutoffs", 0),
        "search.cmp_calls": cmp_calls,
        "search.cmp_calls_per_node": _ratio(cmp_calls, nodes),
        "search.nodes_per_s": _ratio(nodes, search_s),
        "search.self_s": self_s("search"),
        "match.games": counts.get("games", 0),
        "match.plies": counts.get("plies", 0),
        "match.self_s": self_s("match"),
        "dataset.records": counts.get("records", 0),
        "dataset.load_records_per_s": _ratio(
            counts.get("records", 0), self_s("dataset.load_positions")),
        "trace.untraced_s": untraced,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced,
        "trace.untraced_spread_s": q3 - q1,
    })
    for name in ("nn.pair_batches", "nn.loss_and_gradients",
                 "nn.apply_gradients", "nn.pair_accuracy",
                 "nn.train_deepchess", "dataset.load_positions",
                 "dataset.split", "dataset.class_matrix"):
        m[f"{name}.self_s"] = self_s(name)
    return m, mismatched
