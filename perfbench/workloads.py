"""The benchmark's workloads, driven through cmpchess's public API.

Each workload is one closed-loop caller: it starts the next search, match
or training call only when the previous one has returned. Inputs are made
from the workload seed in `setup` (FENs, a dataset file written with
`save_positions`, model files written with `init_siamese` + `save_model`);
the library sees only those.

A workload's `step(state, i)` runs one unit of work, checks its output and
returns a `Step`. The first `PASS_STEPS` steps form the signature pass:
their exact counts (nodes, comparator calls, cutoffs, moves, losses) must
repeat whenever the pass is run again on the same code.

Library functions are called through their module attributes (for
example `search.search_root`) so that a traced run's wrappers see them.
"""

from __future__ import annotations

import io
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cmpchess import board, dataset, encoding, inference, match, pgn, search, uci
from cmpchess.nn import io as nn_io
from cmpchess.nn import layers as nn_layers
from cmpchess.nn import model as nn_model
from cmpchess.nn import train as nn_train


@dataclass
class Step:
    """One closed-loop unit of work and what its checks found."""
    latencies: list     # seconds, one per timed library call
    units: int          # positions searched, plies played or pairs trained
    busy_s: float       # wall time inside the timed library calls
    attempted: int
    failed: int
    signature: dict     # exact counts; ints add up over a pass, lists join
    counts: dict = field(default_factory=dict)  # layer counters, added up


def merge(parts) -> dict:
    """Sum the int fields and concatenate the list fields of dicts."""
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if isinstance(value, list):
                out.setdefault(key, []).extend(value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def renamed(metrics: dict, names: dict) -> dict:
    return {names.get(k, k): v for k, v in metrics.items()}


def playout_positions(n: int, rng: random.Random, min_ply: int,
                      max_ply: int) -> list:
    """Ends of `n` quiet random playouts from the start position.

    Each playout runs a uniformly drawn number of plies in [min_ply,
    max_ply]. A move is drawn from the non-captures when there are any,
    which keeps material on the board. Playouts that end the game early
    are dropped.
    """
    out = []
    while len(out) < n:
        p = board.startpos()
        for _ in range(rng.randint(min_ply, max_ply)):
            moves = board.legal_moves(p)
            if not moves:
                break
            moves = [m for m in moves if not m.capture] or moves
            p = board.apply_move(p, rng.choice(moves))
        else:
            if board.legal_moves(p):
                out.append(p)
    return out


class SearchMaterial:
    """Fixed-depth searches with the material comparator.

    Depth 3, not 4: depth-4 node counts have a heavy tail (one position in
    150 took 137k nodes, twenty times the mean), so a 30-second run's
    throughput hung on whether it drew such a position. At depth 3 the
    largest tree is a few times the mean and a run searches several
    hundred positions. Positions come from quiet random playouts for the
    same reason: uniform playouts hang pieces, and the capture trees that
    follow spread node counts further. A fresh comparator per search keeps
    every search independent of the ones before it.
    """

    name = "search-material"
    DEPTH = 3
    POSITIONS = 1024
    PASS_STEPS = 64

    def setup(self, workdir: Path, seed: int):
        rng = random.Random(seed)
        positions = playout_positions(self.POSITIONS, rng, 16, 40)
        return [board.to_fen(p) for p in positions]

    def step(self, fens, i: int) -> Step:
        fen = fens[i % len(fens)]
        p = board.parse_fen(fen)
        cmp = inference.MaterialComparator()
        limits = search.SearchLimits(max_depth=self.DEPTH)
        began = time.perf_counter()
        result = search.search_root(p, limits, cmp)
        took = time.perf_counter() - began
        ok = (result.depth_reached == self.DEPTH
              and result.best_move in board.legal_moves(board.parse_fen(fen)))
        return Step([took], 1, took, 1, 0 if ok else 1,
                    {"nodes": result.nodes, "cutoffs": result.cutoffs,
                     "cmp_calls": cmp.calls,
                     "moves": [result.best_move.uci()]})

    def warm_up(self, fens) -> None:
        self.step(fens, 0)

    def named_metrics(self, metrics: dict, steps: list) -> dict:
        return renamed(metrics, {"call_ms_p50": "search_ms_p50",
                                 "call_ms_p90": "search_ms_p90",
                                 "work_per_s": "positions_per_s"})

    def recheck(self, fens, steps: list) -> tuple:
        """Search the first positions again; any changed count fails."""
        failed = sum(self.step(fens, i).signature != steps[i].signature
                     for i in range(4))
        return 4, failed


@dataclass
class MatchState:
    openings: list
    engines: tuple      # (teacher, student) EngineConfigs
    nets: tuple         # the same two models, loaded once in setup
    seed: int
    # (root, engine index, (move, nodes, cutoffs, comparator calls)) for
    # every ply of the signature pass
    first_plies: list = field(default_factory=list)


class MatchLearned:
    """Depth-3 matches, random-init teacher against random-init student.

    The two nets stand in for committed model files, so their weights are
    the same on every seed (init seeds 1 and 2); the workload seed picks
    the openings. A random-init net's verdicts set the tree shape, and
    nets drawn per seed made nodes per search differ up to threefold
    between seeds.

    One step is one `run_match` call of one short game from the next
    opening; the teacher plays White on even steps and Black on odd ones.
    Short games from distinct openings give a run many independent games,
    so that the cost of a few long games does not set a run's figures, and
    a step ends soon after the run's time is up. Each ply's `search_root` is timed by a wrapper on
    `cmpchess.match.search_root`, which also reads the comparator's call
    count and feature-cache counters around the search.
    """

    name = "match-learned"
    DEPTH = 3
    OPENINGS = 128
    MAX_PLIES = 6
    PASS_STEPS = 2
    NET_SEEDS = (1, 2)  # teacher, student
    REASONS = ("checkmate", "stalemate", "fifty-move rule",
               "threefold repetition", "insufficient material",
               "adjudicated at move cap")

    def setup(self, workdir: Path, seed: int) -> MatchState:
        rng = random.Random(seed)
        openings = [board.to_fen(p)
                    for p in playout_positions(self.OPENINGS, rng, 10, 24)]
        paths = (workdir / "teacher.dchs", workdir / "student.dchs")
        nn_io.save_model(nn_model.init_siamese(
            nn_train.TEACHER_EXTRACTOR_DIMS, nn_train.TEACHER_HEAD_SIZES,
            seed=self.NET_SEEDS[0]), paths[0])
        nn_io.save_model(nn_model.init_siamese(
            nn_train.STUDENT_EXTRACTOR_DIMS, nn_train.STUDENT_HEAD_SIZES,
            seed=self.NET_SEEDS[1]), paths[1])
        nets = tuple(nn_io.load_model(path) for path in paths)
        engines = tuple(uci.EngineConfig(comparator="learned",
                                         model_path=str(path),
                                         max_depth=self.DEPTH)
                        for path in paths)
        return MatchState(openings, engines, nets, seed)

    def _timed_search_root(self, plies: list, teacher_dims: tuple):
        inner = match.search_root

        def timed(p, limits, cmp, *rest):
            engine = 0 if cmp.net.extractor.dims == teacher_dims else 1
            cache = cmp.cache
            before = (cmp.calls, cache.hits, cache.misses, cache.evictions)
            began = time.perf_counter()
            result = inner(p, limits, cmp, *rest)
            took = time.perf_counter() - began
            after = (cmp.calls, cache.hits, cache.misses, cache.evictions)
            plies.append((p, result, took,
                          [b - a for a, b in zip(before, after)], engine))
            return result

        return timed

    def _check_search(self, p, result) -> bool:
        return (result.depth_reached == self.DEPTH
                and result.best_move in board.legal_moves(p))

    def step(self, state: MatchState, i: int) -> Step:
        engines = state.engines if i % 2 == 0 else state.engines[::-1]
        opening = state.openings[i % len(state.openings)]
        spec = match.MatchSpec(engines=engines, games=1, openings=[opening],
                               alternate_colors=False, max_plies=self.MAX_PLIES)
        plies: list = []
        inner = match.search_root
        match.search_root = self._timed_search_root(
            plies, state.nets[0].extractor.dims)
        try:
            began = time.perf_counter()
            report = match.run_match(spec)
            took = time.perf_counter() - began
        finally:
            match.search_root = inner

        failed = sum(not self._check_search(p, r) for p, r, *_ in plies)
        malformed: list = []
        games = list(pgn.parse_pgn(io.StringIO(report.pgn), malformed.append))
        played = [m.uci() for g in games for m in g.moves]
        searched = [r.best_move.uci() for _, r, *_ in plies]
        game_ok = (len(games) == 1 and not malformed and played == searched
                   and report.reasons[0] in self.REASONS
                   and games[0].tags.get("Termination") == report.reasons[0])
        failed += not game_ok
        if i == 0:
            state.first_plies = []
        if i < self.PASS_STEPS:
            state.first_plies += [
                (p, engine, (r.best_move.uci(), r.nodes, r.cutoffs, d[0]))
                for p, r, _, d, engine in plies]
        calls, hits, misses, evictions = (sum(d[k] for _, _, _, d, _ in plies)
                                          for k in range(4))
        return Step([t for _, _, t, *_ in plies], len(plies), took,
                    len(plies) + 1, failed,
                    {"nodes": sum(r.nodes for _, r, *_ in plies),
                     "cutoffs": sum(r.cutoffs for _, r, *_ in plies),
                     "cmp_calls": calls, "moves": searched,
                     "reasons": list(report.reasons)},
                    {"games": len(games), "plies": len(plies),
                     "cache_hits": hits, "cache_misses": misses,
                     "cache_evictions": evictions})

    def _search_alone(self, state: MatchState, fen: str, engine: int):
        cmp = uci.build_comparator(state.engines[engine])
        p = board.parse_fen(fen)
        result = search.search_root(
            p, search.SearchLimits(max_depth=self.DEPTH), cmp)
        return p, result, cmp.calls

    def warm_up(self, state: MatchState) -> None:
        self._search_alone(state, state.openings[0], 0)

    def named_metrics(self, metrics: dict, steps: list) -> dict:
        return renamed(metrics, {"call_ms_p50": "search_ms_p50",
                                 "call_ms_p90": "search_ms_p90",
                                 "work_per_s": "plies_per_s"})

    def recheck(self, state: MatchState, steps: list) -> tuple:
        """Search sampled plies of the first match again, each on its own
        with a fresh comparator and cache; any changed count fails."""
        first = state.first_plies
        rng = random.Random(state.seed)
        failed = 0
        picks = rng.sample(range(len(first)), min(3, len(first)))
        for k in picks:
            root, engine, want = first[k]
            p, result, calls = self._search_alone(
                state, board.to_fen(root), engine)
            got = (result.best_move.uci(), result.nodes, result.cutoffs, calls)
            failed += got != want or not self._check_search(p, result)
        return len(picks), failed


@dataclass
class TrainState:
    path: Path
    init: nn_model.FeatureExtractor
    seed: int


class TrainTeacher:
    """load_positions -> split -> one train_deepchess epoch on the teacher.

    The dataset holds positions from random playouts labelled by the sign
    of their material count (ties dropped), as in the material-teacher
    acceptance check. Every step trains the same pairs from the same
    initial weights, so its loss, accuracies and counts repeat exactly.

    The epoch is long enough that its fixed work (the train-accuracy
    probe of min(pairs, 8192) pairs, validation and `class_matrix`) is a
    small share of the call; `train_pairs_per_s` covers the whole call.
    The latency samples are the epoch's minibatch steps, timed by a
    wrapper on `cmpchess.nn.train.pair_batches`: one sample runs from the
    request for a minibatch to the request for the next, so it covers
    drawing the pairs, `loss_and_gradients` and `apply_gradients`.
    """

    name = "train-teacher"
    RECORDS = 4000
    VAL_PER_CLASS = 200
    PAIRS = 32768
    VAL_PAIRS = 1024
    MINIBATCH = 128
    PASS_STEPS = 1

    def setup(self, workdir: Path, seed: int) -> TrainState:
        rng = random.Random(seed)
        labeled = []
        while len(labeled) < self.RECORDS:  # every ply of each playout
            p = board.startpos()
            for ply in range(rng.randint(4, 60)):
                moves = board.legal_moves(p)
                if not moves:
                    break
                p = board.apply_move(p, rng.choice(moves))
                balance = inference.material_balance(p)
                if ply >= 3 and balance:
                    label = dataset.Label.W if balance > 0 else dataset.Label.L
                    labeled.append(dataset.LabeledPosition(
                        encoding.encode(p), label, len(labeled), ply))
        path = workdir / "positions.dcds"
        dataset.save_positions(path, labeled[:self.RECORDS])
        model_path = workdir / "teacher.dchs"
        nn_io.save_model(nn_model.init_siamese(
            nn_train.TEACHER_EXTRACTOR_DIMS, nn_train.TEACHER_HEAD_SIZES,
            seed=seed), model_path)
        return TrainState(path, nn_io.load_model(model_path).extractor, seed)

    @staticmethod
    def _timed_pair_batches(latencies: list):
        inner = nn_train.pair_batches

        def timed(w_mat, l_mat, n_pairs, batch_size, *rest):
            batches = inner(w_mat, l_mat, n_pairs, batch_size, *rest)
            if batch_size >= n_pairs:  # a probe or validation set, not SGD
                yield from batches
                return
            began = time.perf_counter()
            for triple in batches:
                yield triple
                now = time.perf_counter()
                latencies.append(now - began)
                began = now

        return timed

    def step(self, state: TrainState, i: int) -> Step:
        began = time.perf_counter()
        records = dataset.load_positions(state.path)
        load_s = time.perf_counter() - began
        ds = dataset.split(records, self.VAL_PER_CLASS, state.seed)
        cfg = nn_train.TrainConfig(epochs=1, pairs_per_epoch=self.PAIRS,
                                   minibatch=self.MINIBATCH, seed=state.seed)
        latencies: list = []
        inner = nn_train.pair_batches
        nn_train.pair_batches = self._timed_pair_batches(latencies)
        began = time.perf_counter()
        try:
            _, log = nn_train.train_deepchess(
                ds, state.init, cfg, head_sizes=nn_train.TEACHER_HEAD_SIZES,
                val_pairs=self.VAL_PAIRS)
        except nn_layers.NonFiniteLoss:
            log = []
        finally:
            took = time.perf_counter() - began
            nn_train.pair_batches = inner
        losses = [[e.mean_loss, e.train_accuracy, e.val_accuracy] for e in log]
        ok = len(log) == 1 and bool(np.isfinite(losses).all())
        return Step(latencies, self.PAIRS, took, 1, 0 if ok else 1,
                    {"records": len(records), "losses": losses},
                    {"records": len(records), "load_s": load_s})

    def warm_up(self, state: TrainState) -> None:
        self.step(state, 0)

    def named_metrics(self, metrics: dict, steps: list) -> dict:
        named = renamed(metrics, {"call_ms_p50": "minibatch_ms_p50",
                                  "call_ms_p90": "minibatch_ms_p90",
                                  "work_per_s": "train_pairs_per_s"})
        named["load_records_per_s"] = (sum(s.counts["records"] for s in steps)
                                       / sum(s.counts["load_s"] for s in steps))
        return named

    def recheck(self, state: TrainState, steps: list) -> tuple:
        again = self.step(state, 0)
        return 1, int(again.signature != steps[0].signature)


WORKLOADS = {w.name: w for w in (SearchMaterial(), MatchLearned(),
                                 TrainTeacher())}
