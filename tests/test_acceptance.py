"""Release gate: eleven end-to-end checks, one printed line each.

Every check prints `acceptance NN <name>: PASS/FAIL (<measurements>)`
through the capture plumbing so the verdicts are visible in any pytest
run. The slow checks (desk-scale training, the distillation ladder, the
search-oracle sweep) share session fixtures; the twenty-thousand-game
corpus and its extracted positions are cached on disk between runs.

Thresholds pin what "works" means at desk scale: exact move counts,
exact oracle agreement, gradient error bounds, accuracy floors for the
training pipeline, and a crushing score against random play.
"""

import random
import time
from pathlib import Path

import numpy as np
import pytest

from corpus import (
    handicap_corpus_file, material_labeled, playout_positions,
)
from oracles import (
    SEARCH_MATE, finite_difference, minimax_node_count, relative_error,
    scalar_alphabeta,
)
from test_search import embed

from cmpchess.board import (
    Color, apply_move, legal_moves, parse_fen, startpos,
)
from cmpchess.dataset import extract_positions, load_positions, save_positions, split
from cmpchess.encoding import VECTOR_BITS, active_bits, decode, encode
from cmpchess.inference import (
    FeatureCache, LearnedComparator, MaterialComparator, Ordering,
    sparse_affine,
)
from cmpchess.match import MatchSpec, elo_from_fraction, run_match
from cmpchess.nn.layers import init_layer
from cmpchess.nn.model import (
    AutoEncoder, init_extractor, init_siamese, loss_and_gradients,
)
from cmpchess.nn.train import (
    STUDENT_EXTRACTOR_DIMS, STUDENT_HEAD_SIZES, TEACHER_EXTRACTOR_DIMS,
    TEACHER_HEAD_SIZES, TrainConfig, distill, pair_agreement, build_pair_set,
    train_deepchess,
)
from cmpchess.pgn import parse_pgn
from cmpchess.search import MAX_BOUND, MIN_BOUND, SearchLimits, SearchStats, alphabeta_cmp, search_root
from cmpchess.uci import EngineConfig


@pytest.fixture
def report(capsys):
    def _report(num: int, name: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\nacceptance {num:2d} {name}: {verdict} ({detail})")
        assert ok, f"criterion {num} {name}: {detail}"
    return _report


@pytest.fixture(scope="session")
def corpus10k():
    return playout_positions(10_000, seed=29)


@pytest.fixture(scope="session")
def odds_positions():
    """Labeled positions extracted from the 20k-game odds corpus.

    The extraction result is cached next to the PGN; delete both files
    to force a full rebuild (about three minutes).
    """
    pgn_path = handicap_corpus_file(20_000, seed=2026)
    cache = Path(str(pgn_path) + ".positions")
    if cache.exists():
        return list(load_positions(cache))
    rng = random.Random(0)
    positions = []
    games = 0
    with open(pgn_path) as f:
        for g in parse_pgn(f):
            games += 1
            start = parse_fen(g.tags["FEN"]) if "FEN" in g.tags else None
            positions.extend(extract_positions(g.moves, g.outcome, rng, k=10,
                                               start=start, game_id=games))
    assert games >= 20_000
    save_positions(cache, positions)
    return positions


@pytest.fixture(scope="session")
def material_teacher():
    """Full-size network trained on material-count labels (desk scale).

    Shared by the synthetic-accuracy and distillation checks. Returns
    (net, per-epoch stats, dataset, labeled positions).
    """
    pool = playout_positions(60_000, seed=17, min_ply=4, max_ply=60)
    labeled = material_labeled(pool)
    ds = split(labeled, val_per_class=1000, seed=2)
    cfg = TrainConfig(initial_lr=0.01, lr_decay_per_epoch=0.99, epochs=30,
                      pairs_per_epoch=100_000, minibatch=256, seed=4)
    init = init_extractor(TEACHER_EXTRACTOR_DIMS, np.random.default_rng(6),
                          np.float32)
    net, log = train_deepchess(ds, init, cfg,
                               head_sizes=TEACHER_HEAD_SIZES, val_pairs=10_000)
    return net, log, ds, labeled


@pytest.fixture(scope="session")
def odds_model(odds_positions):
    """Network trained from game outcomes on the 20k-game odds corpus.

    Shared by the real-data accuracy floor and the piece-ordering check
    (graded outcome labels are what teach piece values; noiseless
    synthetic labels provably cannot). Returns (net, per-epoch stats).
    """
    ds = split(odds_positions, val_per_class=1000, seed=1)
    cfg = TrainConfig(initial_lr=0.01, lr_decay_per_epoch=0.99, epochs=30,
                      pairs_per_epoch=100_000, minibatch=256, seed=3)
    init = init_extractor((773, 100, 100), np.random.default_rng(5),
                          np.float32)
    net, log = train_deepchess(ds, init, cfg, head_sizes=(100, 100, 2),
                               val_pairs=10_000)
    return net, log


# --- 1: move generator ----------------------------------------------------

PERFT_STARTPOS = (20, 400, 8902, 197_281)


def bulk_count(p, depth: int) -> int:
    moves = legal_moves(p)
    if depth == 1:
        return len(moves)
    return sum(bulk_count(apply_move(p, m), depth - 1) for m in moves)


def test_01_movegen_oracle(report):
    t0 = time.perf_counter()
    got = tuple(bulk_count(startpos(), d) for d in range(1, 5))
    elapsed = time.perf_counter() - t0
    ok = got == PERFT_STARTPOS and elapsed < 5.0
    report(1, "movegen perft", ok,
           f"perft 1..4 = {got}, {elapsed:.1f}s < 5s")


# --- 2: position encoding -------------------------------------------------

def expected_bits(p) -> set:
    bits = set()
    for sq, cell in enumerate(p.board):
        if cell:
            plane = (cell - 1) if cell > 0 else (5 + -cell)
            bits.add(plane * 64 + sq)
    if p.side_to_move == Color.WHITE:
        bits.add(768)
    for i in range(4):
        if p.castling & (1 << i):
            bits.add(769 + i)
    return bits


def test_02_encoding_properties(report, corpus10k):
    v0 = encode(startpos())
    start_ok = int(v0.sum()) == 37 and v0.shape == (VECTOR_BITS,)
    d0 = decode(v0)
    start_ok &= (d0.board == startpos().board and d0.valid
                 and d0.side_to_move == Color.WHITE)

    t0 = time.perf_counter()
    bad = 0
    for p in corpus10k:
        if set(active_bits(p)) != expected_bits(p):
            bad += 1
    for p in corpus10k[::5]:
        d = decode(encode(p))
        if not (d.valid and d.board == p.board
                and d.side_to_move == p.side_to_move
                and d.castling == p.castling):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = start_ok and bad == 0 and elapsed <= 1.0
    report(2, "encoding", ok,
           f"startpos 37 bits + roundtrip, {bad} property violations "
           f"over 10k positions, {elapsed:.2f}s <= 1s")


# --- 3: gradients ---------------------------------------------------------

def _jitter_biases(layers, rng):
    # keep every relu strictly off its kink so central differences are valid
    for layer in layers:
        layer.bias += rng.normal(0, 0.05, layer.bias.shape)


def _gradcheck_siamese(rng) -> float:
    dims = (int(rng.integers(4, 10)), int(rng.integers(3, 8)),
            int(rng.integers(2, 6)))
    head = (int(rng.integers(3, 8)), 2)
    net = init_siamese(dims, head, seed=int(rng.integers(1 << 30)),
                       dtype=np.float64)
    _jitter_biases(list(net.extractor.layers) + list(net.head), rng)
    n = int(rng.integers(3, 7))
    a = rng.random((n, dims[0]))
    b = rng.random((n, dims[0]))
    t = np.zeros((n, 2))
    t[np.arange(n), rng.integers(0, 2, n)] = 1
    _, grads = loss_and_gradients(net, (a, b, t))
    analytic = [g for pair in (grads.extractor + grads.head) for g in pair]
    params = [x for layer in (list(net.extractor.layers) + list(net.head))
              for x in (layer.weights, layer.bias)]
    numeric = finite_difference(
        lambda: loss_and_gradients(net, (a, b, t))[0], params)
    return max(relative_error(x, y) for x, y in zip(analytic, numeric))


def _gradcheck_autoencoder(rng) -> float:
    d_in = int(rng.integers(4, 11))
    d_hid = int(rng.integers(2, d_in))
    auto = AutoEncoder.fresh(d_in, d_hid, rng, dtype=np.float64)
    _jitter_biases([auto.encoder, auto.decoder], rng)
    x = rng.random((int(rng.integers(3, 7)), d_in))
    _, grads = auto.loss_and_gradients(x)
    analytic = [g for pair in grads for g in pair]
    params = [auto.encoder.weights, auto.encoder.bias,
              auto.decoder.weights, auto.decoder.bias]
    numeric = finite_difference(lambda: auto.loss_and_gradients(x)[0], params)
    return max(relative_error(x, y) for x, y in zip(analytic, numeric))


def test_03_gradient_check(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(20):
        err = (_gradcheck_siamese(rng) if i % 2 == 0
               else _gradcheck_autoencoder(rng))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(3, "gradient check", ok,
           f"20 random configs, worst relative error {worst:.2e} < 1e-4, "
           f"{elapsed:.1f}s < 30s")


# --- 4: training accuracy floors -------------------------------------------

def smoothed(xs, window: int = 3):
    return [sum(xs[max(0, i - window + 1):i + 1])
            / len(xs[max(0, i - window + 1):i + 1])
            for i in range(len(xs))]


@pytest.mark.slow
def test_04_training_floors(report, material_teacher, odds_model):
    _, log_a, _, _ = material_teacher
    synth_val = log_a[-1].val_accuracy

    _, log_b = odds_model
    real_val = log_b[-1].val_accuracy
    smooth = smoothed([st.mean_loss for st in log_b[:10]])
    monotone = all(b <= a + 1e-9 for a, b in zip(smooth, smooth[1:]))

    ok = synth_val >= 0.95 and real_val >= 0.70 and real_val > 0.5 and monotone
    report(4, "training floors", ok,
           f"synthetic-material val {synth_val:.3f} >= 0.95; "
           f"20k-game corpus val {real_val:.3f} >= 0.70, "
           f"first-10-epoch smoothed loss monotone: {monotone}")


# --- 5: distillation ------------------------------------------------------

@pytest.mark.slow
def test_05_distillation(report, material_teacher):
    teacher, _, ds, labeled = material_teacher
    held_out = build_pair_set(
        np.stack([x.vector for x in ds.val_W]),
        np.stack([x.vector for x in ds.val_L]), 10_000, seed=77)

    cfg1 = TrainConfig(initial_lr=0.01, lr_decay_per_epoch=0.99, epochs=50,
                       pairs_per_epoch=1, minibatch=256, seed=8)
    cfg2 = TrainConfig(initial_lr=0.01, lr_decay_per_epoch=0.99, epochs=24,
                       pairs_per_epoch=100_000, minibatch=256, seed=9)

    same, _ = distill(teacher, labeled, ds, cfg1, cfg2,
                      extractor_dims=TEACHER_EXTRACTOR_DIMS,
                      head_sizes=TEACHER_HEAD_SIZES)
    agree_same = pair_agreement(teacher, same, held_out)

    small, _ = distill(teacher, labeled, ds, cfg1, cfg2,
                       extractor_dims=STUDENT_EXTRACTOR_DIMS,
                       head_sizes=STUDENT_HEAD_SIZES)
    agree_small = pair_agreement(teacher, small, held_out)

    ok = agree_same >= 0.99 and agree_small >= 0.90
    report(5, "distillation", ok,
           f"self-distilled agreement {agree_same:.3f} >= 0.99, "
           f"small-student agreement {agree_small:.3f} >= 0.90")


# --- 6: search oracle equivalence -------------------------------------------

def test_06_search_oracle(report, corpus10k):
    pos = [p for p in corpus10k[::7] if legal_moves(p)][:200]
    assert len(pos) == 200
    lo, hi = MIN_BOUND, MAX_BOUND
    mat = MaterialComparator()

    t0 = time.perf_counter()
    agree = bound_ok = 0
    for p in pos:
        stats = SearchStats()
        bound, _ = alphabeta_cmp(p, 3, lo, hi, mat, stats=stats)
        counter = [0]
        want = scalar_alphabeta(p, 3, -2 * SEARCH_MATE, 2 * SEARCH_MATE,
                                counter)
        agree += embed(bound, p.side_to_move) == want
        bound_ok += stats.nodes <= minimax_node_count(p, 3)
    elapsed = time.perf_counter() - t0
    ok = agree == 200 and bound_ok == 200 and elapsed < 60.0
    report(6, "search oracle", ok,
           f"root values equal on {agree}/200 depth-3 searches, "
           f"nodes <= minimax on {bound_ok}/200, {elapsed:.1f}s < 60s")


# --- 7: cache transparency --------------------------------------------------

def test_07_cache_transparency(report, corpus10k):
    net = init_siamese((773, 32, 16), (16, 2), seed=41, dtype=np.float32)
    pos = [p for p in corpus10k[3::11] if legal_moves(p)][:50]
    assert len(pos) == 50
    limits = SearchLimits(max_depth=2)
    identical = 0
    cache = FeatureCache(1 << 14)
    for p in pos:
        with_cache = search_root(p, limits, LearnedComparator(net, cache))
        without = search_root(p, limits, LearnedComparator(net, None))
        identical += (with_cache.best_move == without.best_move
                      and with_cache.nodes == without.nodes)
    ok = identical == 50 and cache.hits > 0
    report(7, "cache transparency", ok,
           f"bestmove+nodes identical on {identical}/50 positions, "
           f"{cache.hits} cache hits")


# --- 8: sparse first layer ---------------------------------------------------

def test_08_sparse_dense(report):
    rng = np.random.default_rng(53)
    layer = init_layer(773, 600, "relu", rng, dtype=np.float32)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 60))
        bits = rng.choice(773, size=k, replace=False)
        x = np.zeros(773, dtype=np.float32)
        x[bits] = 1.0
        dense = layer.weights @ x + layer.bias
        sparse = sparse_affine(layer, [int(b) for b in bits])
        worst = max(worst, float(np.max(np.abs(sparse - dense))))
    ok = worst < 1e-5
    report(8, "sparse vs dense", ok,
           f"max |sparse - dense| = {worst:.2e} < 1e-5 over 1000 inputs")


# --- 9: rating arithmetic ----------------------------------------------------

def test_09_elo_formula(report):
    table = ((0.59, 63.2), (0.515, 10.4), (0.635, 96.2))
    errs = [abs(elo_from_fraction(s) - want) for s, want in table]
    ok = max(errs) <= 0.05 and elo_from_fraction(0.5) == 0.0
    report(9, "elo formula", ok,
           "0.59/0.515/0.635 -> +63.2/+10.4/+96.2 within 0.05, 0.5 -> 0")


# --- 10: piece-value ordering ------------------------------------------------

PAIR_BASES = (
    "r1bq1rk1/pppp1ppp/2n2n2/2b1p3/2B1P3/2NP1N2/PPP2PPP/R1BQ1RK1 w - - 0 10",
    "r2q1rk1/ppp1bppp/2np1n2/4p3/4P3/2NP1N2/PPPB1PPP/R2Q1RK1 w - - 0 10",
    "2rq1rk1/pp2bppp/2n1pn2/3p4/3P4/1PN1PN2/P3BPPP/2RQ1RK1 w - - 0 12",
)
# (queen, rook, bishop, knight, pawn) squares per base, per color
PAIR_BLACK = (("d8", "f8", "c5", "c6", "h7"),
              ("d8", "f8", "e7", "c6", "h7"),
              ("d8", "f8", "e7", "c6", "h7"))
PAIR_WHITE = (("d1", "f1", "c4", "c3", "h2"),
              ("d1", "f1", "d2", "c3", "h2"),
              ("d1", "f1", "e2", "c3", "h2"))
# ordered value comparisons: Q>R, Q>B, Q>N, Q>P, R>B, R>N, R>P, B>P, N>P
VALUE_ORDER = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4),
               (2, 4), (3, 4))


def without_piece(fen: str, square: str) -> str:
    board, rest = fen.split(" ", 1)
    ranks = board.split("/")
    file = ord(square[0]) - ord("a")
    rank = int(square[1]) - 1
    row = []
    for ch in ranks[7 - rank]:
        row.extend("1" * int(ch) if ch.isdigit() else ch)
    assert row[file] != "1", (fen, square)
    row[file] = "1"
    out, run = "", 0
    for ch in row:
        if ch == "1":
            run += 1
        else:
            out, run = out + (str(run) if run else "") + ch, 0
    ranks[7 - rank] = out + (str(run) if run else "")
    return "/".join(ranks) + " " + rest


def imbalance_pairs():
    """50 ordered pairs: same middlegame, one piece removed on each side."""
    pairs = []
    for base, black, white in zip(PAIR_BASES, PAIR_BLACK, PAIR_WHITE):
        for hi, lo in VALUE_ORDER:
            # removing a bigger black piece helps White more
            pairs.append((without_piece(base, black[hi]),
                          without_piece(base, black[lo]), True))
            # removing a bigger white piece hurts White more
            pairs.append((without_piece(base, white[hi]),
                          without_piece(base, white[lo]), False))
    return pairs[:50]


@pytest.mark.slow
def test_10_piece_value_ordering(report, odds_model):
    net, _ = odds_model
    cmp = LearnedComparator(net)
    good = 0
    for fen_a, fen_b, first_better in imbalance_pairs():
        verdict = cmp(parse_fen(fen_a), parse_fen(fen_b))
        want = (Ordering.FIRST_BETTER if first_better
                else Ordering.SECOND_BETTER)
        good += verdict == want
    ok = good >= 45
    report(10, "piece-value ordering", ok,
           f"outcome-trained model orders {good}/50 imbalance pairs (>= 45)")


# --- 11: match floor ---------------------------------------------------------

def test_11_match_sanity(report):
    spec = MatchSpec(
        engines=(EngineConfig(comparator="material", max_depth=2),
                 EngineConfig(comparator="random", seed=0, max_depth=1)),
        games=20, max_plies=300)
    rep = run_match(spec)
    wins, losses, draws = rep.score

    consistent = (wins + losses + draws == 20
                  and abs(rep.points_fraction - (wins + draws / 2) / 20) < 1e-12
                  and rep.pgn.count("[Event ") == 20
                  and len(rep.reasons) == 20)
    if 0 < rep.points_fraction < 1:
        consistent &= abs(rep.elo_diff
                          - elo_from_fraction(rep.points_fraction)) < 1e-9
    else:
        consistent &= rep.elo_diff is None

    ok = rep.points_fraction >= 0.95 and consistent
    report(11, "match floor", ok,
           f"material engine vs random mover: +{wins} -{losses} ={draws} "
           f"({rep.points_fraction:.2f} points >= 0.95), "
           f"report arithmetic consistent: {consistent}")
