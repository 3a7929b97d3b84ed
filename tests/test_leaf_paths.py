"""The cheap node paths against the slow paths they replace.

`has_legal_move` must agree with `bool(legal_moves(p))`, `legal_moves`
must keep its move order, the table-driven `baseline_eval` must equal
the per-square loop it replaced, the unchecked `make_move` must build
what the validating `apply_move` builds, kings must sit where a board
scan finds them, and a search must count the same nodes and choose the
same move whichever leaf check or make it uses.
"""

import pytest

from cmpchess import board, search
from cmpchess.board import (
    B_KING, W_KING, Color, Move, apply_move, has_legal_move, legal_moves,
    make_move, parse_fen, to_fen,
)
from cmpchess.inference import (
    CELL_VALUES, FeatureCache, LearnedComparator, MaterialComparator,
    RandomComparator, _piece_activity, baseline_eval, material_balance,
)
from cmpchess.nn import init_siamese
from cmpchess.search import SearchLimits, search_root

from corpus import playout_positions as corpus_positions
from oracles import naive_legal_uci


@pytest.fixture(scope="module")
def corpus():
    """The playout corpus of acceptance checks 02, 06 and 07."""
    return corpus_positions(10_000, seed=29)


# (name, FEN, legal moves in UCI)
HAND_BUILT = [
    ("checkmate",
     "rnb1kbnr/pppp1ppp/8/4p3/6Pq/5P2/PPPPP2P/RNBQKBNR w KQkq - 1 3", []),
    ("stalemate", "7k/5Q2/6K1/8/8/8/8/8 b - - 0 1", []),
    ("double check, king moves only", "4r2k/8/8/8/8/3n4/8/R3K3 w - - 0 1",
     ["e1f1", "e1d1", "e1d2"]),
    ("en passant is the only move", "8/3B4/7R/k7/1Pp5/P7/8/7K b - b3 0 1",
     ["c4b3"]),
    ("every other piece pinned", "4r2k/8/8/b7/7b/8/3RBN2/4K3 w - - 0 1",
     ["e1f1", "e1d1"]),
    ("every other piece pinned, king boxed in",
     "4r2k/8/8/b7/q6b/7b/3NBR2/4K3 w - - 0 1", []),
]


class TestHasLegalMove:
    @pytest.mark.parametrize("name, fen, moves", HAND_BUILT,
                             ids=[case[0] for case in HAND_BUILT])
    def test_hand_built(self, name, fen, moves):
        p = parse_fen(fen)
        assert has_legal_move(p) == bool(moves)  # before the list is memoised
        assert [m.uci() for m in legal_moves(p)] == moves
        assert set(moves) == naive_legal_uci(p)
        assert has_legal_move(p) == bool(moves)  # from the memoised list

    def test_agrees_with_move_list_on_corpus(self, corpus):
        for p in corpus:
            fresh = board.parse_fen(to_fen(p))  # nothing memoised yet
            assert has_legal_move(fresh) == bool(legal_moves(p)), to_fen(p)


# Move lists in generation order, frozen from the generator that built
# the whole list in one pass.
ORDERED = {
    "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1":
        "b1c3 b1a3 g1h3 g1f3 a2a3 a2a4 b2b3 b2b4 c2c3 c2c4 d2d3 d2d4 e2e3 "
        "e2e4 f2f3 f2f4 g2g3 g2g4 h2h3 h2h4",
    "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1":
        "e1f1 e1d1 a1b1 a1c1 a1d1 h1g1 h1f1 a2a3 a2a4 b2b3 d2e3 d2f4 d2g5 "
        "d2h6 d2c1 e2f1 e2d3 e2c4 e2b5 e2a6 e2d1 g2g3 g2g4 g2h3 c3d1 c3b1 "
        "c3a4 c3b5 f3f4 f3f5 f3f6 f3g3 f3h3 f3e3 f3d3 f3g4 f3h5 d5d6 d5e6 "
        "e5f7 e5g6 e5g4 e5d3 e5c4 e5c6 e5d7 e1g1 e1c1",
    "r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R b KQkq - 0 1":
        "e8f8 e8d8 h3g2 b4b3 b4c3 a6b7 a6c8 a6b5 a6c4 a6d3 a6e2 b6c8 b6d5 "
        "b6c4 b6a4 e6d5 f6g8 f6h7 f6h5 f6g4 f6e4 f6d5 g6g5 c7c6 c7c5 d7d6 "
        "e7f8 e7d8 e7d6 e7c5 g7h6 g7f8 a8b8 a8c8 a8d8 h8h7 h8h6 h8h5 h8h4 "
        "h8g8 h8f8 e8g8 e8c8",
    "r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1":
        "g1h1 f1f2 d2d4 f3d4 b4c5 c4c5",
    "8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1":
        "a5a6 a5a4 e2e3 e2e4 g2g3 g2g4 b4b3 b4b2 b4b1 b4c4 b4d4 b4e4 b4f4 "
        "b4a4",
}


@pytest.mark.parametrize("fen", list(ORDERED))
def test_legal_move_order_unchanged(fen):
    p = parse_fen(fen)
    assert [m.uci() for m in legal_moves(p)] == ORDERED[fen].split()


def reference_baseline_eval(p):
    """The per-square loop `baseline_eval` ran before its tables."""
    material = 0
    activity = 0
    for sq, cell in enumerate(p.board):
        if cell > 0:
            material += CELL_VALUES[cell]
            activity += _piece_activity(cell, sq, True)
        elif cell < 0:
            material -= CELL_VALUES[-cell]
            activity -= _piece_activity(-cell, sq, False)
    if material:
        strong = Color.WHITE if material > 0 else Color.BLACK
        weak_king = p.king_square(Color(1 - strong))
        strong_king = p.king_square(strong)
        wr, wf = divmod(weak_king, 8)
        edge = max(abs(2 * wf - 7), abs(2 * wr - 7)) // 2
        sr, sf = divmod(strong_king, 8)
        closeness = 7 - max(abs(sr - wr), abs(sf - wf))
        drive = 3 * edge + closeness
        activity += drive if strong == Color.WHITE else -drive
    return material, 256 * material + activity


class TestMaterialTables:
    def test_baseline_eval_matches_reference_on_corpus(self, corpus):
        for p in corpus:
            material, score = reference_baseline_eval(p)
            assert baseline_eval(p) == score, to_fen(p)
            assert material_balance(p) == material, to_fen(p)

    @pytest.mark.parametrize("name, fen, _", HAND_BUILT,
                             ids=[case[0] for case in HAND_BUILT])
    def test_baseline_eval_matches_reference_hand_built(self, name, fen, _):
        p = parse_fen(fen)
        assert baseline_eval(p) == reference_baseline_eval(p)[1]


class TestSearchLeaves:
    def test_full_list_leaf_check_gives_same_search(self, corpus,
                                                    monkeypatch):
        positions = [p for p in corpus[5::331] if legal_moves(p)][:24]
        limits = SearchLimits(max_depth=3)
        fast = [search_root(p, limits, MaterialComparator())
                for p in positions]
        monkeypatch.setattr(search, "has_legal_move",
                            lambda p: bool(legal_moves(p)))
        slow = [search_root(p, limits, MaterialComparator())
                for p in positions]
        for p, f, s in zip(positions, fast, slow):
            assert (f.best_move, f.nodes, f.cutoffs, f.line) == \
                (s.best_move, s.nodes, s.cutoffs, s.line), to_fen(p)

    def test_terminal_leaf_outranks_horizon(self):
        # at depth 1 every child is a leaf; only the mating one has no move
        p = parse_fen("6k1/5ppp/8/8/8/8/8/K3R3 w - - 0 1")
        result = search_root(p, SearchLimits(max_depth=1),
                             MaterialComparator())
        assert result.best_move.uci() == "e1e8"

    @pytest.mark.parametrize("name, fen, moves", HAND_BUILT,
                             ids=[case[0] for case in HAND_BUILT])
    def test_depth_zero_bound(self, name, fen, moves):
        p = parse_fen(fen)
        bound, move = search.alphabeta_cmp(
            p, 0, search.Bound.min_sentinel(), search.Bound.max_sentinel(),
            MaterialComparator())
        if moves:
            want = search.Bound.pos(p)
        elif p.is_check():
            want = search.Bound.loss(0)
        else:
            want = search.Bound.draw()
        assert (bound, move) == (want, None)


def state(p) -> tuple:
    """Every field a make sets, the derived ones included."""
    return (p.board, p.side_to_move, p.castling, p.en_passant,
            p.halfmove_clock, p.fullmove_number, p.zobrist, p._kings)


def scanned_king(p, color) -> int:
    """The last matching square of a 64-square scan, as `Position` once
    found its kings."""
    cell = W_KING if color == Color.WHITE else B_KING
    found = -1
    for sq in range(64):
        if p.board[sq] == cell:
            found = sq
    return found


# (name, FEN, UCI line): each move is played and the kings checked after it
KING_LINES = [
    ("both sides castle short",
     "r3k2r/pppppppp/8/8/8/8/PPPPPPPP/R3K2R w KQkq - 0 1", "e1g1 e8g8"),
    ("both sides castle long",
     "r3k2r/pppppppp/8/8/8/8/PPPPPPPP/R3K2R w KQkq - 0 1", "e1c1 e8c8"),
    ("king walks", "4k3/8/8/8/8/8/8/4K3 w - - 0 1",
     "e1d2 e8f7 d2c3 f7g6 c3b4 g6h5"),
    ("kings capture", "4k3/4P3/8/8/8/8/3p4/4K3 w - - 0 1",
     "e1d2 e8e7"),
    ("promotions, then the new pieces are taken by kings",
     "8/1P4k1/8/8/8/8/1p4K1/8 w - - 0 1", "b7b8q b2b1q g2h3 g7h7 b8b1"),
    ("underpromotion captures next to the kings",
     "2r1k3/1P6/8/8/8/8/6p1/4K2R b - - 0 1", "g2h1n b7c8r e8d7 c8c1"),
]


class TestMake:
    def test_make_equals_apply_on_corpus(self, corpus):
        for p in corpus:
            for m in legal_moves(p):
                assert state(make_move(p, m)) == state(apply_move(p, m)), \
                    (to_fen(p), m.uci())

    @pytest.mark.parametrize("fen, uci, flag", [
        ("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1", "e1g1", "castle"),
        ("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1", "e1c1", "castle"),
        ("r3k2r/8/8/8/8/8/8/R3K2R b KQkq - 0 1", "e8g8", "castle"),
        ("r3k2r/8/8/8/8/8/8/R3K2R b KQkq - 0 1", "e8c8", "castle"),
        ("4k3/8/8/3pP3/8/8/8/4K3 w - d6 0 2", "e5d6", "en_passant"),
        ("4k3/8/8/8/3Pp3/8/8/4K3 b - d3 0 1", "e4d3", "en_passant"),
        (board.STARTPOS_FEN, "e2e4", "double_push"),
        ("rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR b KQkq e3 0 1",
         "c7c5", "double_push"),
    ])
    def test_apply_gives_bare_move_its_generated_flags(self, fen, uci, flag):
        p = parse_fen(fen)
        bare = Move.from_uci(uci)
        (generated,) = [m for m in legal_moves(p) if m == bare]
        assert getattr(generated, flag) and not getattr(bare, flag)
        assert state(apply_move(p, bare)) == state(make_move(p, generated))

    def test_search_binds_the_unchecked_make(self):
        assert search.apply_move is make_move

    @pytest.mark.parametrize("kind", ["material", "random", "learned"])
    def test_validating_make_gives_same_search(self, kind, corpus,
                                               monkeypatch):
        build = {
            "material": MaterialComparator,
            "random": lambda: RandomComparator(seed=11),
            "learned": lambda: LearnedComparator(
                init_siamese((773, 24, 12), (8, 2), seed=9),
                FeatureCache(4096)),
        }[kind]
        positions = [p for p in corpus[7::173] if legal_moves(p)][:50]
        assert len(positions) == 50
        limits = SearchLimits(max_depth=3)

        def run_all():
            out = []
            for p in positions:
                cmp = build()
                r = search_root(p, limits, cmp)
                out.append((r.best_move, r.line, r.nodes, r.cutoffs,
                            cmp.calls))
            return out

        fast = run_all()
        monkeypatch.setattr(search, "apply_move", board.apply_move)
        slow = run_all()
        for p, f, s in zip(positions, fast, slow):
            assert f == s, to_fen(p)


class TestKings:
    def test_king_square_matches_scan_on_corpus(self, corpus):
        for p in corpus:
            for color in (Color.WHITE, Color.BLACK):
                assert p.king_square(color) == scanned_king(p, color), \
                    to_fen(p)

    @pytest.mark.parametrize("name, fen, line", KING_LINES,
                             ids=[case[0] for case in KING_LINES])
    def test_king_square_along_line(self, name, fen, line):
        p = parse_fen(fen)
        for uci in line.split():
            p = apply_move(p, Move.from_uci(uci))  # raises on a bad line
            for color in (Color.WHITE, Color.BLACK):
                assert p.king_square(color) == scanned_king(p, color), uci
