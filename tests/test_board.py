import random

import pytest

from cmpchess.board import (
    BLACK, WHITE, Color, Move, MalformedFEN, IllegalMove, Position,
    parse_fen, to_fen, startpos, legal_moves, apply_move, perft,
    compute_zobrist, parse_square, square_name, STARTPOS_FEN, find_legal,
    make_move,
)
from oracles import naive_legal_uci, naive_perft

# Leaf counts frozen after independent verification with the naive
# generator in oracles.py (exhaustively at the shallower depths).
PERFT_START = {1: 20, 2: 400, 3: 8902, 4: 197281}

# Well-known stress positions exercising castling, promotions, pins,
# en passant and discovered checks.
TRICKY = [
    ("r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/PPPBBPPP/R3K2R w KQkq - 0 1",
     {1: 48, 2: 2039, 3: 97862}),
    ("8/2p5/3p4/KP5r/1R3p1k/8/4P1P1/8 w - - 0 1",
     {1: 14, 2: 191, 3: 2812, 4: 43238}),
    ("r3k2r/Pppp1ppp/1b3nbN/nP6/BBP1P3/q4N2/Pp1P2PP/R2Q1RK1 w kq - 0 1",
     {1: 6, 2: 264, 3: 9467}),
    ("rnbq1k1r/pp1Pbppp/2p5/8/2B5/8/PPP1NnPP/RNBQK2R w KQ - 1 8",
     {1: 44, 2: 1486, 3: 62379}),
    ("r4rk1/1pp1qppp/p1np1n2/2b1p1B1/2B1P1b1/P1NP1N2/1PP1QPPP/R4RK1 w - - 0 10",
     {1: 46, 2: 2079, 3: 89890}),
]


def uci_set(p):
    return {m.uci() for m in legal_moves(p)}


class TestPerft:
    def test_startpos(self):
        p = startpos()
        for depth, count in PERFT_START.items():
            assert perft(p, depth) == count

    @pytest.mark.parametrize("fen,counts", TRICKY)
    def test_tricky(self, fen, counts):
        p = parse_fen(fen)
        for depth, count in counts.items():
            assert perft(p, depth) == count, f"{fen} depth {depth}"

    def test_matches_naive_oracle_startpos(self):
        p = startpos()
        assert naive_perft(p, 2) == 400
        assert perft(p, 2) == naive_perft(p, 2)

    @pytest.mark.parametrize("fen,_", TRICKY)
    def test_matches_naive_oracle_tricky(self, fen, _):
        p = parse_fen(fen)
        assert uci_set(p) == naive_legal_uci(p)
        assert perft(p, 2) == naive_perft(p, 2)


class TestMoveGeneration:
    def test_agrees_with_naive_generator_on_playouts(self, playout_positions):
        for p in playout_positions[::3]:
            assert uci_set(p) == naive_legal_uci(p), to_fen(p)

    def test_pinned_piece_cannot_expose_king(self):
        # Bishop on d2 is pinned by the rook on d8.
        p = parse_fen("3r3k/8/8/8/8/8/3B4/3K4 w - - 0 1")
        moves = {m.uci() for m in legal_moves(p) if m.from_sq == parse_square("d2")}
        assert moves == set()  # bishop cannot move along the file

    def test_pinned_slider_may_slide_along_pin(self):
        p = parse_fen("3r3k/8/8/8/8/8/3R4/3K4 w - - 0 1")
        moves = {m.uci() for m in legal_moves(p) if m.from_sq == parse_square("d2")}
        assert moves == {"d2d3", "d2d4", "d2d5", "d2d6", "d2d7", "d2d8"}

    def test_check_must_be_answered(self):
        p = parse_fen("4k3/8/8/8/8/8/4r3/4K2R w K - 0 1")
        # King in check from e2: castling is off, only king answers exist.
        assert uci_set(p) == {"e1d1", "e1f1", "e1e2"}

    def test_double_check_forces_king_move(self):
        p = parse_fen("4k3/8/8/8/8/5n2/4r3/4K3 w - - 0 1")
        assert all(m.from_sq == parse_square("e1") for m in legal_moves(p))

    def test_en_passant_available_and_taken(self):
        p = parse_fen("4k3/8/8/8/4p3/8/3P4/4K3 w - - 0 1")
        p = apply_move(p, Move.from_uci("d2d4"))
        assert p.en_passant == parse_square("d3")
        assert "e4d3" in uci_set(p)
        after = apply_move(p, Move.from_uci("e4d3"))
        assert after.board[parse_square("d4")] == 0  # pawn removed
        assert after.piece_at(parse_square("d3")) is not None

    def test_en_passant_refused_when_it_exposes_king(self):
        # Removing both pawns opens the rank for the rook.
        p = parse_fen("8/8/8/K2pP2r/8/8/8/7k w - d6 0 1")
        assert "e5d6" not in uci_set(p)
        assert uci_set(p) == naive_legal_uci(p)

    def test_castling_through_attack_refused(self):
        p = parse_fen("4k3/8/8/8/8/5r2/8/4K2R w K - 0 1")  # f1 attacked
        assert "e1g1" not in uci_set(p)
        p = parse_fen("4k3/8/8/8/8/6r1/8/4K2R w K - 0 1")  # g1 attacked
        assert "e1g1" not in uci_set(p)
        p = parse_fen("4k3/8/8/8/8/7r/8/4K2R w K - 0 1")  # only h1 attacked
        assert "e1g1" in uci_set(p)


class TestApplyMove:
    def test_double_push_sets_en_passant(self):
        p = apply_move(startpos(), Move.from_uci("e2e4"))
        assert p.en_passant == parse_square("e3")
        assert p.side_to_move == Color.BLACK

    def test_castling_moves_rook(self):
        p = parse_fen("4k3/8/8/8/8/8/8/4K2R w K - 0 1")
        p2 = apply_move(p, Move.from_uci("e1g1"))
        assert p2.piece_at(parse_square("g1")) == (Color.WHITE, 5)
        assert p2.piece_at(parse_square("f1")) == (Color.WHITE, 3)
        assert p2.piece_at(parse_square("h1")) is None
        assert p2.castling == 0

    def test_promotion(self):
        p = parse_fen("8/4P3/8/8/8/8/k7/4K3 w - - 0 1")
        p2 = apply_move(p, Move.from_uci("e7e8q"))
        assert p2.piece_at(parse_square("e8")) == (Color.WHITE, 4)

    def test_halfmove_clock(self):
        p = startpos()
        p = apply_move(p, Move.from_uci("g1f3"))
        assert p.halfmove_clock == 1
        p = apply_move(p, Move.from_uci("g8f6"))
        assert p.halfmove_clock == 2
        assert p.fullmove_number == 2
        p = apply_move(p, Move.from_uci("e2e4"))
        assert p.halfmove_clock == 0  # pawn move resets

    def test_capturing_rook_clears_castling_right(self):
        p = parse_fen("4k2r/8/8/8/8/8/8/4K2R w Kk - 0 1")
        p2 = apply_move(p, Move.from_uci("h1h8"))
        # Black loses the kingside right with the rook; white's own right
        # drops because the h1 rook left home.
        assert p2.castling == 0

    def test_illegal_move_rejected(self):
        with pytest.raises(IllegalMove):
            apply_move(startpos(), Move.from_uci("e2e5"))
        with pytest.raises(IllegalMove):
            apply_move(startpos(), Move.from_uci("e7e5"))
        for fen, uci in [
            (STARTPOS_FEN, "e1g1"),  # castling through own pieces
            (STARTPOS_FEN, "g1g3"),
            ("4k3/8/8/8/8/8/8/4K2R w - - 0 1", "e1g1"),  # no castling right
            ("8/4P3/8/8/8/8/k7/4K3 w - - 0 1", "e7e8"),  # no promotion piece
            ("8/8/8/8/8/8/k3P3/4K3 w - - 0 1", "e2e3q"),  # not to rank 8
            ("4k3/8/8/3pP3/8/8/8/4K3 w - - 0 1", "e5d6"),  # no ep square
        ]:
            with pytest.raises(IllegalMove):
                apply_move(parse_fen(fen), Move.from_uci(uci))

    def test_a_generated_move_resolves_to_itself(self, playout_positions):
        for p in playout_positions[::9]:
            for m in legal_moves(p):
                assert find_legal(p, m) is m

    @pytest.mark.parametrize("fen, uci, flag", [
        ("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1", "e1g1", "castle"),
        ("r3k2r/8/8/8/8/8/8/R3K2R b KQkq - 0 1", "e8c8", "castle"),
        ("4k3/8/8/3pP3/8/8/8/4K3 w - d6 0 1", "e5d6", "en_passant"),
        ("4k3/8/8/8/8/8/4P3/4K3 w - - 0 1", "e2e4", "double_push"),
        ("4k3/P7/8/8/8/8/8/4K3 w - - 0 1", "a7a8q", "promotion"),
    ])
    def test_a_bare_move_resolves_to_the_flagged_move(self, fen, uci, flag):
        p = parse_fen(fen)
        bare = Move.from_uci(uci)
        found = find_legal(p, bare)
        assert found is not bare
        assert any(found is m for m in legal_moves(p))
        assert getattr(found, flag)
        assert apply_move(p, bare).zobrist == make_move(p, found).zobrist

    def test_a_generated_move_of_another_position(self):
        # e4-d5 is quiet in one position and a capture in the other: a
        # different object, so it resolves by key to the flagged capture
        quiet = parse_fen("4k3/8/8/8/4B3/8/8/4K3 w - - 0 1")
        move = next(m for m in legal_moves(quiet) if m.uci() == "e4d5")
        assert not move.capture
        busy = parse_fen("4k3/8/8/3p4/4B3/8/8/4K3 w - - 0 1")
        found = find_legal(busy, move)
        assert found is not move and found.capture
        for fen in ("4k3/8/8/3P4/4B3/8/8/4K3 w - - 0 1",  # own pawn there
                    "4k3/8/8/8/4B3/8/8/4K3 b - - 0 1"):  # Black to move
            with pytest.raises(IllegalMove):
                apply_move(parse_fen(fen), move)

    def test_positions_are_fresh_objects(self):
        p = startpos()
        p2 = apply_move(p, Move.from_uci("e2e4"))
        assert p is not p2
        assert p.board[parse_square("e2")] != 0  # original untouched


class TestColor:
    def test_other_is_the_opposite_member(self):
        assert WHITE.other is BLACK
        assert BLACK.other is WHITE


class TestZobrist:
    def test_incremental_matches_recomputation(self, playout_positions):
        for p in playout_positions:
            assert p.zobrist == compute_zobrist(p.board, p.side_to_move, p.castling)

    def test_en_passant_not_keyed(self):
        a = apply_move(startpos(), Move.from_uci("e2e4"))
        b = parse_fen(to_fen(a).replace(" e3 ", " - "))
        assert a.en_passant is not None and b.en_passant is None
        assert a.zobrist == b.zobrist

    def test_side_to_move_keyed(self):
        a = parse_fen("4k3/8/8/8/8/8/8/4K3 w - - 0 1")
        b = parse_fen("4k3/8/8/8/8/8/8/4K3 b - - 0 1")
        assert a.zobrist != b.zobrist

    def test_castling_rights_keyed(self):
        a = parse_fen("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1")
        b = parse_fen("r3k2r/8/8/8/8/8/8/R3K2R w Qkq - 0 1")
        assert a.zobrist != b.zobrist

    def test_keys_are_stable(self):
        # keys are part of the cache's behaviour; frozen from the fixed seed
        assert startpos().zobrist == 8774137492643386889
        kiwipete = parse_fen("r3k2r/p1ppqpb1/bn2pnp1/3PN3/1p2P3/2N2Q1p/"
                             "PPPBBPPP/R3K2R b KQkq - 0 1")
        assert kiwipete.zobrist == 14486186884037510271


class TestFEN:
    def test_startpos_round_trip(self):
        assert to_fen(startpos()) == STARTPOS_FEN

    def test_round_trip_on_playouts(self, playout_positions):
        for p in playout_positions:
            assert parse_fen(to_fen(p)) == p

    @pytest.mark.parametrize("fen,field", [
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBN w KQkq - 0 1", 0),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR x KQkq - 0 1", 1),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KX - 0 1", 2),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq e9 0 1", 3),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - x 1", 4),
        ("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 0", 5),
    ])
    def test_malformed_fields_reported(self, fen, field):
        with pytest.raises(MalformedFEN) as e:
            parse_fen(fen)
        assert e.value.field_index == field

    def test_wrong_field_count(self):
        with pytest.raises(MalformedFEN):
            parse_fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq -")

    @pytest.mark.parametrize("fen", [
        "rnbq1bnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w - - 0 1",   # no black king
        "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNP w - - 0 1",   # pawn on rank 1
        "P3k3/8/8/8/8/8/8/4K3 w - - 0 1",                          # pawn on rank 8
        "4k3/4R3/8/8/8/8/8/4K3 w - - 0 1",                         # side not to move in check
        "4k3/8/8/8/8/8/8/4KR2 w K - 0 1",                          # right without rook home
    ])
    def test_invariants_enforced(self, fen):
        with pytest.raises(MalformedFEN):
            parse_fen(fen)

    def test_ep_square_on_wrong_rank(self):
        with pytest.raises(MalformedFEN) as e:
            parse_fen("rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq e3 0 1")
        assert e.value.field_index == 3


class TestEndings:
    def test_fools_mate(self):
        p = startpos()
        for uci in ("f2f3", "e7e5", "g2g4", "d8h4"):
            p = apply_move(p, Move.from_uci(uci))
        assert p.is_checkmate()
        assert not p.is_stalemate()
        assert legal_moves(p) == []

    def test_stalemate(self):
        p = parse_fen("k7/8/1Q6/8/8/8/8/K7 b - - 0 1")
        assert p.is_stalemate()
        assert not p.is_checkmate()


class TestMoveValue:
    def test_uci_round_trip(self):
        for text in ("e2e4", "a7a8q", "h7h8n", "e1g1"):
            assert Move.from_uci(text).uci() == text

    def test_square_names(self):
        assert square_name(0) == "a1"
        assert square_name(63) == "h8"
        assert parse_square("e4") == 28
