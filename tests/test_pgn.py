import io
import random

from cmpchess.board import (
    GameOutcome, Move, apply_move, legal_moves, parse_fen, parse_square,
    startpos,
)
from cmpchess.pgn import (
    MalformedPGN, parse_pgn, parse_san, to_san, write_pgn,
)

TWO_GAMES = """\
[Event "A"]
[Result "1-0"]

1. e4 e5 2. Qh5 Nc6 3. Bc4 Nf6 4. Qxf7# 1-0

[Event "B"]
[Result "1/2-1/2"]

1. Nf3 Nf6 2. Ng1 Ng8 1/2-1/2
"""


def test_two_games_and_result_mapping():
    games = list(parse_pgn(io.StringIO(TWO_GAMES)))
    assert len(games) == 2
    assert games[0].outcome == GameOutcome.WHITE_WINS
    assert games[1].outcome == GameOutcome.DRAW
    assert games[0].tags["Event"] == "A"
    assert len(games[0].moves) == 7
    assert games[0].start == games[1].start == startpos()


def test_pawn_capture_disambiguated_by_file():
    p = parse_fen("k7/8/8/3p4/2P1P3/8/8/K7 w - - 0 1")
    legal = {m.uci() for m in legal_moves(p)}
    assert {"c4d5", "e4d5"} <= legal  # two pawn captures really available
    m = parse_san(p, "exd5")
    assert m.from_sq == parse_square("e4")
    m = parse_san(p, "cxd5")
    assert m.from_sq == parse_square("c4")


def test_malformed_game_skipped_next_game_parsed():
    text = """\
[Event "bad"]
[Result "1-0"]

1. e4 Nxe4 1-0

[Event "good"]
[Result "0-1"]

1. f3 e5 2. g4 Qh4# 0-1
"""
    reports = []
    games = list(parse_pgn(io.StringIO(text), on_malformed=reports.append))
    assert len(games) == 1
    assert games[0].tags["Event"] == "good"
    assert len(reports) == 1
    assert isinstance(reports[0], MalformedPGN)
    assert reports[0].game_index == 0


def test_comments_variations_nags_skipped():
    text = """\
[Result "*"]

1. e4 {best by test} e5 (1... c5 2. Nf3 (2. c3)) 2. Nf3 $1 Nc6 *
"""
    (game,) = parse_pgn(io.StringIO(text))
    assert [m.uci() for m in game.moves] == ["e2e4", "e7e5", "g1f3", "b8c6"]
    assert game.outcome == GameOutcome.UNKNOWN


def test_setup_fen_tag_honored():
    text = """\
[SetUp "1"]
[FEN "4k3/8/8/8/8/8/4P3/4K3 w - - 0 1"]
[Result "*"]

1. e4 Kd7 *
"""
    (game,) = parse_pgn(io.StringIO(text))
    assert [m.uci() for m in game.moves] == ["e2e4", "e8d7"]
    assert game.start == parse_fen("4k3/8/8/8/8/8/4P3/4K3 w - - 0 1")


def test_result_from_tag_when_terminator_missing():
    text = '[Result "0-1"]\n\n1. f3 e5 2. g4 Qh4#\n'
    (game,) = parse_pgn(io.StringIO(text))
    assert game.outcome == GameOutcome.BLACK_WINS


def test_missing_result_is_malformed():
    reports = []
    games = list(parse_pgn(io.StringIO("1. e4 e5\n"), on_malformed=reports.append))
    assert games == [] and len(reports) == 1


def test_glued_move_numbers():
    text = '[Result "1-0"]\n\n1.e4 e5 2.Qh5 Nc6 3.Bc4 Nf6 4.Qxf7# 1-0\n'
    (game,) = parse_pgn(io.StringIO(text))
    assert len(game.moves) == 7


def test_promotion_and_check_san():
    p = parse_fen("8/4P3/8/8/k7/8/8/4K3 w - - 0 1")
    m = parse_san(p, "e8=Q+")
    assert m.promotion is not None
    assert to_san(p, m) == "e8=Q+"


def test_en_passant_san():
    p = parse_fen("4k3/8/8/3pP3/8/8/8/4K3 w - d6 0 1")
    m = parse_san(p, "exd6")
    assert m.en_passant


def test_full_square_disambiguation():
    p = parse_fen("8/k7/8/8/4Q2Q/8/8/K6Q w - - 0 1")
    target = parse_square("e1")
    movers = [m for m in legal_moves(p) if m.to_sq == target]
    assert len(movers) == 3
    sans = {to_san(p, m) for m in movers}
    # e4 has a unique file, h1 a unique rank, h4 needs the full square.
    assert sans == {"Qee1", "Qh4e1", "Q1e1"}
    for san in sans:
        assert to_san(p, parse_san(p, san)) == san


def test_san_round_trip_on_playouts(playout_positions):
    for p in playout_positions[::7]:
        for m in legal_moves(p):
            san = to_san(p, m)
            assert parse_san(p, san) == m, (san, p)


def test_writer_reader_round_trip():
    moves = []
    p = startpos()
    rng = random.Random(7)
    for _ in range(31):
        choices = legal_moves(p)
        if not choices:
            break
        m = rng.choice(choices)
        moves.append(m)
        p = apply_move(p, m)
    buf = io.StringIO()
    write_pgn(buf, moves, GameOutcome.UNKNOWN, tags={"Event": "roundtrip"})
    write_pgn(buf, moves[:5], GameOutcome.WHITE_WINS)
    games = list(parse_pgn(io.StringIO(buf.getvalue())))
    assert len(games) == 2
    assert games[0].moves == moves
    assert games[0].tags["Event"] == "roundtrip"
    assert games[1].outcome == GameOutcome.WHITE_WINS


def test_writer_emits_setup_for_custom_start():
    start = parse_fen("4k3/8/8/8/8/8/4P3/4K3 b - - 3 20")
    m = legal_moves(start)[0]
    buf = io.StringIO()
    write_pgn(buf, [m], GameOutcome.UNKNOWN, start=start)
    text = buf.getvalue()
    assert '[SetUp "1"]' in text and '[FEN "4k3/8' in text
    assert "20..." in text
    (game,) = parse_pgn(io.StringIO(buf.getvalue()))
    assert game.moves == [m]
