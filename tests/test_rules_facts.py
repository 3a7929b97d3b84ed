"""Each rules fact stated once, against the code that stated it twice.

The king walk finds checkers and pins in one pass over the rays, the
castling tables are built from `board.CASTLINGS`, and `encoding.decode`
reads its placement rules from `board.placement_error`. The copies below
are the functions and tables as they were before; on the 10k playout
corpus and on hand-built positions both must give the same answers.
"""

import random

import numpy as np
import pytest

from cmpchess import board
from cmpchess.board import (
    BETWEEN, KNIGHT_MOVES, PAWN_ATTACKERS, RAYS, WHITE, MalformedFEN,
    compute_zobrist, legal_moves, make_move, parse_fen,
)
from cmpchess.encoding import VECTOR_BITS, decode, encode

from corpus import playout_positions


# ---------------------------------------------------- the former code

def old_find_checkers(cells, ksq, them):
    out = []
    if them == WHITE:
        pawn, knight, bishop, rook, queen = 1, 2, 3, 4, 5
    else:
        pawn, knight, bishop, rook, queen = -1, -2, -3, -4, -5
    for s in PAWN_ATTACKERS[them][ksq]:
        if cells[s] == pawn:
            out.append(s)
    for s in KNIGHT_MOVES[ksq]:
        if cells[s] == knight:
            out.append(s)
    for diagonal, ray in RAYS[ksq]:
        slider = bishop if diagonal else rook
        for s in ray:
            cell = cells[s]
            if cell == 0:
                continue
            if cell == slider or cell == queen:
                out.append(s)
            break
    return out


def old_find_pins(cells, ksq, us):
    pins = {}
    own_positive = us == WHITE
    if us == WHITE:
        e_bishop, e_rook, e_queen = -3, -4, -5
    else:
        e_bishop, e_rook, e_queen = 3, 4, 5
    for diagonal, ray in RAYS[ksq]:
        slider = e_bishop if diagonal else e_rook
        shield = -1
        for s in ray:
            cell = cells[s]
            if cell == 0:
                continue
            if (cell > 0) == own_positive:
                if shield >= 0:
                    break
                shield = s
            else:
                if shield >= 0 and (cell == slider or cell == e_queen):
                    allowed = set(BETWEEN[ksq * 64 + s])
                    allowed.add(s)
                    allowed.discard(shield)
                    pins[shield] = frozenset(allowed)
                break
    return pins


OLD_ROOK_HOPS = {6: (7, 5), 2: (0, 3), 62: (63, 61), 58: (56, 59)}
OLD_RIGHTS_KEPT = tuple(
    15 & ~{0: 2, 7: 1, 56: 8, 63: 4}.get(sq, 0) for sq in range(64))


def old_castling_after(p, m):
    """The rights make_move used to leave: a king move cleared its side's
    two rights, then a rook corner left or taken cleared its own."""
    castling = p.castling
    pc = p.board[m.from_sq]
    if pc == 6:
        castling &= ~3
    elif pc == -6:
        castling &= ~12
    return castling & OLD_RIGHTS_KEPT[m.from_sq] & OLD_RIGHTS_KEPT[m.to_sq]


def old_valid(cells, castling):
    valid = cells.count(6) == 1 and cells.count(-6) == 1
    if valid:
        for sq in range(8):
            if abs(cells[sq]) == 1 or abs(cells[sq + 56]) == 1:
                valid = False
    home = ((1, 4, 6, 7, 4), (2, 4, 6, 0, 4), (4, 60, -6, 63, -4),
            (8, 60, -6, 56, -4))
    for bit, ksq, king, rsq, rook in home:
        if castling & bit and (cells[ksq] != king or cells[rsq] != rook):
            valid = False
    return valid


# ------------------------------------------------------------ fixtures

@pytest.fixture(scope="module")
def corpus10k():
    return playout_positions(10_000, seed=29)


HAND_BUILT = [
    # double checks: rook and knight, bishop and rook, pawn and rook
    "4k3/8/8/8/8/5n2/4r3/4K3 w - - 0 1",
    "4k3/8/8/8/1b6/8/8/4K2r w - - 0 1",
    "4k3/8/8/8/8/8/3p4/r3K3 w - - 0 1",
    "4k3/8/3N4/8/8/8/8/4R2K b - - 0 1",
    # en passant: a rank x-ray through both pawns, a diagonal pin along
    # the capture, a file pin the capture leaves
    "8/8/8/K2pP2r/8/8/8/7k w - d6 0 1",
    "8/2b5/8/3pP3/8/6K1/8/k7 w - d6 0 1",
    "4r2k/8/8/3pP3/8/8/8/4K3 w - d6 0 1",
    "3k4/8/8/8/3pP3/8/8/3R3K b - e3 0 1",
    # a pin along each of the eight rays from a central king, by rook,
    # bishop and queen, then two own pieces shielding, then a shield
    # followed by a non-slider
    "3r3b/b7/7k/2NBR3/q1RKN2q/2BNR3/8/b2q2b1 w - - 0 1",
    "k2q3q/q7/8/2PNP3/r1BKN2r/2PBP3/8/q2r2q1 w - - 0 1",
    "k2r4/8/3N4/3N4/3K4/8/8/8 w - - 0 1",
    "k2n4/8/8/3N4/3K4/8/8/8 w - - 0 1",
    # and the same for black
    "3R3B/B7/7K/2nbr3/Q1rkn2Q/2bnr3/8/B2Q2B1 b - - 0 1",
]


@pytest.fixture(scope="module")
def hand_built():
    return [parse_fen(fen) for fen in HAND_BUILT]


# --------------------------------------------------------------- tests

class TestKingWalk:
    @staticmethod
    def agree(p):
        us = p.side_to_move
        ksq = p.king_square(us)
        checkers, pins = board._checks_and_pins(p.board, ksq, us)
        assert checkers == old_find_checkers(p.board, ksq, us.other)
        assert pins == old_find_pins(p.board, ksq, us)
        return checkers, pins

    def test_same_checkers_and_pins_on_the_corpus(self, corpus10k):
        checked = pinned = 0
        for p in corpus10k:
            checkers, pins = self.agree(p)
            checked += bool(checkers)
            pinned += bool(pins)
        assert checked > 100 and pinned > 100

    def test_same_checkers_and_pins_on_hand_built_positions(self,
                                                            hand_built):
        found = [self.agree(p) for p in hand_built]
        assert [len(c) for c, _ in found[:4]] == [2, 2, 2, 2]
        assert len(found[8][1]) == 8 and len(found[9][1]) == 8
        assert len(found[12][1]) == 8
        assert found[10] == ([], {}) and found[11] == ([], {})

    def test_pinned_piece_keeps_its_ray(self, hand_built):
        _, pins = board._checks_and_pins(
            hand_built[8].board, board.parse_square("d4"), WHITE)
        # the bishop on d5 is pinned along the file towards d8
        assert pins[board.parse_square("d5")] == frozenset(
            board.parse_square(s) for s in ("d6", "d7", "d8"))


class TestCastlingTable:
    def test_rook_hops_as_before(self):
        assert board._ROOK_HOPS == OLD_ROOK_HOPS

    def test_rights_kept_adds_only_the_king_homes(self):
        changed = [sq for sq in range(64)
                   if board._RIGHTS_KEPT[sq] != OLD_RIGHTS_KEPT[sq]]
        assert changed == [4, 60]
        assert board._RIGHTS_KEPT[4] == OLD_RIGHTS_KEPT[4] & ~3
        assert board._RIGHTS_KEPT[60] == OLD_RIGHTS_KEPT[60] & ~12

    def test_fen_letters_in_bit_order(self):
        p = parse_fen("r3k2r/8/8/8/8/8/8/R3K2R w KQkq - 0 1")
        assert board.to_fen(p).split()[2] == "KQkq"
        assert [letter for _, letter, *_ in board.CASTLINGS] == list("KQkq")
        assert [bit for bit, *_ in board.CASTLINGS] == [1, 2, 4, 8]

    def test_make_move_rights_and_key(self, corpus10k, hand_built):
        moved = 0
        for p in corpus10k + hand_built:
            for m in legal_moves(p):
                q = make_move(p, m)
                assert q.castling == old_castling_after(p, m)
                assert q.zobrist == compute_zobrist(q.board, q.side_to_move,
                                                    q.castling)
                moved += bool(p.castling != q.castling)
        assert moved > 1000


class TestPlacement:
    @pytest.mark.parametrize("fen, message, field", [
        ("rnbq1bnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w - - 0 1",
         "expected exactly one king per color", 0),
        ("P3k3/8/8/8/8/8/8/4K3 w - - 0 1", "pawn on rank 1 or 8", 0),
        ("4k3/8/8/8/8/8/8/4KR2 w K - 0 1",
         "castling right without king/rook on home squares", 2),
        ("4k3/8/8/8/8/8/8/3K3R w K - 0 1",
         "castling right without king/rook on home squares", 2),
        ("4k3/4R3/8/8/8/8/8/4K3 w - - 0 1",
         "side not to move is in check", 1),
    ])
    def test_fen_messages_and_fields(self, fen, message, field):
        with pytest.raises(MalformedFEN) as e:
            parse_fen(fen)
        assert str(e.value) == f"field {field}: {message}"
        assert e.value.field_index == field

    def test_decode_valid_as_before_on_the_corpus(self, corpus10k):
        for p in corpus10k:
            d = decode(encode(p))
            assert d.valid and old_valid(list(d.board), d.castling)

    def test_decode_valid_as_before_on_crafted_vectors(self, corpus10k):
        rng = random.Random(9)
        outcomes = {True: 0, False: 0}
        for p in corpus10k[::5]:
            v = encode(p)
            v[769:773] = [rng.random() < 0.5 for _ in range(4)]
            for _ in range(rng.randint(0, 2)):
                sq = rng.randrange(64)
                v[sq:768:64] = 0  # empty the square, then maybe refill it
                if rng.random() < 0.5:
                    v[rng.randrange(12) * 64 + sq] = 1
            d = decode(v)
            assert d.valid == old_valid(list(d.board), d.castling)
            outcomes[d.valid] += 1
        assert min(outcomes.values()) > 100

    @pytest.mark.parametrize("cells, castling", [
        ({4: 6, 60: -6}, 0),
        ({4: 6, 60: -6, 7: 4}, 1),
        ({4: 6, 60: -6, 7: 4}, 2),
        ({4: 6, 60: -6, 56: -4}, 8),
        ({4: 6, 60: -6, 56: -4, 63: -4}, 4),
        ({5: 6, 60: -6, 7: 4}, 1),
        ({4: 6, 61: -6, 56: -4}, 8),
        ({4: 6, 60: -6, 0: 1}, 0),
        ({4: 6, 60: -6, 63: -1}, 0),
        ({4: 6, 60: -6, 12: 6}, 0),
        ({4: 6}, 0),
        ({}, 0),
    ])
    def test_decode_valid_as_before_on_hand_built_vectors(self, cells,
                                                         castling):
        v = np.zeros(VECTOR_BITS, dtype=np.uint8)
        for sq, cell in cells.items():
            v[board.piece_plane(cell) * 64 + sq] = 1
        v[769:773] = [castling >> i & 1 for i in range(4)]
        d = decode(v)
        assert d.valid == old_valid(list(d.board), d.castling)
