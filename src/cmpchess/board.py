"""Legal chess rules: positions, move generation, FEN.

Square indexing is a1=0 .. h8=63, rank-major (sq = rank*8 + file).
Positions are immutable values; applying a move returns a new Position.
Each Position carries a 64-bit Zobrist key maintained incrementally
(pieces, side to move and castling rights; en passant is deliberately
not keyed, matching the information content of the network encoding).
"""

from __future__ import annotations

import random
from enum import IntEnum
from typing import Iterator, Optional


class Color(IntEnum):
    WHITE = 0
    BLACK = 1

    @property
    def other(self) -> "Color":
        return _OTHER_COLOR[self]


class PieceType(IntEnum):
    PAWN = 0
    KNIGHT = 1
    BISHOP = 2
    ROOK = 3
    QUEEN = 4
    KING = 5


class GameOutcome(IntEnum):
    WHITE_WINS = 0
    BLACK_WINS = 1
    DRAW = 2
    UNKNOWN = 3


WHITE, BLACK = Color.WHITE, Color.BLACK
_OTHER_COLOR = (BLACK, WHITE)  # indexed by Color, so `other` builds nothing
PAWN, KNIGHT, BISHOP, ROOK, QUEEN, KING = (
    PieceType.PAWN, PieceType.KNIGHT, PieceType.BISHOP,
    PieceType.ROOK, PieceType.QUEEN, PieceType.KING,
)

# Board cells: 0 empty, +1..+6 white pawn..king, -1..-6 black pawn..king.
W_PAWN, W_KNIGHT, W_BISHOP, W_ROOK, W_QUEEN, W_KING = 1, 2, 3, 4, 5, 6
B_PAWN, B_KNIGHT, B_BISHOP, B_ROOK, B_QUEEN, B_KING = -1, -2, -3, -4, -5, -6

# Castling rights bits, in the order used by the network encoding.
CASTLE_WK, CASTLE_WQ, CASTLE_BK, CASTLE_BQ = 1, 2, 4, 8

STARTPOS_FEN = "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1"

FILES = "abcdefgh"
PIECE_CHARS = "PNBRQK"
_CHAR_TO_CELL = {}
for _i, _c in enumerate(PIECE_CHARS):
    _CHAR_TO_CELL[_c] = _i + 1
    _CHAR_TO_CELL[_c.lower()] = -(_i + 1)


def square(file: int, rank: int) -> int:
    return rank * 8 + file


def square_name(sq: int) -> str:
    return FILES[sq & 7] + str((sq >> 3) + 1)


def parse_square(name: str) -> int:
    if len(name) != 2 or name[0] not in FILES or name[1] not in "12345678":
        raise ValueError(f"bad square name: {name!r}")
    return (int(name[1]) - 1) * 8 + FILES.index(name[0])


class MalformedFEN(ValueError):
    """Raised by parse_fen; field_index is the offending 0-based FEN field."""

    def __init__(self, message: str, field_index: int):
        super().__init__(f"field {field_index}: {message}")
        self.field_index = field_index


class IllegalMove(ValueError):
    pass


# ---------------------------------------------------------------------------
# Precomputed geometry tables
# ---------------------------------------------------------------------------

_ROOK_DIRS = ((0, 1), (0, -1), (1, 0), (-1, 0))
_BISHOP_DIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_ALL_DIRS = _ROOK_DIRS + _BISHOP_DIRS


def _walk(sq: int, df: int, dr: int) -> list[int]:
    out = []
    f, r = sq & 7, sq >> 3
    while True:
        f += df
        r += dr
        if not (0 <= f < 8 and 0 <= r < 8):
            return out
        out.append(r * 8 + f)


def _leaps(sq: int, deltas) -> tuple[int, ...]:
    f, r = sq & 7, sq >> 3
    return tuple(
        (r + dr) * 8 + (f + df)
        for df, dr in deltas
        if 0 <= f + df < 8 and 0 <= r + dr < 8
    )


KNIGHT_MOVES = tuple(
    _leaps(s, ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2)))
    for s in range(64)
)
KING_MOVES = tuple(_leaps(s, _ALL_DIRS) for s in range(64))

# RAYS[sq] = tuple of (is_diagonal, squares-walking-outward) per direction.
RAYS = tuple(
    tuple((dirs in _BISHOP_DIRS, tuple(_walk(s, *dirs))) for dirs in _ALL_DIRS)
    for s in range(64)
)

# Squares a pawn of a color attacks from a square; ATTACKERS is the inverse.
PAWN_ATTACKS = (
    tuple(_leaps(s, ((-1, 1), (1, 1))) for s in range(64)),   # white
    tuple(_leaps(s, ((-1, -1), (1, -1))) for s in range(64)),  # black
)
PAWN_ATTACKERS = (PAWN_ATTACKS[1], PAWN_ATTACKS[0])

# BETWEEN[a*64+b]: squares strictly between aligned a and b, else ().
_BETWEEN: list[tuple[int, ...]] = [()] * 4096
for _s in range(64):
    for _df, _dr in _ALL_DIRS:
        _path = _walk(_s, _df, _dr)
        for _j, _t in enumerate(_path):
            _BETWEEN[_s * 64 + _t] = tuple(_path[:_j])
BETWEEN = tuple(_BETWEEN)
del _BETWEEN


def _zobrist_tables(seed: int = 0x5EC7A3B1D4E9F02C):
    rng = random.Random(seed)
    piece = [[rng.getrandbits(64) for _ in range(64)] for _ in range(12)]
    castle = [rng.getrandbits(64) for _ in range(4)]
    side = rng.getrandbits(64)
    return piece, castle, side


# Fixed seed: keys are stable across runs and releases.
ZOBRIST_PIECE, ZOBRIST_CASTLE, ZOBRIST_SIDE = _zobrist_tables()


def piece_plane(cell: int) -> int:
    """Plane of a nonzero board cell: white pawn..king 0..5, black 6..11.

    Indexes the Zobrist piece keys and the encoding's piece planes."""
    return cell - 1 if cell > 0 else 5 - cell


# Zobrist piece keys indexed by the board cell itself, -6..6: a black cell
# counts from the end of the 13-entry tuple, as Python indexing does.
_ZOBRIST_BY_CELL = ((),) + tuple(ZOBRIST_PIECE[piece_plane(c)]
                                 for c in (*range(1, 7), *range(-6, 0)))


def compute_zobrist(board, side_to_move: Color, castling: int) -> int:
    """Full recomputation of the position key (oracle for the incremental one)."""
    z = 0
    for sq in range(64):
        cell = board[sq]
        if cell:
            z ^= ZOBRIST_PIECE[piece_plane(cell)][sq]
    for bit in range(4):
        if castling & (1 << bit):
            z ^= ZOBRIST_CASTLE[bit]
    if side_to_move == BLACK:
        z ^= ZOBRIST_SIDE
    return z


class Move:
    """A move with its rule-relevant flags resolved at generation time.

    Generated moves are shared between positions (see _PLAIN_MOVES), so a
    Move is a value: its fields are never assigned after construction.
    """

    __slots__ = ("from_sq", "to_sq", "promotion", "capture", "castle",
                 "en_passant", "double_push")

    def __init__(self, from_sq: int, to_sq: int, promotion: Optional[int] = None,
                 capture: bool = False, castle: bool = False,
                 en_passant: bool = False, double_push: bool = False):
        self.from_sq = from_sq
        self.to_sq = to_sq
        self.promotion = promotion
        self.capture = capture
        self.castle = castle
        self.en_passant = en_passant
        self.double_push = double_push

    def key(self) -> int:
        promo = 0 if self.promotion is None else self.promotion + 1
        return self.from_sq | (self.to_sq << 6) | (promo << 12)

    def uci(self) -> str:
        s = square_name(self.from_sq) + square_name(self.to_sq)
        if self.promotion is not None:
            s += "nbrq"[self.promotion - 1]
        return s

    @staticmethod
    def from_uci(text: str) -> "Move":
        if len(text) not in (4, 5):
            raise ValueError(f"bad uci move: {text!r}")
        promo = None
        if len(text) == 5:
            idx = "nbrq".find(text[4].lower())
            if idx < 0:
                raise ValueError(f"bad promotion piece: {text!r}")
            promo = idx + 1
        return Move(parse_square(text[:2]), parse_square(text[2:4]), promo)

    def __eq__(self, other) -> bool:
        return isinstance(other, Move) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Move({self.uci()})"


# One shared Move per plain step, built at import: a king, knight or
# slider move, a non-promoting pawn push or pawn capture. _PLAIN_MOVES
# [from*64 + to] is (quiet, capture) for every pair a queen or a knight
# could join, None elsewhere.
_PLAIN_MOVES = tuple(
    (Move(f, t), Move(f, t, capture=True))
    if t in KNIGHT_MOVES[f] or any(t in ray for _, ray in RAYS[f]) else None
    for f in range(64) for t in range(64)
)


def _steps(f: int, targets) -> tuple:
    """(to, quiet move, capture move) for each target square of `f`."""
    return tuple((t,) + _PLAIN_MOVES[f * 64 + t] for t in targets)


_KING_STEPS = tuple(_steps(s, KING_MOVES[s]) for s in range(64))
_KNIGHT_STEPS = tuple(_steps(s, KNIGHT_MOVES[s]) for s in range(64))
# _RAY_STEPS[sq][i] walks the squares of RAYS[sq][i]
_RAY_STEPS = tuple(tuple(_steps(s, ray) for _, ray in RAYS[s])
                  for s in range(64))


def attacked_by(board, sq: int, color: Color, ignore_sq: int = -1) -> bool:
    """Is `sq` attacked by any piece of `color`?

    `ignore_sq` is treated as empty (used to x-ray through the moving king).
    """
    if color == WHITE:
        pawn, knight, bishop, rook, queen, king = 1, 2, 3, 4, 5, 6
    else:
        pawn, knight, bishop, rook, queen, king = -1, -2, -3, -4, -5, -6
    for s in PAWN_ATTACKERS[color][sq]:
        if board[s] == pawn:
            return True
    for s in KNIGHT_MOVES[sq]:
        if board[s] == knight:
            return True
    for s in KING_MOVES[sq]:
        if board[s] == king:
            return True
    for diagonal, ray in RAYS[sq]:
        slider = bishop if diagonal else rook
        for s in ray:
            cell = board[s]
            if cell == 0 or s == ignore_sq:
                continue
            if cell == slider or cell == queen:
                return True
            break
    return False


class Position:
    """Immutable full chess state. Do not mutate fields after construction."""

    __slots__ = ("board", "side_to_move", "castling", "en_passant",
                 "halfmove_clock", "fullmove_number", "zobrist",
                 "_legal", "_legal_keys", "_kings")

    def __init__(self, board: tuple, side_to_move: Color, castling: int,
                 en_passant: Optional[int], halfmove_clock: int,
                 fullmove_number: int, zobrist: Optional[int] = None):
        self.board = board
        self.side_to_move = side_to_move
        self.castling = castling
        self.en_passant = en_passant
        self.halfmove_clock = halfmove_clock
        self.fullmove_number = fullmove_number
        self.zobrist = (compute_zobrist(board, side_to_move, castling)
                        if zobrist is None else zobrist)
        self._legal = None
        self._legal_keys = None
        # parse_fen builds boards with one king per colour; make_move
        # skips this scan and hands its successor the king squares
        self._kings = (board.index(W_KING) if W_KING in board else -1,
                       board.index(B_KING) if B_KING in board else -1)

    def king_square(self, color: Color) -> int:
        return self._kings[color]

    def piece_at(self, sq: int) -> Optional[tuple[Color, PieceType]]:
        cell = self.board[sq]
        if cell == 0:
            return None
        return (WHITE, PieceType(cell - 1)) if cell > 0 else (BLACK, PieceType(-cell - 1))

    def is_check(self) -> bool:
        us = self.side_to_move
        return attacked_by(self.board, self._kings[us], us.other)

    def is_checkmate(self) -> bool:
        return not has_legal_move(self) and self.is_check()

    def is_stalemate(self) -> bool:
        return not has_legal_move(self) and not self.is_check()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Position)
                and self.board == other.board
                and self.side_to_move == other.side_to_move
                and self.castling == other.castling
                and self.en_passant == other.en_passant
                and self.halfmove_clock == other.halfmove_clock
                and self.fullmove_number == other.fullmove_number)

    def __hash__(self) -> int:
        return hash((self.board, self.side_to_move, self.castling, self.en_passant))

    def __repr__(self) -> str:
        return f"Position({to_fen(self)!r})"


def parse_fen(text: str) -> Position:
    fields = text.split()
    if len(fields) != 6:
        raise MalformedFEN(f"expected 6 fields, got {len(fields)}", 0 if not fields else len(fields) - 1)

    ranks = fields[0].split("/")
    if len(ranks) != 8:
        raise MalformedFEN("expected 8 ranks", 0)
    cells = [0] * 64
    for r, row in enumerate(ranks):
        rank = 7 - r
        file = 0
        for ch in row:
            if ch.isdigit():
                step = int(ch)
                if not 1 <= step <= 8:
                    raise MalformedFEN(f"bad skip {ch!r}", 0)
                file += step
            elif ch in _CHAR_TO_CELL:
                if file >= 8:
                    raise MalformedFEN(f"rank {rank + 1} overflows", 0)
                cells[rank * 8 + file] = _CHAR_TO_CELL[ch]
                file += 1
            else:
                raise MalformedFEN(f"bad piece char {ch!r}", 0)
        if file != 8:
            raise MalformedFEN(f"rank {rank + 1} has {file} files", 0)

    if fields[1] == "w":
        stm = WHITE
    elif fields[1] == "b":
        stm = BLACK
    else:
        raise MalformedFEN(f"bad side to move {fields[1]!r}", 1)

    castling = 0
    if fields[2] != "-":
        bits = {"K": CASTLE_WK, "Q": CASTLE_WQ, "k": CASTLE_BK, "q": CASTLE_BQ}
        for ch in fields[2]:
            bit = bits.get(ch)
            if bit is None or castling & bit:
                raise MalformedFEN(f"bad castling field {fields[2]!r}", 2)
            castling |= bit

    en_passant = None
    if fields[3] != "-":
        try:
            en_passant = parse_square(fields[3])
        except ValueError:
            raise MalformedFEN(f"bad en passant square {fields[3]!r}", 3) from None
        rank = en_passant >> 3
        if (stm == WHITE and rank != 5) or (stm == BLACK and rank != 2):
            raise MalformedFEN("en passant square on wrong rank", 3)

    try:
        halfmove = int(fields[4])
        if halfmove < 0:
            raise ValueError
    except ValueError:
        raise MalformedFEN(f"bad halfmove clock {fields[4]!r}", 4) from None
    try:
        fullmove = int(fields[5])
        if fullmove < 1:
            raise ValueError
    except ValueError:
        raise MalformedFEN(f"bad fullmove number {fields[5]!r}", 5) from None

    board = tuple(cells)
    _validate_position(board, stm, castling)
    return Position(board, stm, castling, en_passant, halfmove, fullmove)


def _validate_position(board, stm: Color, castling: int) -> None:
    if board.count(W_KING) != 1 or board.count(B_KING) != 1:
        raise MalformedFEN("expected exactly one king per color", 0)
    for sq in range(8):
        if abs(board[sq]) == W_PAWN or abs(board[sq + 56]) == W_PAWN:
            raise MalformedFEN("pawn on rank 1 or 8", 0)
    home = ((CASTLE_WK, 4, W_KING, 7, W_ROOK), (CASTLE_WQ, 4, W_KING, 0, W_ROOK),
            (CASTLE_BK, 60, B_KING, 63, B_ROOK), (CASTLE_BQ, 60, B_KING, 56, B_ROOK))
    for bit, ksq, king, rsq, rook in home:
        if castling & bit and (board[ksq] != king or board[rsq] != rook):
            raise MalformedFEN("castling right without king/rook on home squares", 2)
    them_king = board.index(W_KING if stm == BLACK else B_KING)
    if attacked_by(board, them_king, stm):
        raise MalformedFEN("side not to move is in check", 1)


def to_fen(p: Position) -> str:
    rows = []
    for rank in range(7, -1, -1):
        row = ""
        empty = 0
        for file in range(8):
            cell = p.board[rank * 8 + file]
            if cell == 0:
                empty += 1
                continue
            if empty:
                row += str(empty)
                empty = 0
            ch = PIECE_CHARS[abs(cell) - 1]
            row += ch if cell > 0 else ch.lower()
        if empty:
            row += str(empty)
        rows.append(row)
    castling = "".join(ch for ch, bit in zip("KQkq", (1, 2, 4, 8)) if p.castling & bit) or "-"
    ep = square_name(p.en_passant) if p.en_passant is not None else "-"
    return " ".join(("/".join(rows), "wb"[p.side_to_move], castling, ep,
                     str(p.halfmove_clock), str(p.fullmove_number)))


_STARTPOS: Optional[Position] = None


def startpos() -> Position:
    global _STARTPOS
    if _STARTPOS is None:
        _STARTPOS = parse_fen(STARTPOS_FEN)
    return _STARTPOS


# ---------------------------------------------------------------------------
# Move generation
# ---------------------------------------------------------------------------

def _find_checkers(board, ksq: int, them: Color) -> list[int]:
    out = []
    if them == WHITE:
        pawn, knight, bishop, rook, queen = 1, 2, 3, 4, 5
    else:
        pawn, knight, bishop, rook, queen = -1, -2, -3, -4, -5
    for s in PAWN_ATTACKERS[them][ksq]:
        if board[s] == pawn:
            out.append(s)
    for s in KNIGHT_MOVES[ksq]:
        if board[s] == knight:
            out.append(s)
    for diagonal, ray in RAYS[ksq]:
        slider = bishop if diagonal else rook
        for s in ray:
            cell = board[s]
            if cell == 0:
                continue
            if cell == slider or cell == queen:
                out.append(s)
            break
    return out


def _find_pins(board, ksq: int, us: Color) -> dict[int, frozenset]:
    """Map of pinned own squares -> squares they may still move to."""
    pins: dict[int, frozenset] = {}
    own_positive = us == WHITE
    if us == WHITE:
        e_bishop, e_rook, e_queen = -3, -4, -5
    else:
        e_bishop, e_rook, e_queen = 3, 4, 5
    for diagonal, ray in RAYS[ksq]:
        slider = e_bishop if diagonal else e_rook
        shield = -1
        for s in ray:
            cell = board[s]
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


def _ep_is_legal(p: Position, from_sq: int, to_sq: int) -> bool:
    # Play the capture on a scratch board; covers pins and the rank x-ray
    # exposed by removing two pawns at once.
    us = p.side_to_move
    board = list(p.board)
    board[to_sq] = board[from_sq]
    board[from_sq] = 0
    board[to_sq + (-8 if us == WHITE else 8)] = 0
    return not attacked_by(board, p.king_square(us), us.other)


def _generate(p: Position) -> Iterator[Move]:
    """The legal moves of p, one at a time, in `legal_moves` order."""
    board = p.board
    us = p.side_to_move
    them = _OTHER_COLOR[us]
    own_positive = us == WHITE
    ksq = p._kings[us]

    # King steps (castling handled after check info is known).
    for t, quiet, take in _KING_STEPS[ksq]:
        cell = board[t]
        if cell != 0 and (cell > 0) == own_positive:
            continue
        if not attacked_by(board, t, them, ignore_sq=ksq):
            yield take if cell else quiet

    checkers = _find_checkers(board, ksq, them)
    if len(checkers) >= 2:
        return

    pins = _find_pins(board, ksq, us)

    if checkers:
        csq = checkers[0]
        target = set(BETWEEN[ksq * 64 + csq]) if abs(board[csq]) >= W_BISHOP else set()
        target.add(csq)
    else:
        target = None

    if us == WHITE:
        fwd, start_rank, promo_rank = 8, 1, 7
    else:
        fwd, start_rank, promo_rank = -8, 6, 0
    ep = p.en_passant

    for sq in range(64):
        cell = board[sq]
        if cell == 0 or (cell > 0) != own_positive:
            continue
        kind = cell if cell > 0 else -cell
        pin_mask = pins.get(sq)

        if kind == W_PAWN:
            rank = sq >> 3
            one = sq + fwd
            if board[one] == 0:
                ok = (pin_mask is None or one in pin_mask) and (target is None or one in target)
                if ok:
                    if (one >> 3) == promo_rank:
                        for promo in (QUEEN, ROOK, BISHOP, KNIGHT):
                            yield Move(sq, one, promotion=promo)
                    else:
                        yield _PLAIN_MOVES[sq * 64 + one][0]
                if rank == start_rank and board[one + fwd] == 0:
                    two = one + fwd
                    if (pin_mask is None or two in pin_mask) and (target is None or two in target):
                        yield Move(sq, two, double_push=True)
            for t in PAWN_ATTACKS[us][sq]:
                tc = board[t]
                if tc != 0 and (tc > 0) != own_positive:
                    if (pin_mask is None or t in pin_mask) and (target is None or t in target):
                        if (t >> 3) == promo_rank:
                            for promo in (QUEEN, ROOK, BISHOP, KNIGHT):
                                yield Move(sq, t, promotion=promo, capture=True)
                        else:
                            yield _PLAIN_MOVES[sq * 64 + t][1]
                elif t == ep and ep is not None:
                    # Full make-test: en passant has its own discovered-check
                    # geometry that the pin map does not cover.
                    if _ep_is_legal(p, sq, t):
                        yield Move(sq, t, capture=True, en_passant=True)

        elif kind == W_KNIGHT:
            if pin_mask is not None:
                continue
            for t, quiet, take in _KNIGHT_STEPS[sq]:
                tc = board[t]
                if tc != 0 and (tc > 0) == own_positive:
                    continue
                if target is None or t in target:
                    yield take if tc else quiet

        elif kind != W_KING:
            lo = 4 if kind == W_BISHOP else 0
            hi = 4 if kind == W_ROOK else 8
            for ray in _RAY_STEPS[sq][lo:hi]:
                for t, quiet, take in ray:
                    tc = board[t]
                    if tc != 0 and (tc > 0) == own_positive:
                        break
                    if ((pin_mask is None or t in pin_mask)
                            and (target is None or t in target)):
                        yield take if tc else quiet
                    if tc != 0:
                        break

    if not checkers:
        if us == WHITE:
            if (p.castling & CASTLE_WK and board[5] == 0 and board[6] == 0
                    and board[7] == W_ROOK
                    and not attacked_by(board, 5, them)
                    and not attacked_by(board, 6, them)):
                yield Move(4, 6, castle=True)
            if (p.castling & CASTLE_WQ and board[3] == 0 and board[2] == 0
                    and board[1] == 0 and board[0] == W_ROOK
                    and not attacked_by(board, 3, them)
                    and not attacked_by(board, 2, them)):
                yield Move(4, 2, castle=True)
        else:
            if (p.castling & CASTLE_BK and board[61] == 0 and board[62] == 0
                    and board[63] == B_ROOK
                    and not attacked_by(board, 61, them)
                    and not attacked_by(board, 62, them)):
                yield Move(60, 62, castle=True)
            if (p.castling & CASTLE_BQ and board[59] == 0 and board[58] == 0
                    and board[57] == 0 and board[56] == B_ROOK
                    and not attacked_by(board, 59, them)
                    and not attacked_by(board, 58, them)):
                yield Move(60, 58, castle=True)


def legal_moves(p: Position) -> list[Move]:
    """Complete legal move list; empty iff checkmate or stalemate. Memoized."""
    if p._legal is None:
        p._legal = list(_generate(p))
    return p._legal


def has_legal_move(p: Position) -> bool:
    """Whether p has a legal move; stops at the first one generated."""
    if p._legal is not None:
        return bool(p._legal)
    return next(_generate(p), None) is not None


def _legal_key_map(p: Position) -> dict[int, Move]:
    if p._legal_keys is None:
        p._legal_keys = {m.key(): m for m in legal_moves(p)}
    return p._legal_keys


def find_legal(p: Position, move: Move) -> Optional[Move]:
    """Resolve a bare (from, to, promotion) move against the legal list."""
    return _legal_key_map(p).get(move.key())


_ROOK_HOPS = {6: (7, 5), 2: (0, 3), 62: (63, 61), 58: (56, 59)}
# castling rights that survive a move from or to a square: a rook leaving
# or taken on its home corner loses its side's right there
_RIGHTS_KEPT = tuple(
    15 & ~{0: CASTLE_WQ, 7: CASTLE_WK, 56: CASTLE_BQ, 63: CASTLE_BK}.get(sq, 0)
    for sq in range(64))
_new_position = object.__new__


def apply_move(p: Position, m: Move) -> Position:
    """Successor position. Raises IllegalMove unless m is legal in p.

    A bare (from, to, promotion) move, as parsed from UCI or PGN, is
    resolved to the generated move carrying its castle, en passant and
    double-push flags before it is played.
    """
    canonical = find_legal(p, m)
    if canonical is None:
        raise IllegalMove(f"{m.uci()} is not legal in {to_fen(p)}")
    return make_move(p, canonical)


def make_move(p: Position, m: Move) -> Position:
    """Successor position, unchecked: m must be an element of
    `legal_moves(p)`, whose flags it trusts. Anything else goes through
    `apply_move`."""
    board = list(p.board)
    us = p.side_to_move
    frm, to = m.from_sq, m.to_sq
    pc = board[frm]
    keys = _ZOBRIST_BY_CELL
    z = p.zobrist ^ ZOBRIST_SIDE ^ keys[pc][frm]

    captured = board[to]
    if m.en_passant:
        cap_sq = to + (-8 if us == WHITE else 8)
        z ^= keys[board[cap_sq]][cap_sq]
        board[cap_sq] = 0
    elif captured:
        z ^= keys[captured][to]

    board[frm] = 0
    if m.promotion is not None:
        new_pc = (m.promotion + 1) if us == WHITE else -(m.promotion + 1)
    else:
        new_pc = pc
    board[to] = new_pc
    z ^= keys[new_pc][to]

    if m.castle:
        r_from, r_to = _ROOK_HOPS[to]
        rook = board[r_from]
        board[r_from] = 0
        board[r_to] = rook
        z ^= keys[rook][r_from] ^ keys[rook][r_to]

    # the successor inherits the king squares; only a king move changes one
    kings = p._kings
    castling = p.castling
    if pc == W_KING:
        kings = (to, kings[1])
        castling &= ~(CASTLE_WK | CASTLE_WQ)
    elif pc == B_KING:
        kings = (kings[0], to)
        castling &= ~(CASTLE_BK | CASTLE_BQ)
    if castling:
        castling &= _RIGHTS_KEPT[frm] & _RIGHTS_KEPT[to]
    changed = castling ^ p.castling
    if changed:
        for bit in range(4):
            if changed & (1 << bit):
                z ^= ZOBRIST_CASTLE[bit]

    # Position.__init__ without its key and king scans: both are carried
    q = _new_position(Position)
    q.board = tuple(board)
    q.side_to_move = _OTHER_COLOR[us]
    q.castling = castling
    q.en_passant = (frm + to) // 2 if m.double_push else None
    q.halfmove_clock = (0 if m.capture or pc == W_PAWN or pc == B_PAWN
                        else p.halfmove_clock + 1)
    q.fullmove_number = p.fullmove_number + (1 if us == BLACK else 0)
    q.zobrist = z
    q._legal = None
    q._legal_keys = None
    q._kings = kings
    return q


def perft(p: Position, depth: int) -> int:
    """Leaf count of the legal-move tree at exactly `depth`."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth == 0:
        return 1
    moves = legal_moves(p)
    if depth == 1:
        return len(moves)
    total = 0
    for m in moves:
        total += perft(make_move(p, m), depth - 1)
    return total


def random_playout(p: Position, plies: int, rng: random.Random) -> Iterator[Position]:
    """Yield successive positions of a uniformly random legal playout."""
    for _ in range(plies):
        moves = legal_moves(p)
        if not moves:
            return
        p = make_move(p, rng.choice(moves))
        yield p
