"""PGN reading and writing on top of the rules engine.

Reading is a lazy single-pass stream: each well-formed game yields a
(moves, outcome, tags, start) record; malformed games, a FEN tag that
does not parse among them, are skipped and reported through a callback,
never aborting the stream. Only the mainline is kept; comments,
variations and numeric annotations are dropped.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, NamedTuple, Optional, TextIO

from .board import (
    Color, GameOutcome, Move, Position, MalformedFEN, PieceType,
    apply_move, legal_moves, parse_fen, parse_square, square_name, startpos,
    to_fen, FILES, STARTPOS_FEN,
)


class MalformedPGN(ValueError):
    def __init__(self, message: str, game_index: int):
        super().__init__(f"game {game_index}: {message}")
        self.game_index = game_index


class PgnGame(NamedTuple):
    moves: list
    outcome: GameOutcome
    tags: dict
    start: Position  # the FEN tag's position, else the standard start


_TAG_RE = re.compile(r'\[\s*(\w+)\s+"((?:[^"\\]|\\.)*)"\s*\]')
_RESULTS = {"1-0": GameOutcome.WHITE_WINS, "0-1": GameOutcome.BLACK_WINS,
            "1/2-1/2": GameOutcome.DRAW, "*": GameOutcome.UNKNOWN}
_RESULT_TEXT = {v: k for k, v in _RESULTS.items()}
_SAN_RE = re.compile(
    r"^(?:(?P<castle>O-O-O|O-O|0-0-0|0-0)"
    r"|(?P<piece>[PNBRQK])?(?P<disfile>[a-h])?(?P<disrank>[1-8])?"
    r"(?P<capture>x)?(?P<target>[a-h][1-8])(?:=?(?P<promo>[NBRQ]))?)"
    r"[+#]?[!?]*$"
)
_MOVE_NUMBER_RE = re.compile(r"^\d+\.*$")

_PIECE_LETTERS = {"P": PieceType.PAWN, "N": PieceType.KNIGHT, "B": PieceType.BISHOP,
                  "R": PieceType.ROOK, "Q": PieceType.QUEEN, "K": PieceType.KING}
_LETTER_OF = {v: k for k, v in _PIECE_LETTERS.items()}


def parse_san(p: Position, token: str) -> Move:
    """Resolve one SAN token against the legal moves of `p`.

    Raises ValueError when the token is unreadable, matches no legal move,
    or is ambiguous.
    """
    m = _SAN_RE.match(token)
    if m is None:
        raise ValueError(f"unreadable SAN token {token!r}")

    if m.group("castle"):
        to_file = 6 if m.group("castle") in ("O-O", "0-0") else 2
        for move in legal_moves(p):
            if move.castle and (move.to_sq & 7) == to_file:
                return move
        raise ValueError(f"{token!r} is not legal here")

    target = parse_square(m.group("target"))
    piece = _PIECE_LETTERS[m.group("piece") or "P"]
    promo = _PIECE_LETTERS[m.group("promo")] if m.group("promo") else None
    disfile = FILES.index(m.group("disfile")) if m.group("disfile") else None
    disrank = int(m.group("disrank")) - 1 if m.group("disrank") else None

    matches = []
    for move in legal_moves(p):
        if move.to_sq != target or move.castle:
            continue
        kind = abs(p.board[move.from_sq]) - 1
        if kind != piece:
            continue
        if (move.promotion or None) != (None if promo is None else int(promo)):
            continue
        if disfile is not None and (move.from_sq & 7) != disfile:
            continue
        if disrank is not None and (move.from_sq >> 3) != disrank:
            continue
        if m.group("capture") and not move.capture:
            continue
        matches.append(move)
    if not matches:
        raise ValueError(f"{token!r} is not legal here")
    if len(matches) > 1:
        raise ValueError(f"{token!r} is ambiguous")
    return matches[0]


def to_san(p: Position, move: Move) -> str:
    """SAN for a legal move of `p`, with +/# suffix."""
    board = p.board
    if move.castle:
        san = "O-O" if (move.to_sq & 7) == 6 else "O-O-O"
    else:
        kind = abs(board[move.from_sq]) - 1
        if kind == PieceType.PAWN:
            san = ""
            if move.capture:
                san += FILES[move.from_sq & 7] + "x"
            san += square_name(move.to_sq)
            if move.promotion is not None:
                san += "=" + _LETTER_OF[PieceType(move.promotion)]
        else:
            san = _LETTER_OF[PieceType(kind)]
            # Disambiguate among same-kind pieces that can also reach the target.
            rivals = [m for m in legal_moves(p)
                      if m.to_sq == move.to_sq and m.from_sq != move.from_sq
                      and not m.castle and abs(board[m.from_sq]) - 1 == kind]
            if rivals:
                same_file = any((m.from_sq & 7) == (move.from_sq & 7) for m in rivals)
                same_rank = any((m.from_sq >> 3) == (move.from_sq >> 3) for m in rivals)
                if not same_file:
                    san += FILES[move.from_sq & 7]
                elif not same_rank:
                    san += str((move.from_sq >> 3) + 1)
                else:
                    san += square_name(move.from_sq)
            if move.capture:
                san += "x"
            san += square_name(move.to_sq)

    after = apply_move(p, move)
    if after.is_checkmate():
        san += "#"
    elif after.is_check():
        san += "+"
    return san


def _strip_movetext(text: str) -> list[str]:
    """Drop comments/variations/NAGs, keep SAN tokens and result markers."""
    out = []
    depth = 0
    in_brace = False
    token = ""
    i = 0
    while i < len(text):
        ch = text[i]
        if in_brace:
            if ch == "}":
                in_brace = False
        elif ch == "{":
            in_brace = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                raise ValueError("unbalanced variation parenthesis")
            depth -= 1
        elif ch == ";" and depth == 0:
            while i < len(text) and text[i] != "\n":
                i += 1
        elif depth == 0:
            if ch.isspace():
                if token:
                    out.append(token)
                    token = ""
            else:
                token += ch
        i += 1
    if token:
        out.append(token)
    if depth != 0:
        raise ValueError("unclosed variation")
    if in_brace:
        raise ValueError("unclosed comment")
    return out


def _replay(tokens: list[str], start: Position):
    moves = []
    p = start
    outcome = None
    for tok in tokens:
        if tok in _RESULTS:
            outcome = _RESULTS[tok]
            break
        if _MOVE_NUMBER_RE.match(tok) or tok.startswith("$"):
            continue
        glued = re.match(r"^\d+\.+(\S+)$", tok)
        if glued:  # "12.e4" with no space after the move number
            tok = glued.group(1)
        move = parse_san(p, tok)
        moves.append(move)
        p = apply_move(p, move)
    return moves, outcome


def parse_pgn(stream: TextIO,
              on_malformed: Optional[Callable[[MalformedPGN], None]] = None
              ) -> Iterator[PgnGame]:
    """Yield (moves, outcome, tags, start) per game, lazily.

    Malformed games are passed to `on_malformed` (if given) and skipped;
    the stream continues with the next game.
    """
    game_index = 0
    tags: dict = {}
    movetext_lines: list[str] = []
    saw_movetext = False

    def finish():
        nonlocal tags, movetext_lines, saw_movetext, game_index
        record = None
        if tags or saw_movetext:
            idx = game_index
            game_index += 1
            try:
                record = _assemble(tags, " ".join(movetext_lines), idx)
            except MalformedPGN as err:
                if on_malformed is not None:
                    on_malformed(err)
        tags, movetext_lines, saw_movetext = {}, [], False
        return record

    for raw in stream:
        line = raw.strip()
        if line.startswith("%"):  # escape mechanism: ignored line
            continue
        if line.startswith("["):
            tag = _TAG_RE.match(line)
            if saw_movetext:
                record = finish()
                if record is not None:
                    yield record
            if tag:
                tags[tag.group(1)] = re.sub(r"\\(.)", r"\1", tag.group(2))
            else:
                movetext_lines.append(line)  # let the tokenizer reject it
                saw_movetext = True
        elif line:
            movetext_lines.append(line)
            saw_movetext = True
    record = finish()
    if record is not None:
        yield record


def _assemble(tags: dict, movetext: str, idx: int) -> PgnGame:
    if "FEN" in tags:
        try:
            start = parse_fen(tags["FEN"])
        except MalformedFEN as err:
            raise MalformedPGN(f"bad FEN tag: {err}", idx) from None
    else:
        start = startpos()
    try:
        tokens = _strip_movetext(movetext)
        moves, outcome = _replay(tokens, start)
    except ValueError as err:
        raise MalformedPGN(str(err), idx) from None
    if outcome is None:
        tag = tags.get("Result")
        if tag in _RESULTS:
            outcome = _RESULTS[tag]
        else:
            raise MalformedPGN("missing result", idx)
    return PgnGame(moves, outcome, tags, start)


def write_pgn(out: TextIO, moves: list, outcome: GameOutcome,
              tags: Optional[dict] = None, start: Optional[Position] = None) -> None:
    """Append one game in export format (tag section + wrapped movetext)."""
    tags = dict(tags or {})
    result = _RESULT_TEXT[outcome]
    roster = ["Event", "Site", "Date", "Round", "White", "Black", "Result"]
    defaults = {"Event": "?", "Site": "?", "Date": "????.??.??", "Round": "?",
                "White": "?", "Black": "?", "Result": result}
    tags.setdefault("Result", result)
    p = start if start is not None else startpos()
    if start is not None and to_fen(start) != STARTPOS_FEN:
        tags.setdefault("SetUp", "1")
        tags.setdefault("FEN", to_fen(start))
    for name in roster:
        out.write(f'[{name} "{tags.get(name, defaults[name])}"]\n')
    for name in sorted(tags):
        if name not in roster:
            out.write(f'[{name} "{tags[name]}"]\n')
    out.write("\n")

    parts = []
    for i, move in enumerate(moves):
        if p.side_to_move == Color.WHITE:
            parts.append(f"{p.fullmove_number}.")
        elif i == 0:
            parts.append(f"{p.fullmove_number}...")
        parts.append(to_san(p, move))
        p = apply_move(p, move)
    parts.append(result)

    line = ""
    for part in parts:
        if line and len(line) + 1 + len(part) > 79:
            out.write(line + "\n")
            line = part
        else:
            line = f"{line} {part}" if line else part
    out.write(line + "\n\n")
