"""Engine-vs-engine match harness with draw adjudication and Elo.

The comparator-driven search knows nothing about draws by rule, so the
harness adjudicates: checkmate/stalemate, threefold repetition, the
fifty-move rule, insufficient material, and a hard ply cap as a final
backstop. Games are played in-process (two configs, two comparators,
one board), which keeps a fixed-limit match bit-for-bit reproducible.
"""

from __future__ import annotations

import io
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .board import Color, GameOutcome, Position, apply_move, legal_moves, \
    parse_fen, startpos, to_fen
from .pgn import write_pgn
from .search import SearchLimits, clock_limits, search_root
from .uci import EngineConfig, build_comparator, engine_label


class EngineFailure(Exception):
    """An engine crashed mid-match; `partial_report` covers what finished."""

    def __init__(self, message: str, partial_report=None):
        super().__init__(message)
        self.partial_report = partial_report


class UndefinedForShutout(ValueError):
    pass


def elo_from_fraction(s: float) -> float:
    """Elo rating difference implied by a points fraction."""
    import math

    if not 0.0 < s < 1.0:
        raise UndefinedForShutout(f"points fraction {s} has no finite rating")
    diff = -400.0 * math.log10(1.0 / s - 1.0)
    return diff if diff else 0.0  # normalize -0.0


@dataclass
class MatchSpec:
    engines: tuple  # (EngineConfig, EngineConfig): engine A, engine B
    games: int = 2
    # whole-game clock per side in seconds, per engine; None plays at
    # each engine's fixed max_depth, which is what makes a match
    # deterministic
    time_per_game: Optional[tuple] = None
    openings: Optional[Sequence] = None  # FEN strings or Positions
    alternate_colors: bool = True
    max_plies: int = 400  # backstop adjudication: very long game = draw

    def __post_init__(self):
        if self.games < 1:
            raise ValueError("games must be >= 1")
        if self.alternate_colors and self.games % 2:
            raise ValueError("alternating colors needs an even game count")
        if self.max_plies < 2:
            raise ValueError("max_plies must be >= 2")


@dataclass
class MatchReport:
    score: tuple  # (wins, losses, draws) for engine A
    points_fraction: float
    elo_diff: Optional[float]  # None when the match was a shutout
    pgn: str
    reasons: list = field(default_factory=list)  # termination per game


def insufficient_material(p: Position) -> bool:
    """Neither side can possibly deliver mate (kings, one minor, or
    same-colored bishops only)."""
    minors = []
    bishops_shades = set()
    for sq, cell in enumerate(p.board):
        kind = abs(cell)
        if kind in (0, 6):
            continue
        if kind in (1, 4, 5):  # a pawn, rook or queen can always mate
            return False
        minors.append(kind)
        if kind == 3:
            bishops_shades.add((sq // 8 + sq % 8) % 2)
    if len(minors) <= 1:
        return True
    return all(k == 3 for k in minors) and len(bishops_shades) == 1


def _repetition_key(p: Position) -> str:
    # position identity for the repetition rule: ignore the counters
    return " ".join(to_fen(p).split()[:4])


def _adjudicate(p: Position, seen: Counter) -> Optional[tuple]:
    """(outcome, reason) when the game is over at p, else None."""
    if not legal_moves(p):
        if p.is_check():
            winner = (GameOutcome.WHITE_WINS
                      if p.side_to_move == Color.BLACK
                      else GameOutcome.BLACK_WINS)
            return winner, "checkmate"
        return GameOutcome.DRAW, "stalemate"
    if p.halfmove_clock >= 100:
        return GameOutcome.DRAW, "fifty-move rule"
    if seen[_repetition_key(p)] >= 3:
        return GameOutcome.DRAW, "threefold repetition"
    if insufficient_material(p):
        return GameOutcome.DRAW, "insufficient material"
    return None


def play_game(white: EngineConfig, black: EngineConfig, comparators: dict,
              start: Position, time_per_side: Optional[tuple],
              max_plies: int):
    """One game. Returns (moves, outcome, reason)."""
    clocks = list(time_per_side) if time_per_side else [None, None]
    p = start
    moves = []
    seen = Counter({_repetition_key(p): 1})
    for _ in range(max_plies):
        over = _adjudicate(p, seen)
        if over:
            return moves, over[0], over[1]
        mover = p.side_to_move
        cfg = white if mover == Color.WHITE else black
        limits = (SearchLimits(max_depth=cfg.max_depth)
                  if clocks[mover] is None
                  else clock_limits(clocks[mover], cfg.max_depth))
        began = time.monotonic()
        try:
            result = search_root(p, limits, comparators[mover])
        except Exception as exc:
            raise EngineFailure(
                f"{engine_label(cfg)} as {mover.name} failed: {exc}") from exc
        if clocks[mover] is not None:
            clocks[mover] -= time.monotonic() - began
            if clocks[mover] <= 0:
                winner = (GameOutcome.BLACK_WINS if mover == Color.WHITE
                          else GameOutcome.WHITE_WINS)
                return moves, winner, "time forfeit"
        p = apply_move(p, result.best_move)
        moves.append(result.best_move)
        seen[_repetition_key(p)] += 1
    return moves, GameOutcome.DRAW, "adjudicated at move cap"


def _resolve_openings(openings) -> list:
    if not openings:
        return [startpos()]
    out = []
    for item in openings:
        out.append(item if isinstance(item, Position) else parse_fen(item))
    return out


def _score_for_a(outcome: GameOutcome, a_is_white: bool) -> float:
    if outcome == GameOutcome.DRAW:
        return 0.5
    a_won = (outcome == GameOutcome.WHITE_WINS) == a_is_white
    return 1.0 if a_won else 0.0


def _make_report(wins, losses, draws, pgn_text, reasons) -> MatchReport:
    games = wins + losses + draws
    fraction = (wins + draws / 2.0) / games if games else 0.0
    try:
        elo = elo_from_fraction(fraction) if games else None
    except UndefinedForShutout:
        elo = None
    return MatchReport(score=(wins, losses, draws),
                       points_fraction=fraction, elo_diff=elo,
                       pgn=pgn_text, reasons=reasons)


def run_match(spec: MatchSpec) -> MatchReport:
    """Play the whole match; deterministic when depth-limited.

    Openings are consumed one per color-pair when alternating, so a
    swapped-engines rerun plays the identical games with the labels
    exchanged (and its elo_diff is the exact negation).
    """
    cfg_a, cfg_b = spec.engines
    cmp_a, cmp_b = build_comparator(cfg_a), build_comparator(cfg_b)
    openings = _resolve_openings(spec.openings)

    wins = losses = draws = 0
    reasons = []
    pgn_io = io.StringIO()
    for g in range(spec.games):
        a_is_white = (g % 2 == 0) if spec.alternate_colors else True
        opening_idx = (g // 2) if spec.alternate_colors else g
        opening = openings[opening_idx % len(openings)]
        if a_is_white:
            white_cfg, black_cfg = cfg_a, cfg_b
            comparators = {Color.WHITE: cmp_a, Color.BLACK: cmp_b}
        else:
            white_cfg, black_cfg = cfg_b, cfg_a
            comparators = {Color.WHITE: cmp_b, Color.BLACK: cmp_a}
        times = None
        if spec.time_per_game is not None:
            ta, tb = spec.time_per_game
            times = (ta, tb) if a_is_white else (tb, ta)
        try:
            moves, outcome, reason = play_game(
                white_cfg, black_cfg, comparators, opening, times,
                spec.max_plies)
        except EngineFailure as failure:
            failure.partial_report = _make_report(
                wins, losses, draws, pgn_io.getvalue(), reasons)
            raise
        point = _score_for_a(outcome, a_is_white)
        wins += point == 1.0
        losses += point == 0.0
        draws += point == 0.5
        reasons.append(reason)
        write_pgn(pgn_io, moves, outcome,
                  tags={"Event": "cmpchess match", "Round": str(g + 1),
                        "White": engine_label(white_cfg),
                        "Black": engine_label(black_cfg),
                        "Termination": reason},
                  start=opening)
        pgn_io.write("\n")
    return _make_report(wins, losses, draws, pgn_io.getvalue(), reasons)
