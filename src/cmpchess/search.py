"""Comparison-based alpha-beta search.

Classical alpha-beta keeps two scores; here the window is a pair of
*bounds* that are usually positions, and every pruning or improvement
decision between two positions is a comparator call. A bound is either
the leaf `Position` itself or an integer rank for an outcome the
comparator is never asked about:

    MIN_BOUND       -MATE - 1   below everything (initial alpha)
    loss(ply)       ply - MATE  the mover is mated `ply` plies from the
                                search root; a later mate ranks higher
    DRAW            -1          the line ends drawn, held by the mover
    a position      (0)         an ordinary leaf, ranked by the comparator
    DRAW_GIVEN      +1          the mover forces the draw on the opponent
    win(ply)        MATE - ply  the mover mates, sooner ranks higher
    MAX_BOUND       MATE + 1    above everything (initial beta)

A position stands at rank 0 only when it meets an integer; two positions
go to the comparator. Negation (the negamax perspective flip) is `-b`
for a rank, which swaps loss and win, the two draws and the two
sentinels, and leaves a position untouched: one side's mate is the
other's, and a stored position simply gets re-compared from the other
perspective. Draws rank below every ordinary position for the side held
to them and above for the side forcing them; this keeps the order
consistent under negation, at the documented cost that the engine never
*prefers* to be the one held to a draw.

The comparator is always asked from White's perspective and the answer
is inverted at nodes where Black is to move.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .board import Color, Move, Position, has_legal_move, legal_moves
# search plays only generated moves; the name keeps the bench span's hook
from .board import make_move as apply_move
from .inference import CELL_VALUES, Ordering

MATE = 1_000_000  # above any reachable ply count
MIN_BOUND = -MATE - 1
MAX_BOUND = MATE + 1
DRAW = -1
DRAW_GIVEN = 1


def loss(ply: int) -> int:
    """The mover is mated `ply` plies from the root; later ranks higher."""
    return ply - MATE


def win(ply: int) -> int:
    """The mover mates `ply` plies from the root; sooner ranks higher."""
    return MATE - ply


def negate(b: Position | int) -> Position | int:
    """The same outcome seen by the other side."""
    return b if isinstance(b, Position) else -b


def bound_compare(x: Position | int, y: Position | int, cmp,
                  perspective: Color) -> Ordering:
    """Order two bounds for the side `perspective` is moving for.

    Returns FIRST_BETTER only when x is strictly better than y; equal
    standing (tied positions, same-rank outcomes) falls to
    SECOND_BETTER like every other exact tie.
    """
    if isinstance(x, Position) and isinstance(y, Position):
        verdict = cmp(x, y)
        if perspective == Color.BLACK:
            verdict = (Ordering.SECOND_BETTER
                       if verdict is Ordering.FIRST_BETTER
                       else Ordering.FIRST_BETTER)
        return verdict
    x_rank = 0 if isinstance(x, Position) else x
    y_rank = 0 if isinstance(y, Position) else y
    return (Ordering.FIRST_BETTER if x_rank > y_rank
            else Ordering.SECOND_BETTER)


class NoLegalMoves(Exception):
    pass


class _Abort(Exception):
    pass


@dataclass
class SearchLimits:
    max_depth: int = 64
    soft_time: Optional[float] = None  # seconds; no new iteration past this
    hard_time: Optional[float] = None  # seconds; abort mid-iteration
    node_cap: Optional[int] = None

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if (self.soft_time is not None and self.hard_time is not None
                and self.soft_time > self.hard_time):
            raise ValueError("soft_time must not exceed hard_time")


def clock_limits(remaining: float, max_depth: int,
                 increment: float = 0.0) -> SearchLimits:
    """Per-move budget from the mover's remaining clock and increment,
    in seconds.

    Soft limit = remaining/30 + increment/2, hard limit = twice that but
    at most half the remaining clock; the soft limit never exceeds the
    hard one. A clock at or below zero counts as one millisecond, so the
    budget stays positive. Without an increment the hard limit is
    exactly twice the soft one.
    """
    remaining = max(remaining, 0.001)
    soft = remaining / 30.0 + increment / 2.0
    hard = min(2 * soft, remaining / 2.0)
    return SearchLimits(max_depth=max_depth, soft_time=min(soft, hard),
                        hard_time=hard)


@dataclass
class SearchResult:
    best_move: Move
    line: list
    nodes: int
    cutoffs: int
    cache_hits: int
    depth_reached: int


@dataclass
class SearchStats:
    nodes: int = 0
    cutoffs: int = 0
    # abort checks arm once the first iteration is done; the clock is
    # sampled every node because one node can be slow under a learned
    # comparator
    deadline: Optional[float] = None
    node_cap: Optional[int] = None
    checking: bool = False

    def tick(self) -> None:
        self.nodes += 1
        if not self.checking:
            return
        if self.node_cap is not None and self.nodes >= self.node_cap:
            raise _Abort
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise _Abort


def _victim_value(p: Position, m: Move) -> int:
    if m.en_passant:
        return CELL_VALUES[1]
    return CELL_VALUES[abs(p.board[m.to_sq])]


def order_moves(p: Position, moves: Sequence[Move],
                first: Optional[Move] = None) -> list:
    """Previous best first, then captures by victim value, then quiets."""
    lead = []
    captures = []
    quiets = []
    for m in moves:
        if first is not None and m == first:
            lead.append(m)
        elif m.capture:
            captures.append(m)
        else:
            quiets.append(m)
    captures.sort(key=lambda m: -_victim_value(p, m))  # stable on ties
    return lead + captures + quiets


def _ab(p: Position, depth: int, alpha: Position | int, beta: Position | int,
        cmp, stats: SearchStats, ply: int, prev_best: Optional[Move]):
    """Fail-soft negamax core. Returns (bound, move, principal line)."""
    stats.tick()
    if depth == 0 and has_legal_move(p):  # a leaf needs one move, not all
        return p, None, []
    moves = legal_moves(p)
    if not moves:  # terminal outranks the depth horizon
        return (loss(ply) if p.is_check() else DRAW), None, []

    side = p.side_to_move
    best = MIN_BOUND
    best_move = None
    best_line: list = []
    for m in order_moves(p, moves, prev_best):
        child = apply_move(p, m)
        v, _, child_line = _ab(child, depth - 1, negate(beta), negate(alpha),
                               cmp, stats, ply + 1, None)
        v = negate(v)
        above_best = (bound_compare(v, best, cmp, side)
                      is Ordering.FIRST_BETTER)
        # Once alpha has been raised to best itself, (v, alpha) is the
        # question just asked; the verdict holds for any deterministic
        # comparator, intransitive ones too; an int alpha and best that
        # are one object are equal ranks, which no comparator orders.
        above_alpha = above_best if alpha is best else (
            bound_compare(v, alpha, cmp, side) is Ordering.FIRST_BETTER)
        if above_best:
            best, best_move, best_line = v, m, [m] + child_line
        if above_alpha:
            alpha = v
        if bound_compare(beta, v, cmp, side) is not Ordering.FIRST_BETTER:
            stats.cutoffs += 1  # v meets or exceeds beta
            break
    return best, best_move, best_line


def alphabeta_cmp(p: Position, depth: int, alpha: Position | int,
                  beta: Position | int, cmp,
                  stats: Optional[SearchStats] = None) -> tuple:
    """One fixed-depth comparison search. Returns (bound, move).

    Pass a SearchStats to collect node/cutoff counts for this call.
    """
    bound, move, _ = _ab(p, depth, alpha, beta, cmp,
                         stats if stats is not None else SearchStats(), 0, None)
    return bound, move


def search_root(p: Position, limits: SearchLimits, cmp) -> SearchResult:
    """Iterative deepening driver.

    Deepens from 1 to `limits.max_depth`; depth 1 always completes, so
    a legal move is guaranteed. The previous iteration's best move is
    searched first at the root. Hard-time or node-cap aborts discard
    the unfinished iteration and return the last completed one.
    """
    if not legal_moves(p):
        raise NoLegalMoves(f"no legal moves in {p!r}")
    cache = getattr(cmp, "cache", None)
    hits_before = cache.hits if cache is not None else 0

    start = time.monotonic()
    stats = SearchStats(node_cap=limits.node_cap)
    if limits.hard_time is not None:
        stats.deadline = start + limits.hard_time

    best_move: Optional[Move] = None
    best_line: list = []
    depth_reached = 0
    for depth in range(1, limits.max_depth + 1):
        if (limits.soft_time is not None and depth_reached >= 1
                and time.monotonic() - start >= limits.soft_time):
            break
        try:
            _, move, line = _ab(p, depth, MIN_BOUND, MAX_BOUND, cmp,
                                stats, 0, best_move)
        except _Abort:
            break
        best_move, best_line, depth_reached = move, line, depth
        stats.checking = True  # first iteration done: aborts armed
        if stats.node_cap is not None and stats.nodes >= stats.node_cap:
            break
    hits = (cache.hits - hits_before) if cache is not None else 0
    return SearchResult(best_move=best_move, line=best_line,
                        nodes=stats.nodes, cutoffs=stats.cutoffs,
                        cache_hits=hits, depth_reached=depth_reached)
