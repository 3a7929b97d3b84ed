"""Independent reference implementations used only by the test suite.

Everything here is written the slow, obvious way on purpose: pseudo-legal
generation plus copy-make king-safety filtering, scalar minimax/alpha-beta,
finite differences. None of it shares logic with the package internals.
"""

from __future__ import annotations

from cmpchess import board
from cmpchess.board import Position, Color
from cmpchess.inference import baseline_eval

WHITE, BLACK = Color.WHITE, Color.BLACK


def _on_board(f, r):
    return 0 <= f < 8 and 0 <= r < 8


def _sq(f, r):
    return r * 8 + f


def naive_attacks(board, color) -> set:
    """Every square attacked by `color`, computed piece by piece."""
    out = set()
    sign = 1 if color == WHITE else -1
    for sq in range(64):
        cell = board[sq]
        if cell == 0 or (cell > 0) != (sign > 0):
            continue
        f, r = sq % 8, sq // 8
        kind = abs(cell)
        if kind == 1:  # pawn
            dr = 1 if sign > 0 else -1
            for df in (-1, 1):
                if _on_board(f + df, r + dr):
                    out.add(_sq(f + df, r + dr))
        elif kind == 2:  # knight
            for df, dr in ((1, 2), (2, 1), (2, -1), (1, -2),
                           (-1, -2), (-2, -1), (-2, 1), (-1, 2)):
                if _on_board(f + df, r + dr):
                    out.add(_sq(f + df, r + dr))
        elif kind == 6:  # king
            for df in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    if (df or dr) and _on_board(f + df, r + dr):
                        out.add(_sq(f + df, r + dr))
        else:  # sliders
            dirs = []
            if kind in (3, 5):
                dirs += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
            if kind in (4, 5):
                dirs += [(1, 0), (-1, 0), (0, 1), (0, -1)]
            for df, dr in dirs:
                nf, nr = f + df, r + dr
                while _on_board(nf, nr):
                    out.add(_sq(nf, nr))
                    if board[_sq(nf, nr)] != 0:
                        break
                    nf += df
                    nr += dr
    return out


def _naive_pseudo(p: Position):
    """Pseudo-legal (from, to, promo, is_ep, is_castle) tuples."""
    board = p.board
    sign = 1 if p.side_to_move == WHITE else -1
    moves = []
    for sq in range(64):
        cell = board[sq]
        if cell == 0 or (cell > 0) != (sign > 0):
            continue
        f, r = sq % 8, sq // 8
        kind = abs(cell)
        if kind == 1:
            dr = 1 if sign > 0 else -1
            start = 1 if sign > 0 else 6
            last = 7 if sign > 0 else 0
            if board[_sq(f, r + dr)] == 0:
                if r + dr == last:
                    for promo in (2, 3, 4, 5):
                        moves.append((sq, _sq(f, r + dr), promo, False, False))
                else:
                    moves.append((sq, _sq(f, r + dr), None, False, False))
                if r == start and board[_sq(f, r + 2 * dr)] == 0:
                    moves.append((sq, _sq(f, r + 2 * dr), None, False, False))
            for df in (-1, 1):
                if not _on_board(f + df, r + dr):
                    continue
                t = _sq(f + df, r + dr)
                tc = board[t]
                if tc != 0 and (tc > 0) != (sign > 0):
                    if r + dr == last:
                        for promo in (2, 3, 4, 5):
                            moves.append((sq, t, promo, False, False))
                    else:
                        moves.append((sq, t, None, False, False))
                elif p.en_passant is not None and t == p.en_passant:
                    moves.append((sq, t, None, True, False))
        elif kind == 2:
            for df, dr in ((1, 2), (2, 1), (2, -1), (1, -2),
                           (-1, -2), (-2, -1), (-2, 1), (-1, 2)):
                if _on_board(f + df, r + dr):
                    t = _sq(f + df, r + dr)
                    if board[t] == 0 or (board[t] > 0) != (sign > 0):
                        moves.append((sq, t, None, False, False))
        elif kind == 6:
            for df in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    if (df or dr) and _on_board(f + df, r + dr):
                        t = _sq(f + df, r + dr)
                        if board[t] == 0 or (board[t] > 0) != (sign > 0):
                            moves.append((sq, t, None, False, False))
        else:
            dirs = []
            if kind in (3, 5):
                dirs += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
            if kind in (4, 5):
                dirs += [(1, 0), (-1, 0), (0, 1), (0, -1)]
            for df, dr in dirs:
                nf, nr = f + df, r + dr
                while _on_board(nf, nr):
                    t = _sq(nf, nr)
                    if board[t] == 0:
                        moves.append((sq, t, None, False, False))
                    else:
                        if (board[t] > 0) != (sign > 0):
                            moves.append((sq, t, None, False, False))
                        break
                    nf += df
                    nr += dr

    # Castling (rights bits: 1 WK, 2 WQ, 4 BK, 8 BQ).
    enemy = naive_attacks(board, BLACK if sign > 0 else WHITE)
    if sign > 0:
        if (p.castling & 1 and board[5] == board[6] == 0 and board[7] == 4
                and 4 not in enemy and 5 not in enemy and 6 not in enemy):
            moves.append((4, 6, None, False, True))
        if (p.castling & 2 and board[1] == board[2] == board[3] == 0 and board[0] == 4
                and 4 not in enemy and 3 not in enemy and 2 not in enemy):
            moves.append((4, 2, None, False, True))
    else:
        if (p.castling & 4 and board[61] == board[62] == 0 and board[63] == -4
                and 60 not in enemy and 61 not in enemy and 62 not in enemy):
            moves.append((60, 62, None, False, True))
        if (p.castling & 8 and board[57] == board[58] == board[59] == 0 and board[56] == -4
                and 60 not in enemy and 59 not in enemy and 58 not in enemy):
            moves.append((60, 58, None, False, True))
    return moves


def _naive_make(p: Position, move):
    """Board-only copy-make; returns the new cell array."""
    frm, to, promo, is_ep, is_castle = move
    board = list(p.board)
    sign = 1 if p.side_to_move == WHITE else -1
    pc = board[frm]
    board[frm] = 0
    board[to] = (promo * sign) if promo else pc
    if is_ep:
        board[to - 8 * sign] = 0
    if is_castle:
        if to == 6:
            board[7], board[5] = 0, 4
        elif to == 2:
            board[0], board[3] = 0, 4
        elif to == 62:
            board[63], board[61] = 0, -4
        elif to == 58:
            board[56], board[59] = 0, -4
    return board


def naive_legal_uci(p: Position) -> set[str]:
    """Legal move set as UCI strings, via copy-make king-safety filtering."""
    files = "abcdefgh"
    out = set()
    us = p.side_to_move
    king = 6 if us == WHITE else -6
    for move in _naive_pseudo(p):
        board = _naive_make(p, move)
        ksq = board.index(king)
        if ksq not in naive_attacks(board, BLACK if us == WHITE else WHITE):
            frm, to, promo, _, _ = move
            s = (files[frm % 8] + str(frm // 8 + 1)
                 + files[to % 8] + str(to // 8 + 1))
            if promo:
                s += " nbrq"[promo - 1]
            out.add(s)
    return out


def naive_perft(p: Position, depth: int) -> int:
    """Leaf count using only this module's generator and board.apply_move
    for state bookkeeping (ep squares, castling rights)."""
    from cmpchess.board import Move, apply_move

    if depth == 0:
        return 1
    total = 0
    for uci in naive_legal_uci(p):
        child = apply_move(p, Move.from_uci(uci))
        total += naive_perft(child, depth - 1)
    return total


def finite_difference(loss_fn, params, eps=1e-6):
    """Central-difference gradients for each array in `params`.

    `loss_fn` recomputes the scalar loss from the (mutated) arrays, so the
    arrays must be float64 for the differences to be trustworthy.
    """
    import numpy as np

    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss_fn()
            flat[i] = keep - eps
            down = loss_fn()
            flat[i] = keep
            gflat[i] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


def relative_error(a, b):
    """Norm-level relative disagreement between two gradient arrays."""
    import numpy as np

    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / max(na + nb, 1e-12)


def old_stack_forward(layers, x):
    """A layer stack's output and its (input, preactivation) per layer,
    as the training pass computed them before `nn.layers.forward` became
    the one forward pass: a fresh `x @ W.T + b`, then a fresh activation.
    """
    import numpy as np

    cache = []
    a = x
    for layer in layers:
        z = a @ layer.weights.T + layer.bias
        cache.append((a, z))
        if layer.activation == "relu":
            a = np.maximum(z, 0)
        elif layer.activation == "linear":
            a = z
        else:  # softmax2, per row
            with np.errstate(invalid="ignore"):
                shifted = z - z.max(axis=-1, keepdims=True)
                e = np.exp(shifted)
                a = e / e.sum(axis=-1, keepdims=True)
    return a, cache


# --- scalar search oracles ------------------------------------------------
#
# A conventional score-based alpha-beta and a full-minimax node counter,
# coded against the same terminal conventions the comparison search uses:
# terminals are recognized before the depth horizon; a mate at `ply`
# plies from the root scores -(MATE - ply) for the mated side; a
# stalemate scores -DRAW_SCORE for the side held to it. Leaves score
# the same scalar the baseline comparator orders by, so the two
# searches rank leaves identically.

SEARCH_MATE = 1_000_000
DRAW_SCORE = SEARCH_MATE // 2
_PIECE_SCORE = (0, 1, 3, 3, 5, 9, 0)


def eval_stm(p):
    """The baseline scalar relative to the side to move."""
    score = baseline_eval(p)
    return score if p.side_to_move == Color.WHITE else -score


def _capture_order(p, moves):
    """Captures by victim value (stable), then quiets in generation order."""
    def victim(m):
        return 1 if m.en_passant else _PIECE_SCORE[abs(p.board[m.to_sq])]
    caps = [m for m in moves if m.capture]
    caps.sort(key=lambda m: -victim(m))
    return caps + [m for m in moves if not m.capture]


def scalar_alphabeta(p, depth, alpha, beta, counter, ply=0):
    """Classical fail-soft alpha-beta over material; counter[0] += nodes."""
    counter[0] += 1
    moves = board.legal_moves(p)
    if not moves:
        return -(SEARCH_MATE - ply) if p.is_check() else -DRAW_SCORE
    if depth == 0:
        return eval_stm(p)
    best = -2 * SEARCH_MATE
    for m in _capture_order(p, moves):
        v = -scalar_alphabeta(board.apply_move(p, m), depth - 1,
                              -beta, -alpha, counter, ply + 1)
        if v > best:
            best = v
        if v > alpha:
            alpha = v
        if v >= beta:
            break
    return best


def scalar_minimax(p, depth, counter, ply=0):
    """Full minimax, same conventions, no pruning."""
    counter[0] += 1
    moves = board.legal_moves(p)
    if not moves:
        return -(SEARCH_MATE - ply) if p.is_check() else -DRAW_SCORE
    if depth == 0:
        return eval_stm(p)
    return max(-scalar_minimax(board.apply_move(p, m), depth - 1,
                               counter, ply + 1)
               for m in moves)


def minimax_node_count(p, depth):
    """Node count of scalar_minimax without paying for the last ply.

    Every depth-1 child contributes exactly one node whether it is
    terminal or a horizon leaf, so the last ply needs no apply_move.
    """
    moves = board.legal_moves(p)
    if not moves or depth == 0:
        return 1
    if depth == 1:
        return 1 + len(moves)
    return 1 + sum(minimax_node_count(board.apply_move(p, m), depth - 1)
                   for m in moves)
