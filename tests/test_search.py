"""Comparison-based alpha-beta: bound ordering, oracle equivalence,
and the iterative-deepening driver."""

import pytest

from cmpchess.board import Color, Move, apply_move, has_legal_move, \
    legal_moves, parse_fen, startpos
from cmpchess.inference import (
    FeatureCache, LearnedComparator, MaterialComparator, Ordering,
    RandomComparator, baseline_eval, material_balance,
)
from cmpchess.nn.model import init_siamese
from cmpchess.search import (
    Bound, MAX_SENTINEL, MIN_SENTINEL, NoLegalMoves, POSITION, SearchLimits,
    SearchResult, SearchStats, TERMINAL_DRAW, TERMINAL_DRAW_GIVEN,
    TERMINAL_LOSS, TERMINAL_WIN, _ab, alphabeta_cmp, bound_compare, negate,
    order_moves, search_root,
)

from oracles import (
    DRAW_SCORE, SEARCH_MATE, minimax_node_count,
    scalar_alphabeta, scalar_minimax,
)

MAT = MaterialComparator()

UP_QUEEN = parse_fen(
    "rnb1kbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1")
UP_ROOK = parse_fen(
    "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBN1 b Qkq - 0 1")


def embed(bound: Bound, root_side: Color) -> int:
    """Map a search bound onto the scalar oracle's value scale."""
    if bound.kind == TERMINAL_LOSS:
        return -(SEARCH_MATE - bound.ply)
    if bound.kind == TERMINAL_WIN:
        return SEARCH_MATE - bound.ply
    if bound.kind == TERMINAL_DRAW:
        return -DRAW_SCORE
    if bound.kind == TERMINAL_DRAW_GIVEN:
        return DRAW_SCORE
    if bound.kind == POSITION:
        score = baseline_eval(bound.position)
        return score if root_side == Color.WHITE else -score
    raise AssertionError(f"sentinel leaked into a result: {bound!r}")


class TestBoundCompare:
    def test_sentinels_are_extremal(self):
        lo, hi = Bound.min_sentinel(), Bound.max_sentinel()
        others = [Bound.loss(3), Bound.draw(), Bound.pos(startpos()),
                  Bound.draw_given(), Bound.win(2)]
        for side in (Color.WHITE, Color.BLACK):
            for b in others:
                assert bound_compare(b, lo, MAT, side) is Ordering.FIRST_BETTER
                assert bound_compare(lo, b, MAT, side) is Ordering.SECOND_BETTER
                assert bound_compare(hi, b, MAT, side) is Ordering.FIRST_BETTER
                assert bound_compare(b, hi, MAT, side) is Ordering.SECOND_BETTER

    def test_kind_ladder(self):
        ladder = [Bound.min_sentinel(), Bound.loss(1), Bound.draw(),
                  Bound.pos(startpos()), Bound.draw_given(), Bound.win(1),
                  Bound.max_sentinel()]
        for i, low in enumerate(ladder):
            for high in ladder[i + 1:]:
                assert bound_compare(high, low, MAT,
                                     Color.WHITE) is Ordering.FIRST_BETTER

    def test_mate_distance_preferences(self):
        side = Color.WHITE
        # losing later is better for the mated side
        assert bound_compare(Bound.loss(7), Bound.loss(3), MAT,
                             side) is Ordering.FIRST_BETTER
        assert bound_compare(Bound.loss(3), Bound.loss(7), MAT,
                             side) is Ordering.SECOND_BETTER
        # mating sooner is better for the mating side
        assert bound_compare(Bound.win(1), Bound.win(3), MAT,
                             side) is Ordering.FIRST_BETTER
        assert bound_compare(Bound.win(3), Bound.win(1), MAT,
                             side) is Ordering.SECOND_BETTER

    def test_exact_ties_fall_second(self):
        for x, y in [(Bound.loss(4), Bound.loss(4)),
                     (Bound.win(2), Bound.win(2)),
                     (Bound.draw(), Bound.draw()),
                     (Bound.min_sentinel(), Bound.min_sentinel())]:
            assert bound_compare(x, y, MAT, Color.WHITE) is Ordering.SECOND_BETTER

    def test_position_ordering_uses_comparator(self):
        a, b = Bound.pos(UP_QUEEN), Bound.pos(startpos())
        assert bound_compare(a, b, MAT, Color.WHITE) is Ordering.FIRST_BETTER
        assert bound_compare(b, a, MAT, Color.WHITE) is Ordering.SECOND_BETTER

    def test_black_perspective_inverts_positions(self, playout_positions):
        ps = playout_positions[::97]
        for a, b in zip(ps, ps[1:]):
            white = bound_compare(Bound.pos(a), Bound.pos(b), MAT, Color.WHITE)
            black = bound_compare(Bound.pos(a), Bound.pos(b), MAT, Color.BLACK)
            assert white is not black  # literal inversion, pair for pair

    def test_perspective_does_not_touch_other_kinds(self):
        assert bound_compare(Bound.loss(7), Bound.loss(3), MAT,
                             Color.BLACK) is Ordering.FIRST_BETTER
        assert bound_compare(Bound.win(1), Bound.win(3), MAT,
                             Color.BLACK) is Ordering.FIRST_BETTER


class TestNegate:
    def test_mapping(self):
        assert negate(Bound.loss(5)) == Bound.win(5)
        assert negate(Bound.win(5)) == Bound.loss(5)
        assert negate(Bound.draw()) == Bound.draw_given()
        assert negate(Bound.draw_given()) == Bound.draw()
        assert negate(Bound.min_sentinel()) == Bound.max_sentinel()
        p = Bound.pos(startpos())
        assert negate(p) == p

    def test_involution(self):
        for b in [Bound.loss(2), Bound.win(9), Bound.draw(),
                  Bound.draw_given(), Bound.pos(UP_QUEEN),
                  Bound.min_sentinel(), Bound.max_sentinel()]:
            assert negate(negate(b)) == b


class TestAlphabeta:
    def full_window(self):
        return Bound.min_sentinel(), Bound.max_sentinel()

    def test_depth_zero_returns_own_position(self):
        p = startpos()
        a, b = self.full_window()
        bound, move = alphabeta_cmp(p, 0, a, b, MAT)
        assert bound == Bound.pos(p)
        assert move is None

    def test_checkmate_node(self):
        mated = parse_fen("R5k1/5ppp/8/8/8/8/8/K7 b - - 0 1")
        assert mated.is_checkmate()
        a, b = self.full_window()
        bound, move = alphabeta_cmp(mated, 3, a, b, MAT)
        assert bound == Bound.loss(0)
        assert move is None

    def test_stalemate_node(self):
        stale = parse_fen("k7/8/1Q6/8/8/8/8/K7 b - - 0 1")
        assert stale.is_stalemate()
        a, b = self.full_window()
        bound, move = alphabeta_cmp(stale, 2, a, b, MAT)
        assert bound == Bound.draw()
        assert move is None

    def test_mate_in_one_found_at_depth_two(self):
        p = parse_fen("6k1/5ppp/8/8/8/8/8/K3R3 w - - 0 1")
        a, b = self.full_window()
        bound, move = alphabeta_cmp(p, 2, a, b, MAT)
        assert move == Move.from_uci("e1e8")
        assert bound == Bound.win(1)  # the opponent is mated one ply in

    def test_depth_one_takes_hanging_queen(self):
        p = parse_fen("k7/8/8/3q4/4P3/8/8/K7 w - - 0 1")
        a, b = self.full_window()
        bound, move = alphabeta_cmp(p, 1, a, b, MAT)
        assert move == Move.from_uci("e4d5")
        assert bound.kind == POSITION
        assert material_balance(bound.position) == material_balance(p) + 9

    def test_oracle_value_agreement_depth3(self, playout_positions):
        ps = [q for q in playout_positions[::101] if legal_moves(q)][:10]
        assert len(ps) == 10
        a, b = self.full_window()
        for p in ps:
            bound, move = alphabeta_cmp(p, 3, a, b, MAT)
            counter = [0]
            want = scalar_alphabeta(p, 3, -2 * SEARCH_MATE, 2 * SEARCH_MATE,
                                    counter)
            assert embed(bound, p.side_to_move) == want
            assert move is not None

    def test_minimax_value_and_node_bound(self, playout_positions):
        # full minimax is slow; a handful of positions is plenty here
        ps = [q for q in playout_positions[37::251] if legal_moves(q)][:3]
        from cmpchess.search import SearchStats, _ab
        for p in ps:
            stats = SearchStats()
            bound, _, _ = _ab(p, 3, Bound.min_sentinel(), Bound.max_sentinel(),
                              MAT, stats, 0, None)
            counter = [0]
            mm = scalar_minimax(p, 3, counter)
            assert embed(bound, p.side_to_move) == mm
            assert counter[0] == minimax_node_count(p, 3)  # bulk formula
            assert stats.nodes <= counter[0]
            if stats.cutoffs:
                assert stats.nodes < counter[0]


class TestOrderMoves:
    def test_captures_first_by_victim(self):
        p = parse_fen("k2r4/8/8/1p1q4/2P5/8/8/K2R4 w - - 0 1")
        moves = legal_moves(p)
        ordered = order_moves(p, moves)
        caps = [m for m in ordered if m.capture]
        assert caps == ordered[:len(caps)]
        victims = [abs(p.board[m.to_sq]) for m in caps]
        values = [(0, 1, 3, 3, 5, 9, 0)[v] for v in victims]
        assert values == sorted(values, reverse=True)

    def test_previous_best_leads(self):
        p = startpos()
        moves = legal_moves(p)
        pick = moves[7]
        ordered = order_moves(p, moves, first=pick)
        assert ordered[0] == pick
        assert sorted(m.key() for m in ordered) == sorted(
            m.key() for m in moves)

    def test_quiets_keep_generation_order(self):
        p = startpos()
        moves = legal_moves(p)
        assert order_moves(p, moves) == moves  # no captures at the start


class TestSearchRoot:
    def test_no_legal_moves_raises(self):
        mated = parse_fen("R5k1/5ppp/8/8/8/8/8/K7 b - - 0 1")
        with pytest.raises(NoLegalMoves):
            search_root(mated, SearchLimits(max_depth=3), MAT)

    def test_depth_one_is_comparator_argmax(self):
        p = parse_fen("k7/8/8/3q4/4P3/8/8/K7 w - - 0 1")
        res = search_root(p, SearchLimits(max_depth=1), MAT)
        assert res.best_move == Move.from_uci("e4d5")
        assert res.depth_reached == 1
        assert res.line[0] == res.best_move

    def test_deterministic(self, playout_positions):
        p = playout_positions[11]
        a = search_root(p, SearchLimits(max_depth=3), MaterialComparator())
        b = search_root(p, SearchLimits(max_depth=3), MaterialComparator())
        assert a == b

    def test_line_replays_legally(self, playout_positions):
        for p in playout_positions[5::401]:
            if not legal_moves(p):
                continue
            res = search_root(p, SearchLimits(max_depth=3), MAT)
            assert 1 <= len(res.line) <= 3
            assert res.line[0] == res.best_move
            q = p
            for m in res.line:
                q = apply_move(q, m)  # raises IllegalMove on a bad line

    def test_hard_time_returns_legal_move(self):
        res = search_root(startpos(), SearchLimits(max_depth=30,
                                                   soft_time=0.005,
                                                   hard_time=0.01), MAT)
        assert res.depth_reached >= 1
        assert res.best_move in legal_moves(startpos())

    def test_node_cap_stops_deepening(self):
        unlimited = search_root(startpos(), SearchLimits(max_depth=4), MAT)
        capped = search_root(startpos(),
                             SearchLimits(max_depth=4, node_cap=50), MAT)
        assert capped.depth_reached >= 1
        assert capped.depth_reached < unlimited.depth_reached
        assert capped.nodes <= unlimited.nodes

    def test_mate_preferred_over_material(self):
        # white can take the queen or mate; mate must win the argmax
        p = parse_fen("6k1/5ppp/8/3q4/8/8/8/K3R3 w - - 0 1")
        res = search_root(p, SearchLimits(max_depth=2), MAT)
        assert res.best_move == Move.from_uci("e1e8")

    def test_limits_validation(self):
        with pytest.raises(ValueError):
            SearchLimits(max_depth=0)
        with pytest.raises(ValueError):
            SearchLimits(soft_time=2.0, hard_time=1.0)

    def test_cache_hits_reported_with_learned_comparator(self):
        net = init_siamese((773, 16, 8), (8, 2), seed=3)
        cache = FeatureCache(4096)
        cmp = LearnedComparator(net, cache)
        res = search_root(startpos(), SearchLimits(max_depth=2), cmp)
        assert res.best_move in legal_moves(startpos())
        assert res.cache_hits > 0
        assert res.cache_hits <= cache.hits


def two_question_ab(p, depth, alpha, beta, cmp, stats, ply, prev_best):
    """The `_ab` loop that asked (v, best) and then (v, alpha) for every
    child, kept as the reference for the one-question loop."""
    stats.tick()
    if depth == 0 and has_legal_move(p):
        return Bound.pos(p), None, []
    moves = legal_moves(p)
    if not moves:
        return (Bound.loss(ply) if p.is_check() else Bound.draw()), None, []
    side = p.side_to_move
    best = Bound.min_sentinel()
    best_move = None
    best_line: list = []
    for m in order_moves(p, moves, prev_best):
        child = apply_move(p, m)
        v, _, child_line = two_question_ab(child, depth - 1, negate(beta),
                                           negate(alpha), cmp, stats,
                                           ply + 1, None)
        v = negate(v)
        if bound_compare(v, best, cmp, side) is Ordering.FIRST_BETTER:
            best, best_move, best_line = v, m, [m] + child_line
        if bound_compare(v, alpha, cmp, side) is Ordering.FIRST_BETTER:
            alpha = v
        if bound_compare(beta, v, cmp, side) is not Ordering.FIRST_BETTER:
            stats.cutoffs += 1
            break
    return best, best_move, best_line


class TestOneQuestionWhenAlphaIsBest:
    """`_ab` skips the (v, alpha) question while alpha is best; every
    result must equal the two-question loop's, with fewer calls."""

    COMPARATORS = {
        "material": MaterialComparator,
        # intransitive: alpha can rise without best, so alpha is not best
        "random": lambda: RandomComparator(seed=7),
        "learned": lambda: LearnedComparator(
            init_siamese((773, 32, 16), (12, 2), seed=5), FeatureCache(4096)),
    }

    # A full-window depth-3 search only lets alpha part from best at
    # ply 2, whose children are leaves that ignore it; a root alpha at the
    # root position makes alpha matter at every ply.
    WINDOWS = {
        "full": lambda p: (Bound.min_sentinel(), Bound.max_sentinel()),
        "alpha-at-root": lambda p: (Bound.pos(p), Bound.max_sentinel()),
    }

    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("kind", sorted(COMPARATORS))
    def test_same_search_fewer_calls(self, kind, window, playout_positions):
        ps = [q for q in playout_positions[::25] if legal_moves(q)]
        assert len(ps) >= 50
        fewer = 0
        for p in ps:
            runs = []
            for core in (two_question_ab, _ab):
                cmp = self.COMPARATORS[kind]()
                stats = SearchStats()
                alpha, beta = self.WINDOWS[window](p)
                bound, move, line = core(p, 3, alpha, beta, cmp, stats, 0,
                                         None)
                runs.append(((bound, move, line, stats.nodes, stats.cutoffs),
                             cmp.calls))
            (want, old_calls), (got, new_calls) = runs
            assert got == want, p
            assert new_calls <= old_calls, p
            fewer += new_calls < old_calls
        assert fewer > 0
