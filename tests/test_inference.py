"""Sparse first layer, feature cache, and position comparison."""

import numpy as np
import pytest

from cmpchess.board import Move, apply_move, parse_fen, startpos
from cmpchess.encoding import VECTOR_BITS, active_bits, encode
from cmpchess.inference import (
    CELL_VALUES, FeatureCache, IndexOutOfRange, LearnedComparator,
    MaterialComparator, Ordering, RandomComparator, audit_consistency,
    compare, compare_white_perspective, features_of, material_balance,
    sparse_affine,
)
from cmpchess.nn.layers import init_layer
from cmpchess.nn.model import forward_pairs, init_siamese
from cmpchess.nn.train import (
    STUDENT_EXTRACTOR_DIMS, STUDENT_HEAD_SIZES, TEACHER_EXTRACTOR_DIMS,
    TEACHER_HEAD_SIZES,
)

from corpus import playout_positions as corpus_positions


def small_net(seed=0, dtype=np.float32):
    return init_siamese((VECTOR_BITS, 32, 16), (12, 2), seed=seed, dtype=dtype)


def dense_first(layer, bits):
    x = np.zeros(layer.in_dim, dtype=layer.weights.dtype)
    x[list(bits)] = 1
    return layer.weights @ x + layer.bias


class TestSparseAffine:
    def test_empty_is_bias_exactly(self):
        layer = init_layer(VECTOR_BITS, 16, "relu", np.random.default_rng(1))
        out = sparse_affine(layer, [])
        assert np.array_equal(out, layer.bias)
        assert out is not layer.bias  # caller may scribble on it

    def test_startpos_matches_dense(self):
        layer = init_layer(VECTOR_BITS, 32, "relu", np.random.default_rng(2))
        bits = active_bits(startpos())
        assert len(bits) == 37
        out = sparse_affine(layer, bits)
        assert np.max(np.abs(out - dense_first(layer, bits))) < 1e-5

    def test_random_subsets_match_dense(self):
        layer = init_layer(VECTOR_BITS, 64, "relu", np.random.default_rng(3))
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(200):
            bits = np.sort(rng.choice(VECTOR_BITS, size=30, replace=False))
            dev = np.max(np.abs(sparse_affine(layer, bits)
                                - dense_first(layer, bits)))
            worst = max(worst, float(dev))
        assert worst < 1e-5

    def test_out_of_range_raises(self):
        layer = init_layer(VECTOR_BITS, 8, "relu", np.random.default_rng(5))
        with pytest.raises(IndexOutOfRange):
            sparse_affine(layer, [0, VECTOR_BITS])
        with pytest.raises(IndexOutOfRange):
            sparse_affine(layer, [-1, 5])


class TestFeatureCache:
    def test_repeat_query_hits(self):
        net = small_net()
        cache = FeatureCache(64)
        p = startpos()
        cold = features_of(p, net, cache)
        warm = features_of(p, net, cache)
        assert cache.hits == 1 and cache.misses == 1
        assert np.array_equal(cold, warm)

    def test_transpositions_share_one_entry(self):
        net = small_net()
        cache = FeatureCache(64)
        a = startpos()
        for uci in ("e2e4", "e7e5", "g1f3"):
            a = apply_move(a, Move.from_uci(uci))
        b = startpos()
        for uci in ("g1f3", "e7e5", "e2e4"):
            b = apply_move(b, Move.from_uci(uci))
        assert a.zobrist == b.zobrist
        features_of(a, net, cache)
        features_of(b, net, cache)
        assert cache.hits == 1 and len(cache) == 1

    def test_capacity_one_evicts_but_stays_correct(self):
        net = small_net()
        cache = FeatureCache(1)
        p1 = startpos()
        p2 = apply_move(p1, Move.from_uci("e2e4"))
        plain1 = features_of(p1, net)
        plain2 = features_of(p2, net)
        for _ in range(3):
            assert np.array_equal(features_of(p1, net, cache), plain1)
            assert np.array_equal(features_of(p2, net, cache), plain2)
        assert cache.hits == 0
        assert cache.misses == 6
        assert cache.evictions == 5  # every insert after the first replaces
        assert len(cache) <= cache.capacity

    def test_cache_transparency_bit_exact(self):
        net = small_net(seed=7)
        cache = FeatureCache(8)
        ps = []
        p = startpos()
        for uci in ("d2d4", "d7d5", "c2c4", "e7e6", "b1c3"):
            ps.append(p)
            p = apply_move(p, Move.from_uci(uci))
        ps.append(p)
        # interleave repeats so hits, misses and evictions all occur
        order = ps + ps[::-1] + ps
        with_cache = [features_of(q, net, cache).tobytes() for q in order]
        without = [features_of(q, net).tobytes() for q in order]
        assert with_cache == without
        assert cache.hits > 0

    def test_cached_vector_is_frozen(self):
        net = small_net()
        cache = FeatureCache(4)
        out = features_of(startpos(), net, cache)
        with pytest.raises(ValueError):
            out[0] = 42.0

    def test_from_megabytes(self):
        cache = FeatureCache.from_megabytes(1)
        assert cache.capacity == (1 << 20) // FeatureCache.BYTES_PER_SLOT
        assert FeatureCache.from_megabytes(0).capacity == 1
        with pytest.raises(ValueError):
            FeatureCache(0)

    def test_len_counts_occupied_slots(self):
        cache = FeatureCache(7)
        rng = np.random.default_rng(3)
        keys = [int(k) for k in rng.integers(0, 1 << 62, size=40)]
        # repeats overwrite in place; key + 7 collides with key
        keys += keys[:5] + [k + 7 for k in keys[5:12]]
        for key in keys:
            cache.put(key, np.zeros(3, dtype=np.float32))
            occupied = sum(slot is not None for slot in cache.slots)
            assert len(cache) == occupied
            assert cache.stats()["size"] == occupied
        assert len(cache) == cache.capacity

    def test_stats_dict(self):
        cache = FeatureCache(2)
        assert cache.get(5) is None
        cache.put(5, np.zeros(3, dtype=np.float32))
        assert cache.get(5) is not None
        s = cache.stats()
        assert s == {"hits": 1, "misses": 1, "evictions": 0, "size": 1,
                     "capacity": 2}


class TestCompare:
    def test_matches_batched_forward(self):
        net = small_net(seed=11)
        p1 = startpos()
        p2 = apply_move(p1, Move.from_uci("e2e4"))
        fa = features_of(p1, net)
        fb = features_of(p2, net)
        ordering, conf = compare(net, fa, fb)
        probs = forward_pairs(net, encode(p1)[None].astype(np.float32),
                              encode(p2)[None].astype(np.float32))[0]
        expected = (Ordering.FIRST_BETTER if probs[0] > probs[1]
                    else Ordering.SECOND_BETTER)
        assert ordering is expected
        assert conf == pytest.approx(float(probs.max()), abs=1e-5)

    def test_exact_tie_is_second_better(self):
        net = small_net(seed=12)
        for layer in net.head:
            layer.weights[:] = 0
            layer.bias[:] = 0
        fa = features_of(startpos(), net)
        ordering, conf = compare(net, fa, fa)
        assert ordering is Ordering.SECOND_BETTER
        assert conf == 0.5

    def test_zeroed_head_is_second_better_through_comparator(self):
        net = small_net(seed=12)
        for layer in net.head:
            layer.weights[:] = 0
            layer.bias[:] = 0
        cmp = LearnedComparator(net, FeatureCache(16))
        p = startpos()
        q = apply_move(p, Move.from_uci("e2e4"))
        assert cmp(p, q) is Ordering.SECOND_BETTER
        assert cmp(q, p) is Ordering.SECOND_BETTER

    @pytest.mark.parametrize("dims, head_sizes", [
        (TEACHER_EXTRACTOR_DIMS, TEACHER_HEAD_SIZES),
        (STUDENT_EXTRACTOR_DIMS, STUDENT_HEAD_SIZES),
    ], ids=["teacher", "student"])
    def test_logit_verdict_matches_batched_softmax(self, dims, head_sizes):
        """The logit-decided verdict and its confidence against the dense
        batched softmax forward pass, on distinct corpus pairs."""
        net = init_siamese(dims, head_sizes, seed=21)
        ps = corpus_positions(2400, seed=31)
        pairs = list({(a.zobrist, b.zobrist): (a, b)
                      for a, b in zip(ps, ps[1:])
                      if a.zobrist != b.zobrist}.values())
        assert len(pairs) >= 2000
        probs = forward_pairs(
            net, np.stack([encode(a) for a, _ in pairs]).astype(np.float32),
            np.stack([encode(b) for _, b in pairs]).astype(np.float32))
        cache = FeatureCache(8192)
        for (a, b), row in zip(pairs, probs):
            expected = (Ordering.FIRST_BETTER if row[0] > row[1]
                        else Ordering.SECOND_BETTER)
            assert compare_white_perspective(net, a, b, cache) is expected
            _, conf = compare(net, features_of(a, net, cache),
                              features_of(b, net, cache))
            assert conf == pytest.approx(float(row.max()), abs=1e-5)

    def test_identical_arguments_stable(self):
        net = small_net(seed=13)
        p = startpos()
        results = {compare_white_perspective(net, p, p) for _ in range(5)}
        assert len(results) == 1

    def test_slot_independence(self):
        """A position's features do not depend on which slot asks."""
        net = small_net(seed=14)
        p = startpos()
        q = apply_move(p, Move.from_uci("b1c3"))
        f_as_first = features_of(p, net)
        compare_white_perspective(net, p, q)
        compare_white_perspective(net, q, p)
        f_again = features_of(p, net)
        assert f_as_first.tobytes() == f_again.tobytes()


class TestComparators:
    def test_material_balance_values(self):
        assert material_balance(startpos()) == 0
        assert CELL_VALUES == (0, 1, 3, 3, 5, 9, 0)
        no_black_queen = parse_fen(
            "rnb1kbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1")
        assert material_balance(no_black_queen) == 9
        no_white_rook = parse_fen(
            "rnbqkbnr/pppppppp/8/8/8/8/PPPPPPPP/1NBQKBNR w Kkq - 0 1")
        assert material_balance(no_white_rook) == -5

    def test_material_comparator_orders(self):
        cmp = MaterialComparator()
        up_queen = parse_fen(
            "rnb1kbnr/pppppppp/8/8/8/8/PPPPPPPP/RNBQKBNR w KQkq - 0 1")
        assert cmp(up_queen, startpos()) is Ordering.FIRST_BETTER
        assert cmp(startpos(), up_queen) is Ordering.SECOND_BETTER
        assert cmp(startpos(), startpos()) is Ordering.SECOND_BETTER
        assert cmp.calls == 3

    def test_random_comparator_deterministic(self):
        p = startpos()
        q = apply_move(p, Move.from_uci("e2e4"))
        a = RandomComparator(seed=3)
        b = RandomComparator(seed=3)
        assert all(a(p, q) is b(p, q) for _ in range(10))
        verdicts = {RandomComparator(seed=s)(p, q) for s in range(32)}
        assert verdicts == {Ordering.FIRST_BETTER, Ordering.SECOND_BETTER}

    def test_learned_comparator_counts_calls(self):
        net = small_net(seed=15)
        cache = FeatureCache(16)
        cmp = LearnedComparator(net, cache)
        p = startpos()
        q = apply_move(p, Move.from_uci("e2e4"))
        first = cmp(p, q)
        assert cmp(p, q) is first
        assert cmp.calls == 2
        assert cache.hits == 2  # second call reuses both feature vectors


class TestAudit:
    def collect(self, playout_positions):
        return playout_positions[:60]

    def test_transitive_comparator_has_no_cycles(self, playout_positions):
        ps = self.collect(playout_positions)
        report = audit_consistency(MaterialComparator(), ps, triples=300,
                                   seed=1)
        assert report.cycles == 0
        assert report.cycle_rate == 0.0
        assert report.triples == 300

    def test_random_comparator_shows_cycles(self, playout_positions):
        ps = self.collect(playout_positions)
        report = audit_consistency(RandomComparator(seed=5), ps, triples=300,
                                   seed=2)
        assert report.cycles > 0
        assert report.cycle_rate == report.cycles / 300

    def test_needs_three_positions(self):
        with pytest.raises(ValueError):
            audit_consistency(MaterialComparator(), [startpos()], triples=10)
