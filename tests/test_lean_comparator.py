"""The learned comparator's per-call path against the code it replaces.

The comparator runs on a view of its net whose first layer is a
column-major copy of the same weights; features and the head's hidden
layers go through `nn.layers.forward`, the one forward pass that search
and training share; `active_bits` reads a signed-cell table. The copies
below are `active_bits`, `features_of` and `compare` as they were
before, on the net itself and through the former training pass
(`oracles.old_stack_forward`); on the 10k playout corpus both must give
the same bits.
"""

import math

import numpy as np
import pytest

from cmpchess import inference
from cmpchess.board import piece_plane
from cmpchess.encoding import VECTOR_BITS, active_bits
from cmpchess.inference import (
    FeatureCache, IndexOutOfRange, LearnedComparator, Ordering, compare,
    features_of, sparse_affine,
)
from cmpchess.nn import init_siamese
from cmpchess.nn.layers import LINEAR, RELU, SOFTMAX2, forward, init_layer
from cmpchess.nn.model import FeatureExtractor, SiameseNetwork
from cmpchess.nn.train import (
    STUDENT_EXTRACTOR_DIMS, STUDENT_HEAD_SIZES, TEACHER_EXTRACTOR_DIMS,
    TEACHER_HEAD_SIZES,
)

from corpus import playout_positions
from oracles import old_stack_forward


# ---------------------------------------------------- the former code

def old_active_bits(p):
    bits = []
    for sq in range(64):
        cell = p.board[sq]
        if cell:
            bits.append(piece_plane(cell) * 64 + sq)
    if p.side_to_move == 0:
        bits.append(768)
    for i in range(4):
        if p.castling & (1 << i):
            bits.append(769 + i)
    bits.sort()
    return bits


def old_features_of(p, net):
    layers = net.extractor.layers
    first = layers[0]
    z = sparse_affine(first, old_active_bits(p))
    x = np.maximum(z, 0) if first.activation == RELU else z
    x, _ = old_stack_forward(layers[1:], x)
    return x


def old_logits(net, fa, fb):
    head = net.head
    x, _ = old_stack_forward(head[:-1], np.concatenate([fa, fb]))
    last = head[-1]
    return (x @ last.weights.T + last.bias).tolist()


def old_compare(net, fa, fb):
    z0, z1 = old_logits(net, fa, fb)
    confidence = 1.0 / (1.0 + math.exp(-abs(z0 - z1)))
    if z0 > z1:
        return Ordering.FIRST_BETTER, confidence
    return Ordering.SECOND_BETTER, confidence


# ------------------------------------------------------------ fixtures

@pytest.fixture(scope="module")
def corpus10k():
    return playout_positions(10_000, seed=29)


NETS = {
    "teacher": (TEACHER_EXTRACTOR_DIMS, TEACHER_HEAD_SIZES, np.float32),
    "student": (STUDENT_EXTRACTOR_DIMS, STUDENT_HEAD_SIZES, np.float32),
    "float64": (STUDENT_EXTRACTOR_DIMS, STUDENT_HEAD_SIZES, np.float64),
}


def snapshot(net):
    return [(l.weights.tobytes(), l.bias.tobytes())
            for l in net.extractor.layers + net.head]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# ------------------------------------------------------------ the tests

def test_active_bits_match_the_former_loop(corpus10k):
    for p in corpus10k:
        assert active_bits(p) == old_active_bits(p)


@pytest.mark.parametrize("kind", list(NETS))
def test_features_and_logits_bit_identical(corpus10k, kind):
    dims, head_sizes, dtype = NETS[kind]
    net = init_siamese(dims, head_sizes, seed=3, dtype=dtype)
    before = snapshot(net)
    cmp = LearnedComparator(net, FeatureCache(4096))
    view = cmp.net
    feats = []
    for p in corpus10k:
        new = features_of(p, view, cmp.cache)
        assert same_bits(new, old_features_of(p, net))
        feats.append(new)
    head = view.head
    last = head[-1]
    for fa, fb in zip(feats, feats[1:]):
        hidden = forward(head[:-1], np.concatenate([fa, fb]))
        assert (hidden @ last.weights.T + last.bias).tolist() \
            == old_logits(net, fa, fb)
        assert compare(view, fa, fb) == old_compare(net, fa, fb)
    verdicts = [cmp(a, b) for a, b in zip(corpus10k[:500], corpus10k[1:501])]
    assert verdicts == [old_compare(net, old_features_of(a, net),
                                    old_features_of(b, net))[0]
                        for a, b in zip(corpus10k[:500], corpus10k[1:501])]
    assert snapshot(net) == before


STACKS = {
    "relu": (RELU, RELU),
    "linear": (LINEAR, LINEAR),
    "softmax2": (RELU, LINEAR, SOFTMAX2),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [None, 1, 7, 64])
@pytest.mark.parametrize("stack", list(STACKS))
def test_forward_is_stack_forward_output(stack, rows, dtype):
    rng = np.random.default_rng(11)
    acts = STACKS[stack]
    dims = [13, 9, 6, 2][-len(acts) - 1:]
    layers = [init_layer(dims[i], dims[i + 1], act, rng, dtype)
              for i, act in enumerate(acts)]
    for layer in layers:
        layer.bias[:] = rng.uniform(-0.5, 0.5, layer.out_dim)
    shape = (dims[0],) if rows is None else (rows, dims[0])
    x = rng.standard_normal(shape).astype(dtype)
    x_before = x.copy()
    expected, _ = old_stack_forward(layers, x)
    assert same_bits(forward(layers, x), expected)
    assert same_bits(x, x_before)


def test_forward_of_an_empty_stack_is_its_input():
    x = np.arange(5.0)
    assert forward([], x) is x


class TestComparatorView:
    def test_first_layer_is_a_column_major_copy(self):
        net = init_siamese(TEACHER_EXTRACTOR_DIMS, TEACHER_HEAD_SIZES, seed=4)
        cmp = LearnedComparator(net)
        first, mine = cmp.net.extractor.layers[0], net.extractor.layers[0]
        assert first.weights.flags.f_contiguous
        assert np.array_equal(first.weights, mine.weights)
        assert first.weights.dtype == mine.weights.dtype
        assert not np.shares_memory(first.weights, mine.weights)
        assert first.activation == mine.activation
        assert mine.weights.flags.c_contiguous  # the net keeps its own
        assert all(a is b for a, b in zip(cmp.net.extractor.layers[1:],
                                          net.extractor.layers[1:]))
        assert len(cmp.net.head) == len(net.head)
        assert all(a is b for a, b in zip(cmp.net.head, net.head))

    def test_net_biases_and_cached_vectors_never_written(
            self, playout_positions, monkeypatch):
        # a one-layer extractor with negative biases: the relu runs on the
        # first layer's own output, which must not be the bias array
        rng = np.random.default_rng(6)
        first = init_layer(VECTOR_BITS, 6, RELU, rng)
        first.bias[:] = -rng.uniform(0.1, 1.0, 6).astype(np.float32)
        head = [init_layer(12, 4, RELU, rng), init_layer(4, 2, SOFTMAX2, rng)]
        net = SiameseNetwork(FeatureExtractor([first]), head)
        before = snapshot(net)
        cache = FeatureCache(256)
        cmp = LearnedComparator(net, cache)
        positions = playout_positions[:60]
        verdicts = [cmp(a, b) for a, b in zip(positions, positions[1:])]
        cached = {key: v.tobytes() for key, v in
                  (entry for entry in cache.slots if entry is not None)}
        assert cached
        assert [cmp(a, b) for a, b in zip(positions, positions[1:])] \
            == verdicts
        assert cache.hits > 0
        assert {key: v.tobytes() for key, v in
                (entry for entry in cache.slots if entry is not None)} \
            == cached
        # an empty active list: the first layer's output is its bias alone
        monkeypatch.setattr(inference, "active_bits", lambda p: [])
        empty = features_of(positions[0], cmp.net)
        assert np.array_equal(empty, np.maximum(first.bias, 0))
        assert not np.shares_memory(empty, first.bias)
        assert snapshot(net) == before

    def test_sparse_affine_refuses_out_of_range_bits(self):
        net = init_siamese(STUDENT_EXTRACTOR_DIMS, STUDENT_HEAD_SIZES, seed=5)
        first = LearnedComparator(net).net.extractor.layers[0]
        for bits in ([-1, 5], [0, VECTOR_BITS], [VECTOR_BITS + 7]):
            with pytest.raises(IndexOutOfRange):
                sparse_affine(first, bits)
        out = sparse_affine(first, [])
        assert np.array_equal(out, first.bias)
        assert not np.shares_memory(out, first.bias)

    def test_spans_see_every_layer(self, playout_positions, monkeypatch):
        net = init_siamese(STUDENT_EXTRACTOR_DIMS, STUDENT_HEAD_SIZES, seed=7)
        cmp = LearnedComparator(net, FeatureCache(64))
        calls = {}

        def counted(name):
            inner = getattr(inference, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args)
            monkeypatch.setattr(inference, name, wrapper)

        for name in ("compare_white_perspective", "features_of",
                     "active_bits", "sparse_affine", "compare"):
            counted(name)
        a, b = playout_positions[10], playout_positions[20]
        cmp(a, b)
        cmp(a, b)
        assert calls == {"compare_white_perspective": 2, "features_of": 4,
                         "active_bits": 2, "sparse_affine": 2, "compare": 2}

