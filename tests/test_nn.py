import math

import numpy as np
import pytest

import struct

from cmpchess.fileformat import (
    BadMagic, DimensionMismatch, NonFiniteValues, TruncatedFile,
    VersionMismatch,
)
from cmpchess.nn import (
    AutoEncoder, DenseLayer, FeatureExtractor, NonFiniteLoss, SiameseNetwork,
    forward_pairs, init_siamese, load_extractor, load_model,
    loss_and_gradients, save_extractor, save_model,
)
from cmpchess.nn.io import _write_layers
from cmpchess.nn.layers import forward, init_layer, softmax_rows
from cmpchess.nn.model import init_extractor, init_head
from oracles import finite_difference, old_stack_forward, relative_error


def old_write_layers(path, layers):
    """The model writer as it was before it shared the dataset header code."""
    with open(path, "wb") as f:
        f.write(b"DCHS")
        f.write(struct.pack("<HHH", 1, 0, len(layers)))
        for layer in layers:
            f.write(struct.pack("<IIB", layer.in_dim, layer.out_dim,
                                {"relu": 0, "linear": 1,
                                 "softmax2": 2}[layer.activation]))
            f.write(np.ascontiguousarray(layer.weights, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(layer.bias, dtype="<f4").tobytes())


def tiny_net(seed=0, dtype=np.float64):
    return init_siamese((9, 6, 4), (5, 2), seed=seed, dtype=dtype)


def tiny_batch(net, n=5, seed=1):
    rng = np.random.default_rng(seed)
    a = rng.random((n, net.extractor.in_dim))
    b = rng.random((n, net.extractor.in_dim))
    t = np.zeros((n, 2))
    t[np.arange(n), rng.integers(0, 2, n)] = 1
    return a, b, t


def all_params(net):
    out = []
    for layer in list(net.extractor.layers) + list(net.head):
        out.append(layer.weights)
        out.append(layer.bias)
    return out


class TestForward:
    def test_zero_weights_give_half_half(self):
        net = tiny_net()
        for layer in list(net.extractor.layers) + list(net.head):
            layer.weights[:] = 0
            layer.bias[:] = 0
        p = forward_pairs(net, np.ones((1, 9)), np.zeros((1, 9)))[0]
        assert p[0] == 0.5 and p[1] == 0.5

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        z = rng.normal(0, 50, size=(200, 2))
        s = softmax_rows(z)
        assert np.all(np.abs(s.sum(axis=1) - 1) < 1e-6)
        assert np.all(s > 0) or np.all(s >= 0)

    def test_batch_matches_single(self):
        net = tiny_net()
        a, b, _ = tiny_batch(net)
        batched = forward_pairs(net, a, b)
        for i in range(len(a)):
            single = forward_pairs(net, a[i:i + 1], b[i:i + 1])[0]
            assert np.allclose(batched[i], single, atol=1e-12)

    def test_weight_sharing_is_by_aliasing(self):
        net = tiny_net()
        a, b, _ = tiny_batch(net)
        before = forward_pairs(net, a, b)
        net.extractor.layers[0].weights += 0.05  # one storage serves both slots
        after = forward_pairs(net, a, b)
        assert not np.allclose(before, after)
        fa = forward(net.extractor.layers, a)
        fb = forward(net.extractor.layers, b)
        assert fa.shape == fb.shape  # same object, both branches


class TestLoss:
    def test_uniform_output_gives_ln2(self):
        net = tiny_net()
        for layer in list(net.extractor.layers) + list(net.head):
            layer.weights[:] = 0
            layer.bias[:] = 0
        loss, _ = loss_and_gradients(net, tiny_batch(net))
        assert abs(loss - math.log(2)) < 1e-12

    def test_perfect_prediction_near_zero_loss(self):
        net = tiny_net()
        final = net.head[-1]
        final.weights[:] = 0
        final.bias[:] = (60.0, -60.0)
        a, b, _ = tiny_batch(net)
        t = np.tile([1.0, 0.0], (len(a), 1))
        loss, _ = loss_and_gradients(net, (a, b, t))
        assert loss <= 1e-6

    def test_matches_independent_cross_entropy(self):
        net = tiny_net(seed=5)
        a, b, t = tiny_batch(net, n=16, seed=6)
        loss, _ = loss_and_gradients(net, (a, b, t))
        p = forward_pairs(net, a, b)
        by_hand = float(-(t * np.log(p)).sum() / len(a))
        assert abs(loss - by_hand) < 1e-9  # pure cross-entropy, no extras

    def test_nonfinite_raises(self):
        net = tiny_net()
        net.head[-1].bias[:] = (np.inf, 0.0)
        with pytest.raises(NonFiniteLoss):
            loss_and_gradients(net, tiny_batch(net))


class TestGradients:
    def check_siamese(self, net, batch):
        # Zero-init biases can park a preactivation exactly on the relu
        # kink, where central differences measure the wrong thing; jitter
        # the biases so every unit is strictly off the kink.
        rng = np.random.default_rng(99)
        for layer in list(net.extractor.layers) + list(net.head):
            layer.bias += rng.normal(0, 0.05, layer.bias.shape)
        _, grads = loss_and_gradients(net, batch)
        analytic = [g for pair in (grads.extractor + grads.head) for g in pair]
        numeric = finite_difference(
            lambda: loss_and_gradients(net, batch)[0], all_params(net))
        worst = max(relative_error(a, n) for a, n in zip(analytic, numeric))
        assert worst < 1e-4, worst

    def test_siamese_gradcheck(self):
        net = tiny_net(seed=11)
        self.check_siamese(net, tiny_batch(net, n=5, seed=12))

    def test_deeper_head_gradcheck(self):
        net = init_siamese((8, 5, 3), (7, 4, 2), seed=13, dtype=np.float64)
        self.check_siamese(net, tiny_batch(net, n=4, seed=14))

    def test_autoencoder_gradcheck(self):
        rng = np.random.default_rng(21)
        auto = AutoEncoder.fresh(7, 4, rng, dtype=np.float64)
        x = rng.random((6, 7))
        _, grads = auto.loss_and_gradients(x)
        analytic = [g for pair in grads for g in pair]
        params = [auto.encoder.weights, auto.encoder.bias,
                  auto.decoder.weights, auto.decoder.bias]
        numeric = finite_difference(lambda: auto.loss_and_gradients(x)[0], params)
        worst = max(relative_error(a, n) for a, n in zip(analytic, numeric))
        assert worst < 1e-4, worst

    def test_autoencoder_loss_is_plain_mse(self):
        rng = np.random.default_rng(22)
        auto = AutoEncoder.fresh(6, 3, rng, dtype=np.float64)
        x = rng.random((5, 6))
        out, _ = old_stack_forward([auto.encoder, auto.decoder], x)
        loss = auto.loss_and_gradients(x)[0]
        assert abs(loss - float(np.mean((out - x) ** 2))) < 1e-12


class TestConstruction:
    def test_init_bounds_and_determinism(self):
        rng = np.random.default_rng(9)
        layer = init_layer(20, 30, "relu", rng)
        limit = math.sqrt(6 / 50)
        assert np.abs(layer.weights).max() <= limit
        assert not layer.bias.any()
        again = init_layer(20, 30, "relu", np.random.default_rng(9))
        assert (layer.weights == again.weights).all()

    def test_softmax_requires_two_outputs(self):
        with pytest.raises(ValueError):
            DenseLayer(np.zeros((3, 4)), np.zeros(3), "softmax2")

    def test_head_input_must_be_twice_feature_dim(self):
        rng = np.random.default_rng(0)
        ext = init_extractor((9, 4), rng)
        bad_head = init_head(9, (2,), rng)
        with pytest.raises(ValueError):
            SiameseNetwork(ext, bad_head)

    def test_softmax2_only_as_head_output(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="extractor layer 1"):
            FeatureExtractor([init_layer(9, 2, "relu", rng),
                              init_layer(2, 2, "softmax2", rng)])
        ext = init_extractor((9, 4), rng)
        with pytest.raises(ValueError, match="head layer 0"):
            SiameseNetwork(ext, [init_layer(8, 2, "softmax2", rng),
                                 init_layer(2, 2, "softmax2", rng)])

    def test_broken_chain_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            FeatureExtractor([init_layer(9, 4, "relu", rng),
                              init_layer(5, 3, "relu", rng)])


class TestModelFile:
    def test_round_trip_bit_identical(self, tmp_path):
        net = init_siamese((773, 20, 10), (8, 2), seed=42)
        path = tmp_path / "net.dchs"
        save_model(net, path)
        back = load_model(path)
        for mine, theirs in zip(list(net.extractor.layers) + list(net.head),
                                list(back.extractor.layers) + list(back.head)):
            assert mine.weights.tobytes() == theirs.weights.tobytes()
            assert mine.bias.tobytes() == theirs.bias.tobytes()
            assert mine.activation == theirs.activation
        assert back.extractor.dims == (773, 20, 10)

    def test_extractor_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ext = init_extractor((773, 16, 8), rng)
        path = tmp_path / "ext.dchs"
        save_extractor(ext, path)
        back = load_extractor(path)
        assert back.dims == ext.dims
        assert all((a.weights == b.weights).all()
                   for a, b in zip(ext.layers, back.layers))

    def test_bytes_as_the_former_writer(self, tmp_path):
        net = init_siamese((773, 20, 10), (8, 4, 2), seed=42)
        layers = list(net.extractor.layers) + list(net.head)
        save_model(net, tmp_path / "new.dchs")
        old_write_layers(tmp_path / "old.dchs", layers)
        assert ((tmp_path / "new.dchs").read_bytes()
                == (tmp_path / "old.dchs").read_bytes())

    def test_truncated_header_is_a_dimension_mismatch(self, tmp_path):
        net = init_siamese((9, 4), (3, 2), seed=0)
        path = tmp_path / "net.dchs"
        save_model(net, path)
        raw = path.read_bytes()
        for cut in range(4, 10):  # inside the version, flags or count
            path.write_bytes(raw[:cut])
            with pytest.raises(TruncatedFile):
                load_model(path)
        assert issubclass(TruncatedFile, DimensionMismatch)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.dchs"
        path.write_bytes(b"JUNKxxxxxx")
        with pytest.raises(BadMagic):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.dchs"
        path.write_bytes(b"DCHS\x09\x00\x00\x00\x00\x00")
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_flags_marker_rejected(self, tmp_path):
        net = init_siamese((9, 4), (3, 2), seed=0)
        path = tmp_path / "net.dchs"
        save_model(net, path)
        raw = bytearray(path.read_bytes())
        raw[6] |= 0x01  # flip the byte-order marker bit
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_truncated_file_clean_error(self, tmp_path):
        net = init_siamese((9, 4), (3, 2), seed=0)
        path = tmp_path / "net.dchs"
        save_model(net, path)
        raw = path.read_bytes()
        for cut in (5, 9, 12, len(raw) - 7):
            path.write_bytes(raw[:cut])
            with pytest.raises((BadMagic, DimensionMismatch)):
                load_model(path)

    @pytest.mark.parametrize("acts, where", [
        (("relu", "softmax2", "relu", "softmax2"), "extractor layer 1"),
        (("relu", "relu", "softmax2", "softmax2"), "head layer 0"),
    ], ids=["extractor", "head"])
    def test_inner_softmax2_file_rejected(self, tmp_path, acts, where):
        # 9->4->2 extractor, 4->2->2 head: the dims are consistent, only
        # the activation of an inner layer is wrong
        rng = np.random.default_rng(3)
        dims = ((9, 4), (4, 2), (4, 2), (2, 2))
        layers = [DenseLayer(rng.normal(size=(o, i)).astype(np.float32),
                             np.zeros(o, np.float32), act)
                  for (i, o), act in zip(dims, acts)]
        path = tmp_path / "net.dchs"
        _write_layers(path, layers)
        with pytest.raises(DimensionMismatch, match=where):
            load_model(path)
        if where.startswith("extractor"):
            _write_layers(path, layers[:2])
            with pytest.raises(DimensionMismatch, match=where):
                load_extractor(path)

    def test_headless_file_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        ext = init_extractor((9, 4, 3), rng)
        path = tmp_path / "ext.dchs"
        save_extractor(ext, path)
        with pytest.raises(DimensionMismatch):
            load_model(path)  # unbroken chain: no head boundary

    @pytest.mark.parametrize("layer, part, value", [
        (0, "weights", np.nan), (1, "bias", np.inf), (2, "weights", -np.inf)])
    def test_non_finite_value_rejected_by_layer(self, tmp_path, layer, part,
                                                value):
        net = init_siamese((9, 4, 3), (6, 2), seed=0)
        getattr((list(net.extractor.layers) + list(net.head))[layer],
                part).flat[1] = value
        path = tmp_path / "net.dchs"
        save_model(net, path)
        with pytest.raises(NonFiniteValues, match=f"layer {layer}"):
            load_model(path)
        save_extractor(net.extractor, path)
        if layer < len(net.extractor.layers):
            with pytest.raises(NonFiniteValues, match=f"layer {layer}"):
                load_extractor(path)
