"""Feature extractor, tied-weight Siamese comparator, and autoencoder.

The Siamese network holds exactly one FeatureExtractor instance; both
inputs of a pair run through that same object, so the weights are shared
by construction and gradients from the two branches accumulate into one
parameter set. Every pass here, scoring and both losses, runs the one
`layers.forward`; the losses keep what it computed for the backward pass.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .layers import (
    DenseLayer, LINEAR, RELU, SOFTMAX2, check_finite, forward, init_layer,
    log_softmax_rows, stack_backward,
)


class FeatureExtractor:
    """773 -> ... -> F relu stack producing position feature vectors."""

    def __init__(self, layers: Sequence[DenseLayer]):
        layers = list(layers)
        if not layers:
            raise ValueError("extractor needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ValueError(f"dimension chain broken: {prev} -> {nxt}")
        for i, layer in enumerate(layers):
            if layer.activation == SOFTMAX2:
                raise ValueError(f"extractor layer {i} is softmax2")
        self.layers = layers

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def dims(self) -> tuple:
        return (self.in_dim,) + tuple(l.out_dim for l in self.layers)

    @property
    def dtype(self):
        return self.layers[0].weights.dtype

    def copy(self) -> "FeatureExtractor":
        return FeatureExtractor([
            DenseLayer(l.weights.copy(), l.bias.copy(), l.activation)
            for l in self.layers])


class SiameseNetwork:
    def __init__(self, extractor: FeatureExtractor, head: Sequence[DenseLayer]):
        head = list(head)
        if not head:
            raise ValueError("head needs at least one layer")
        if head[0].in_dim != 2 * extractor.out_dim:
            raise ValueError(
                f"head input {head[0].in_dim} != 2 x extractor output "
                f"{extractor.out_dim}")
        for prev, nxt in zip(head, head[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ValueError(f"dimension chain broken: {prev} -> {nxt}")
        if head[-1].activation != SOFTMAX2:
            raise ValueError("final head layer must be softmax2")
        for i, layer in enumerate(head[:-1]):
            if layer.activation == SOFTMAX2:
                raise ValueError(f"head layer {i} is softmax2 before the output")
        self.extractor = extractor
        self.head = head

    @property
    def dtype(self):
        return self.extractor.dtype

    def copy(self) -> "SiameseNetwork":
        return SiameseNetwork(
            self.extractor.copy(),
            [DenseLayer(l.weights.copy(), l.bias.copy(), l.activation)
             for l in self.head])


class Gradients(NamedTuple):
    extractor: list  # [(dW, db)] aligned with net.extractor.layers
    head: list       # [(dW, db)] aligned with net.head


def init_extractor(dims: Sequence[int], rng: np.random.Generator,
                   dtype=np.float32) -> FeatureExtractor:
    return FeatureExtractor([
        init_layer(dims[i], dims[i + 1], RELU, rng, dtype)
        for i in range(len(dims) - 1)])


def init_head(in_dim: int, sizes: Sequence[int], rng: np.random.Generator,
              dtype=np.float32) -> list:
    if sizes[-1] != 2:
        raise ValueError("head must end in 2 outputs")
    dims = [in_dim] + list(sizes)
    return [init_layer(dims[i], dims[i + 1],
                       SOFTMAX2 if i == len(sizes) - 1 else RELU, rng, dtype)
            for i in range(len(sizes))]


def init_siamese(extractor_dims: Sequence[int], head_sizes: Sequence[int],
                 seed: int, dtype=np.float32) -> SiameseNetwork:
    rng = np.random.default_rng(seed)
    extractor = init_extractor(extractor_dims, rng, dtype)
    head = init_head(2 * extractor.out_dim, head_sizes, rng, dtype)
    return SiameseNetwork(extractor, head)


def forward_pairs(net: SiameseNetwork, a, b) -> np.ndarray:
    """Batched probability rows; column 0 = P(first position is the W side)."""
    dtype = net.dtype
    fa = forward(net.extractor.layers, np.asarray(a, dtype))
    fb = forward(net.extractor.layers, np.asarray(b, dtype))
    return forward(net.head, np.concatenate([fa, fb], axis=1))


def loss_and_gradients(net: SiameseNetwork, batch) -> tuple:
    """Mean cross-entropy over a (first, second, target) array batch and
    gradients for every parameter.

    The extractor gradient is the sum of both branches' contributions
    (tied weights). Raises NonFiniteLoss on overflow.
    """
    a, b, t = (np.asarray(x, net.dtype) for x in batch)
    if len(a) == 0:
        raise ValueError("empty batch")
    n = len(a)
    feat_dim = net.extractor.out_dim

    kept_a, kept_b, kept_h = [], [], []
    fa = forward(net.extractor.layers, a, kept_a)
    fb = forward(net.extractor.layers, b, kept_b)
    probs = forward(net.head, np.concatenate([fa, fb], axis=1), kept_h)

    logits = kept_h[-1][1]
    loss = check_finite(float(-(t * log_softmax_rows(logits)).sum() / n))

    dz = (probs - t) / n
    head_grads, djoined = stack_backward(net.head, kept_h, dz,
                                         need_input_grad=True)
    ga, _ = stack_backward(net.extractor.layers, kept_a, djoined[:, :feat_dim])
    gb, _ = stack_backward(net.extractor.layers, kept_b, djoined[:, feat_dim:])
    ext_grads = [(dwa + dwb, dba + dbb)
                 for (dwa, dba), (dwb, dbb) in zip(ga, gb)]
    return loss, Gradients(ext_grads, head_grads)


def mse_and_gradients(layers, x: np.ndarray, target: np.ndarray) -> tuple:
    """Mean squared error of the stack's output against `target`, over all
    elements, and gradients for every layer."""
    kept: list = []
    diff = forward(layers, x, kept) - target
    loss = check_finite(float(np.mean(diff ** 2)))
    grads, _ = stack_backward(layers, kept, (2.0 / diff.size) * diff)
    return loss, grads


class AutoEncoder:
    """One relu encoder layer plus a linear reconstruction layer."""

    def __init__(self, encoder: DenseLayer, decoder: DenseLayer):
        if encoder.activation != RELU or decoder.activation != LINEAR:
            raise ValueError("expected relu encoder and linear decoder")
        if decoder.in_dim != encoder.out_dim or decoder.out_dim != encoder.in_dim:
            raise ValueError("decoder must mirror encoder dimensions")
        self.encoder = encoder
        self.decoder = decoder

    @classmethod
    def fresh(cls, in_dim: int, hidden: int, rng: np.random.Generator,
              dtype=np.float32) -> "AutoEncoder":
        return cls(init_layer(in_dim, hidden, RELU, rng, dtype),
                   init_layer(hidden, in_dim, LINEAR, rng, dtype))

    def loss_and_gradients(self, x: np.ndarray) -> tuple:
        """Reconstruction error of `x`: mse_and_gradients onto itself."""
        return mse_and_gradients([self.encoder, self.decoder], x, x)

