"""Dense layers and the one forward pass and backward pass they share.

Weights are (out_dim, in_dim); a batch forward is X @ W.T + b. `forward`
is the only code that runs a layer: search, scoring and every training
loss call it, and training asks it to keep what `stack_backward` needs.
The softmax2 activation is reserved for the 2-way output layer of a head
and is always paired with cross-entropy at the loss site, so no
standalone softmax derivative exists here.
"""

from __future__ import annotations

import math

import numpy as np

RELU, LINEAR, SOFTMAX2 = "relu", "linear", "softmax2"
ACTIVATIONS = (RELU, LINEAR, SOFTMAX2)


class NonFiniteLoss(ArithmeticError):
    pass


class DenseLayer:
    __slots__ = ("weights", "bias", "activation")

    def __init__(self, weights: np.ndarray, bias: np.ndarray, activation: str):
        weights = np.asarray(weights)
        bias = np.asarray(bias)
        if weights.ndim != 2 or bias.shape != (weights.shape[0],):
            raise ValueError(f"inconsistent shapes {weights.shape} / {bias.shape}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if activation == SOFTMAX2 and weights.shape[0] != 2:
            raise ValueError("softmax2 requires out_dim = 2")
        self.weights = weights
        self.bias = bias
        self.activation = activation

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def __repr__(self) -> str:
        return f"DenseLayer({self.in_dim}->{self.out_dim}, {self.activation})"


def init_layer(in_dim: int, out_dim: int, activation: str,
               rng: np.random.Generator, dtype=np.float32) -> DenseLayer:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) weights, zero bias."""
    limit = math.sqrt(6.0 / (in_dim + out_dim))
    w = rng.uniform(-limit, limit, size=(out_dim, in_dim)).astype(dtype)
    b = np.zeros(out_dim, dtype=dtype)
    return DenseLayer(w, b, activation)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    # Non-finite preactivations produce NaN here; the loss site turns that
    # into NonFiniteLoss, so the intermediate numpy warning is just noise.
    with np.errstate(invalid="ignore"):
        shifted = z - z.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)


def log_softmax_rows(z: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        shifted = z - z.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# relu's floor as a 0-d array: np.maximum takes it without the per-call
# scalar conversion of the Python 0, and the result has the same bits
_RELU_FLOOR = np.zeros((), np.float32)


def relu_in_place(z: np.ndarray) -> np.ndarray:
    """np.maximum(z, 0) written into z; returns z."""
    return np.maximum(z, _RELU_FLOOR, out=z)


def forward(layers, x: np.ndarray, kept: list | None = None) -> np.ndarray:
    """Output of a layer stack.

    Each layer is a matmul, then the bias added and the activation
    applied in place on the fresh product. Given a list, `kept`, each
    layer appends (input, z) to it for `stack_backward`: z is the
    layer's own array, so after a relu it holds relu(z), which is > 0
    exactly where the preactivation was, and for softmax2 it holds the
    logits, since the softmax is not done in place. An empty stack
    returns `x` itself; `x` is never written.
    """
    a = x
    for layer in layers:
        z = a @ layer.weights.T
        z += layer.bias
        if kept is not None:
            kept.append((a, z))
        if layer.activation == RELU:
            relu_in_place(z)
        elif layer.activation == SOFTMAX2:
            z = softmax_rows(z)
        a = z
    return a


def stack_backward(layers, kept, delta: np.ndarray,
                   need_input_grad: bool = False):
    """Backpropagate through a stack, given what `forward` kept.

    `delta` is the gradient at the stack output. A softmax2 output is
    always paired with cross-entropy, so there `delta` is already the
    gradient with respect to the preactivation; through relu and linear
    layers it is the gradient with respect to the layer's output, and a
    relu passes it where its kept output is > 0. Returns
    ([(dW, db) per layer], input gradient or None).
    """
    grads: list = [None] * len(layers)
    da = delta
    for i in range(len(layers) - 1, -1, -1):
        a_in, z = kept[i]
        layer = layers[i]
        dz = da * (z > 0) if layer.activation == RELU else da
        grads[i] = (dz.T @ a_in, dz.sum(axis=0))
        if i > 0 or need_input_grad:
            da = dz @ layer.weights
    return grads, (da if need_input_grad else None)


def check_finite(loss: float) -> float:
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"loss is {loss}")
    return loss
