"""Model file format ("DCHS", version 1, little-endian).

Header: magic, u16 version, u16 flags (must be zero; bit 0 is the
byte-order marker, so a file written on a big-endian system is rejected
as a version mismatch), u16 layer count. Per layer: u32 in_dim, u32
out_dim, u8 activation (0 relu, 1 linear, 2 softmax2), then float32
weights row-major (out x in) and float32 biases. A NaN or infinite
weight or bias is refused at load time, naming its layer.

A Siamese network is stored as extractor layers followed by head layers;
the head boundary is recovered from the dimension chain (the head's
first in_dim is twice the previous out_dim, breaking the chain).
"""

from __future__ import annotations

import struct

import numpy as np

from ..fileformat import (
    DimensionMismatch, NonFiniteValues, VersionMismatch, read_exact,
    read_header, write_header,
)
from .layers import DenseLayer, LINEAR, RELU, SOFTMAX2
from .model import FeatureExtractor, SiameseNetwork

MODEL_MAGIC = b"DCHS"
MODEL_VERSION = 1
_ACT_CODES = {RELU: 0, LINEAR: 1, SOFTMAX2: 2}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}
_MAX_DIM = 1 << 20


def _write_layers(path, layers) -> None:
    with open(path, "wb") as f:
        write_header(f, MODEL_MAGIC, MODEL_VERSION)
        f.write(struct.pack("<HH", 0, len(layers)))
        for layer in layers:
            f.write(struct.pack("<IIB", layer.in_dim, layer.out_dim,
                                _ACT_CODES[layer.activation]))
            f.write(np.ascontiguousarray(layer.weights, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(layer.bias, dtype="<f4").tobytes())


def _read_layers(path) -> list:
    with open(path, "rb") as f:
        read_header(f, MODEL_MAGIC, MODEL_VERSION)
        flags, count = struct.unpack("<HH", read_exact(f, 4, "header"))
        if flags != 0:
            raise VersionMismatch(f"unsupported flags {flags:#x} (byte-order marker?)")
        layers = []
        for i in range(count):
            in_dim, out_dim, act = struct.unpack(
                "<IIB", read_exact(f, 9, f"layer {i} header"))
            if act not in _ACT_NAMES:
                raise DimensionMismatch(f"layer {i}: unknown activation code {act}")
            if not (0 < in_dim <= _MAX_DIM and 0 < out_dim <= _MAX_DIM):
                raise DimensionMismatch(f"layer {i}: implausible dims {in_dim}x{out_dim}")
            w = np.frombuffer(read_exact(f, 4 * in_dim * out_dim, f"layer {i} weights"),
                              dtype="<f4").reshape(out_dim, in_dim).copy()
            b = np.frombuffer(read_exact(f, 4 * out_dim, f"layer {i} bias"),
                              dtype="<f4").copy()
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NonFiniteValues(f"layer {i}: NaN or infinite weight or bias")
            try:
                layers.append(DenseLayer(w, b, _ACT_NAMES[act]))
            except ValueError as err:
                raise DimensionMismatch(f"layer {i}: {err}") from None
        if f.read(1):
            raise DimensionMismatch("trailing bytes after last layer")
    if not layers:
        raise DimensionMismatch("file contains no layers")
    return layers


def save_model(net: SiameseNetwork, path) -> None:
    _write_layers(path, list(net.extractor.layers) + list(net.head))


def load_model(path) -> SiameseNetwork:
    layers = _read_layers(path)
    breaks = [i for i in range(1, len(layers))
              if layers[i].in_dim != layers[i - 1].out_dim]
    if len(breaks) != 1:
        raise DimensionMismatch(
            f"expected one extractor/head boundary, found {len(breaks)}")
    cut = breaks[0]
    try:
        return SiameseNetwork(FeatureExtractor(layers[:cut]), layers[cut:])
    except ValueError as err:
        raise DimensionMismatch(str(err)) from None


def save_extractor(extractor: FeatureExtractor, path) -> None:
    _write_layers(path, extractor.layers)


def load_extractor(path) -> FeatureExtractor:
    layers = _read_layers(path)
    try:
        return FeatureExtractor(layers)
    except ValueError as err:
        raise DimensionMismatch(str(err)) from None
