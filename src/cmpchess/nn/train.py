"""Training: autoencoder pretraining, pairwise comparison training with
fresh per-epoch pair sampling, and two-stage distillation.

There is one SGD loop per loss. `_regress` (mean squared error) trains
each pretraining stage and distillation stage 1; `_pair_epoch`
(cross-entropy over pairs) runs each epoch of pairwise training and of
distillation stage 2. Both are plain SGD (no momentum, no
regularization) with the learning rate schedule
lr(e) = initial_lr * decay^e, fully determined by the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .. import dataset
from .layers import forward as stack_output
from .model import (
    AutoEncoder, FeatureExtractor, Gradients, SiameseNetwork,
    forward_pairs, init_extractor, init_head, loss_and_gradients,
    mse_and_gradients,
)

TEACHER_EXTRACTOR_DIMS = (773, 600, 400, 200, 100)
TEACHER_HEAD_SIZES = (400, 200, 100, 2)
STUDENT_EXTRACTOR_DIMS = (773, 100, 100, 100)
STUDENT_HEAD_SIZES = (100, 100, 2)


@dataclass
class TrainConfig:
    initial_lr: float = 0.01
    lr_decay_per_epoch: float = 0.99
    epochs: int = 1000
    pairs_per_epoch: int = 1_000_000
    minibatch: int = 128
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.lr_decay_per_epoch <= 1):
            raise ValueError("lr decay must be in (0, 1]")
        if self.minibatch < 1:
            raise ValueError("minibatch must be >= 1")
        if self.epochs < 0 or self.pairs_per_epoch < 1:
            raise ValueError("bad epoch/pair counts")


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    return cfg.initial_lr * cfg.lr_decay_per_epoch ** epoch


class EpochStats(NamedTuple):
    epoch: int
    lr: float
    mean_loss: float
    train_accuracy: float
    val_accuracy: float


def sgd_step(layers, grads, lr: float) -> None:
    for layer, (dw, db) in zip(layers, grads):
        layer.weights -= lr * dw
        layer.bias -= lr * db


def apply_gradients(net: SiameseNetwork, grads: Gradients, lr: float,
                    freeze_extractor: bool = False) -> None:
    if not freeze_extractor:
        sgd_step(net.extractor.layers, grads.extractor, lr)
    sgd_step(net.head, grads.head, lr)


def _as_matrix(data) -> np.ndarray:
    """LabeledPosition list or raw array -> uint8 (n, 773) matrix."""
    if isinstance(data, np.ndarray):
        return data.astype(np.uint8, copy=False)
    return dataset.class_matrix(data)


def pair_batches(w_mat: np.ndarray, l_mat: np.ndarray, n_pairs: int,
                 batch_size: int, rng: np.random.Generator, dtype):
    """Yield (first, second, target) minibatches of freshly sampled pairs.

    Each pair holds one W and one L row, W first with probability 1/2;
    target (1, 0) marks the W row first.
    """
    for name, mat in (("W", w_mat), ("L", l_mat)):
        if len(mat) == 0:
            raise dataset.InsufficientData(
                f"no {name} positions to draw pairs from")
    remaining = n_pairs
    while remaining > 0:
        bs = min(batch_size, remaining)
        iw = rng.integers(0, len(w_mat), bs)
        il = rng.integers(0, len(l_mat), bs)
        flip = rng.random(bs) < 0.5
        w = w_mat[iw].astype(dtype)
        l = l_mat[il].astype(dtype)
        first = np.where(flip[:, None], w, l)
        second = np.where(flip[:, None], l, w)
        target = np.zeros((bs, 2), dtype=dtype)
        target[flip, 0] = 1
        target[~flip, 1] = 1
        yield first, second, target
        remaining -= bs


def build_pair_set(w_mat: np.ndarray, l_mat: np.ndarray, n: int, seed: int,
                   dtype=np.float32):
    """One fixed (first, second, target) array triple, e.g. for validation."""
    rng = np.random.default_rng(seed)
    (triple,) = list(pair_batches(w_mat, l_mat, n, n, rng, dtype))
    return triple


# pairs per forward pass when scoring a fixed pair set
_EVAL_BATCH = 8192


def _verdicts(net: SiameseNetwork, a, b) -> np.ndarray:
    """Argmax column of each pair's output row."""
    return np.concatenate([
        forward_pairs(net, a[lo:lo + _EVAL_BATCH],
                      b[lo:lo + _EVAL_BATCH]).argmax(axis=1)
        for lo in range(0, len(a), _EVAL_BATCH)])


def pair_accuracy(net: SiameseNetwork, triple) -> float:
    a, b, t = triple
    hits = _verdicts(net, a, b) == t.argmax(axis=1)
    return int(hits.sum()) / len(a)


def pair_agreement(net_a: SiameseNetwork, net_b: SiameseNetwork,
                   triple) -> float:
    a, b, _ = triple
    hits = _verdicts(net_a, a, b) == _verdicts(net_b, a, b)
    return int(hits.sum()) / len(a)


def pretrain_pos2vec(data, cfg: TrainConfig,
                     dims: Sequence[int] = TEACHER_EXTRACTOR_DIMS,
                     dtype=np.float32):
    """Layer-wise autoencoder pretraining of the extractor stack.

    Stages run in order (dims[0]<->dims[1], dims[1]<->dims[2], ...);
    earlier encoders are frozen while later stages train. Returns the
    encoder stack and the per-stage, per-epoch reconstruction losses.
    """
    x_all = _as_matrix(data).astype(dtype)
    frozen: list = []
    logs: list = []
    for stage in range(len(dims) - 1):
        rng = np.random.default_rng([cfg.seed, stage])
        inputs = stack_output(frozen, x_all)
        auto = AutoEncoder.fresh(dims[stage], dims[stage + 1], rng, dtype)
        logs.append(_regress([auto.encoder, auto.decoder], inputs, inputs,
                             cfg, rng))
        frozen.append(auto.encoder)
    return FeatureExtractor(frozen), logs


def train_deepchess(ds, init: FeatureExtractor, cfg: TrainConfig,
                    head_sizes: Sequence[int] = TEACHER_HEAD_SIZES,
                    val_pairs: int = 10_000):
    """Supervised pairwise training on top of a pretrained extractor.

    Fresh pairs are sampled every epoch; the extractor is updated along
    with the head (tied weights, both branches). Returns the network and
    the per-epoch stats log.
    """
    dtype = init.dtype
    rng_init = np.random.default_rng([cfg.seed, 7])
    extractor = init.copy()
    head = init_head(2 * extractor.out_dim, head_sizes, rng_init, dtype)
    net = SiameseNetwork(extractor, head)

    train_w = dataset.class_matrix(ds.train_W)
    train_l = dataset.class_matrix(ds.train_L)
    val = None
    if ds.val_W and ds.val_L and val_pairs > 0:
        val = build_pair_set(dataset.class_matrix(ds.val_W),
                             dataset.class_matrix(ds.val_L),
                             val_pairs, seed=cfg.seed + 1, dtype=dtype)
    # the same fixed train-accuracy probe every epoch
    probe = (build_pair_set(train_w, train_l, min(cfg.pairs_per_epoch, 8192),
                            seed=cfg.seed + 2, dtype=dtype)
             if cfg.epochs else None)

    log: list = []
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        rng = np.random.default_rng([cfg.seed, 1000 + epoch])
        batches = pair_batches(train_w, train_l, cfg.pairs_per_epoch,
                               cfg.minibatch, rng, dtype)
        mean_loss = _pair_epoch(net, batches, lr)
        train_acc = pair_accuracy(net, probe)
        val_acc = pair_accuracy(net, val) if val is not None else float("nan")
        log.append(EpochStats(epoch, lr, mean_loss, train_acc, val_acc))
    return net, log


def _regress(layers, inputs: np.ndarray, targets: np.ndarray,
             cfg: TrainConfig, rng) -> list:
    """Minibatch SGD on the mean squared error of the stack's output
    against `targets`, reshuffled each epoch; returns per-epoch mean losses."""
    losses = []
    n = len(inputs)
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        order = rng.permutation(n)
        total = 0.0
        batches = 0
        for lo in range(0, n, cfg.minibatch):
            idx = order[lo:lo + cfg.minibatch]
            loss, grads = mse_and_gradients(layers, inputs[idx], targets[idx])
            sgd_step(layers, grads, lr)
            total += loss
            batches += 1
        losses.append(total / max(batches, 1))
    return losses


def _pair_epoch(net: SiameseNetwork, batches, lr: float,
                freeze_extractor: bool = False) -> float:
    """One SGD pass of cross-entropy over (first, second, target) batches;
    returns the mean batch loss."""
    total = 0.0
    count = 0
    for triple in batches:
        loss, grads = loss_and_gradients(net, triple)
        apply_gradients(net, grads, lr, freeze_extractor)
        total += loss
        count += 1
    return total / max(count, 1)


def distill(teacher: SiameseNetwork, positions, ds,
            cfg_stage1: TrainConfig, cfg_stage2: Optional[TrainConfig] = None,
            extractor_dims: Sequence[int] = STUDENT_EXTRACTOR_DIMS,
            head_sizes: Sequence[int] = STUDENT_HEAD_SIZES,
            freeze_extractor_stage2: bool = False):
    """Two-stage compression of `teacher` into a smaller network.

    Stage 1 regresses the student extractor onto the teacher's feature
    vectors over `positions`. Stage 2 trains the full student against the
    teacher's softmax outputs (temperature 1) on pairs sampled from `ds`;
    the student extractor keeps fine-tuning unless frozen. Zero-epoch
    configs leave the corresponding stage untrained.
    """
    if cfg_stage2 is None:
        cfg_stage2 = cfg_stage1
    if extractor_dims[-1] != teacher.extractor.out_dim:
        raise ValueError("student feature width must match the teacher's")
    dtype = teacher.dtype

    x_all = _as_matrix(positions).astype(dtype)
    rng1 = np.random.default_rng([cfg_stage1.seed, 31])
    student_ext = init_extractor(extractor_dims, rng1, dtype)
    stage1_log = []
    if cfg_stage1.epochs > 0:
        teacher_feats = stack_output(teacher.extractor.layers, x_all)
        stage1_log = _regress(student_ext.layers, x_all, teacher_feats,
                              cfg_stage1, rng1)

    rng2 = np.random.default_rng([cfg_stage2.seed, 32])
    head = init_head(2 * student_ext.out_dim, head_sizes, rng2, dtype)
    student = SiameseNetwork(student_ext, head)

    train_w = dataset.class_matrix(ds.train_W)
    train_l = dataset.class_matrix(ds.train_L)
    stage2_log = []
    for epoch in range(cfg_stage2.epochs):
        lr = lr_at(cfg_stage2, epoch)
        rng = np.random.default_rng([cfg_stage2.seed, 2000 + epoch])
        soft_batches = (
            (a, b, forward_pairs(teacher, a, b)) for a, b, _ in pair_batches(
                train_w, train_l, cfg_stage2.pairs_per_epoch,
                cfg_stage2.minibatch, rng, dtype))
        stage2_log.append(_pair_epoch(student, soft_batches, lr,
                                      freeze_extractor_stage2))
    return student, {"stage1": stage1_log, "stage2": stage2_log}
