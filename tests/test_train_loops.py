"""The shared training loops against the per-caller loops they replace.

Pretraining and distillation stage 1 now run one mean-squared-error loop,
pairwise training and distillation stage 2 one cross-entropy epoch, and
the backward pass reads a softmax2 output as already holding dz instead
of taking a flag. The copies below are the loops and the backward rule
as they were before; on small float32 and float64 configs both must give
the same weight bytes and the same logs.
"""

import numpy as np
import pytest

from cmpchess import dataset
from cmpchess.nn import train
from cmpchess.nn.layers import (
    RELU, LINEAR, check_finite, log_softmax_rows, stack_forward,
)
from cmpchess.nn.model import (
    AutoEncoder, FeatureExtractor, Gradients, SiameseNetwork, forward_pairs,
    init_extractor, init_head,
)
from cmpchess.nn.train import (
    EpochStats, TrainConfig, apply_gradients, build_pair_set, lr_at,
    pair_batches, sgd_step,
)

from test_training import synthetic_split


# ---------------------------------------------------- the former code

def old_stack_backward(layers, cache, delta, delta_is_dz,
                       need_input_grad=False):
    grads = [None] * len(layers)
    da = delta
    for i in range(len(layers) - 1, -1, -1):
        a_in, z = cache[i]
        layer = layers[i]
        if i == len(layers) - 1 and delta_is_dz:
            dz = da
        elif layer.activation == RELU:
            dz = da * (z > 0)
        elif layer.activation == LINEAR:
            dz = da
        else:
            raise ValueError("softmax2 gradient must enter as dz")
        grads[i] = (dz.T @ a_in, dz.sum(axis=0))
        if i > 0 or need_input_grad:
            da = dz @ layer.weights
    return grads, (da if need_input_grad else None)


def old_loss_and_gradients(net, batch):
    a, b, t = (np.asarray(x, net.dtype) for x in batch)
    n = len(a)
    feat_dim = net.extractor.out_dim
    fa, cache_a = stack_forward(net.extractor.layers, a)
    fb, cache_b = stack_forward(net.extractor.layers, b)
    joined = np.concatenate([fa, fb], axis=1)
    probs, cache_h = stack_forward(net.head, joined)
    log_probs = log_softmax_rows(cache_h[-1][1])
    loss = check_finite(float(-(t * log_probs).sum() / n))
    dz = (probs - t) / n
    head_grads, djoined = old_stack_backward(net.head, cache_h, dz,
                                             delta_is_dz=True,
                                             need_input_grad=True)
    ga, _ = old_stack_backward(net.extractor.layers, cache_a,
                               djoined[:, :feat_dim], delta_is_dz=False)
    gb, _ = old_stack_backward(net.extractor.layers, cache_b,
                               djoined[:, feat_dim:], delta_is_dz=False)
    ext_grads = [(dwa + dwb, dba + dbb)
                 for (dwa, dba), (dwb, dbb) in zip(ga, gb)]
    return loss, Gradients(ext_grads, head_grads)


def old_autoencoder_loss_and_gradients(auto, x):
    layers = [auto.encoder, auto.decoder]
    out, cache = stack_forward(layers, x)
    diff = out - x
    loss = check_finite(float(np.mean(diff ** 2)))
    dz = (2.0 / diff.size) * diff
    grads, _ = old_stack_backward(layers, cache, dz, delta_is_dz=True)
    return loss, grads


def old_pair_accuracy(net, triple, batch=8192):
    a, b, t = triple
    hits = 0
    for lo in range(0, len(a), batch):
        p = forward_pairs(net, a[lo:lo + batch], b[lo:lo + batch])
        hits += int((p.argmax(axis=1) == t[lo:lo + batch].argmax(axis=1)).sum())
    return hits / len(a)


def old_pair_agreement(net_a, net_b, triple, batch=8192):
    a, b, _ = triple
    hits = 0
    for lo in range(0, len(a), batch):
        pa = forward_pairs(net_a, a[lo:lo + batch], b[lo:lo + batch])
        pb = forward_pairs(net_b, a[lo:lo + batch], b[lo:lo + batch])
        hits += int((pa.argmax(axis=1) == pb.argmax(axis=1)).sum())
    return hits / len(a)


def old_pretrain_pos2vec(data, cfg, dims, dtype):
    x_all = train._as_matrix(data)
    frozen = []
    logs = []
    for stage in range(len(dims) - 1):
        rng = np.random.default_rng([cfg.seed, stage])
        if frozen:
            inputs, _ = stack_forward(frozen, x_all.astype(dtype))
        else:
            inputs = x_all.astype(dtype)
        auto = AutoEncoder.fresh(dims[stage], dims[stage + 1], rng, dtype)
        stage_log = []
        n = len(inputs)
        for epoch in range(cfg.epochs):
            lr = lr_at(cfg, epoch)
            order = rng.permutation(n)
            total = 0.0
            batches = 0
            for lo in range(0, n, cfg.minibatch):
                batch = inputs[order[lo:lo + cfg.minibatch]]
                loss, grads = old_autoencoder_loss_and_gradients(auto, batch)
                sgd_step([auto.encoder, auto.decoder], grads, lr)
                total += loss
                batches += 1
            stage_log.append(total / max(batches, 1))
        frozen.append(auto.encoder)
        logs.append(stage_log)
    return FeatureExtractor(frozen), logs


def old_train_deepchess(ds, init, cfg, head_sizes, val_pairs):
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
    log = []
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        rng = np.random.default_rng([cfg.seed, 1000 + epoch])
        total = 0.0
        batches = 0
        for triple in pair_batches(train_w, train_l, cfg.pairs_per_epoch,
                                   cfg.minibatch, rng, dtype):
            loss, grads = old_loss_and_gradients(net, triple)
            apply_gradients(net, grads, lr)
            total += loss
            batches += 1
        probe = build_pair_set(train_w, train_l, min(cfg.pairs_per_epoch, 8192),
                               seed=cfg.seed + 2, dtype=dtype)
        train_acc = old_pair_accuracy(net, probe)
        val_acc = (old_pair_accuracy(net, val) if val is not None
                   else float("nan"))
        log.append(EpochStats(epoch, lr, total / max(batches, 1),
                              train_acc, val_acc))
    return net, log


def old_regress_features(student, inputs, targets, cfg, rng):
    losses = []
    n = len(inputs)
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        order = rng.permutation(n)
        total = 0.0
        batches = 0
        for lo in range(0, n, cfg.minibatch):
            idx = order[lo:lo + cfg.minibatch]
            x = inputs[idx]
            out, cache = stack_forward(student.layers, x)
            diff = out - targets[idx]
            loss = check_finite(float(np.mean(diff ** 2)))
            delta = (2.0 / diff.size) * diff
            grads, _ = old_stack_backward(student.layers, cache, delta,
                                          delta_is_dz=False)
            sgd_step(student.layers, grads, lr)
            total += loss
            batches += 1
        losses.append(total / max(batches, 1))
    return losses


def old_distill(teacher, positions, ds, cfg_stage1, cfg_stage2,
                extractor_dims, head_sizes, freeze_extractor_stage2):
    dtype = teacher.dtype
    x_all = train._as_matrix(positions).astype(dtype)
    rng1 = np.random.default_rng([cfg_stage1.seed, 31])
    student_ext = init_extractor(extractor_dims, rng1, dtype)
    stage1_log = []
    if cfg_stage1.epochs > 0:
        teacher_feats, _ = stack_forward(teacher.extractor.layers, x_all)
        stage1_log = old_regress_features(student_ext, x_all, teacher_feats,
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
        total = 0.0
        batches = 0
        for a, b, _ in pair_batches(train_w, train_l, cfg_stage2.pairs_per_epoch,
                                    cfg_stage2.minibatch, rng, dtype):
            soft = forward_pairs(teacher, a, b)
            loss, grads = old_loss_and_gradients(student, (a, b, soft))
            apply_gradients(student, grads, lr,
                            freeze_extractor=freeze_extractor_stage2)
            total += loss
            batches += 1
        stage2_log.append(total / max(batches, 1))
    return student, {"stage1": stage1_log, "stage2": stage2_log}


# ------------------------------------------------------------ checks

DTYPES = [pytest.param(np.float32, id="float32"),
          pytest.param(np.float64, id="float64")]


def weight_bytes(layers) -> list:
    return [(l.activation, l.weights.dtype.str, l.weights.tobytes(),
             l.bias.tobytes()) for l in layers]


def net_bytes(net) -> list:
    return weight_bytes(list(net.extractor.layers) + list(net.head))


def same_log(new, old) -> bool:
    # NaN validation accuracy compares unequal to itself; repr does not
    return repr(new) == repr(old)


@pytest.fixture(scope="module")
def ds():
    return synthetic_split(seed=71, n_train=192, n_val=48)


@pytest.mark.parametrize("dtype", DTYPES)
def test_pretrain_two_stages(ds, dtype):
    data = ds.train_W + ds.train_L
    cfg = TrainConfig(initial_lr=0.02, lr_decay_per_epoch=0.97, epochs=3,
                      minibatch=50, seed=72)  # 384 rows: a short last batch
    new_ext, new_logs = train.pretrain_pos2vec(data, cfg, dims=(773, 24, 12),
                                               dtype=dtype)
    old_ext, old_logs = old_pretrain_pos2vec(data, cfg, (773, 24, 12), dtype)
    assert new_logs == old_logs
    assert weight_bytes(new_ext.layers) == weight_bytes(old_ext.layers)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("val_pairs", [0, 9000],
                         ids=["no-val", "val-past-one-eval-batch"])
def test_train_deepchess(ds, dtype, val_pairs):
    init = init_extractor((773, 16, 8), np.random.default_rng(73), dtype)
    cfg = TrainConfig(initial_lr=0.05, lr_decay_per_epoch=0.98, epochs=3,
                      pairs_per_epoch=1000, minibatch=96, seed=74)
    new_net, new_log = train.train_deepchess(ds, init, cfg, head_sizes=(8, 2),
                                             val_pairs=val_pairs)
    old_net, old_log = old_train_deepchess(ds, init, cfg, (8, 2), val_pairs)
    assert same_log(new_log, old_log)
    assert net_bytes(new_net) == net_bytes(old_net)


@pytest.fixture(scope="module", params=DTYPES)
def teacher(request, ds):
    init = init_extractor((773, 12, 6), np.random.default_rng(75),
                          request.param)
    cfg = TrainConfig(initial_lr=0.05, epochs=2, pairs_per_epoch=1024,
                      minibatch=64, seed=76)
    net, _ = train.train_deepchess(ds, init, cfg, head_sizes=(8, 2),
                                   val_pairs=0)
    return net


@pytest.mark.parametrize("freeze", [False, True], ids=["tuned", "frozen"])
def test_distill(ds, teacher, freeze):
    positions = ds.train_W[:100] + ds.train_L[:100]
    cfg1 = TrainConfig(initial_lr=0.02, epochs=3, pairs_per_epoch=1,
                       minibatch=48, seed=77)
    cfg2 = TrainConfig(initial_lr=0.05, lr_decay_per_epoch=0.95, epochs=2,
                       pairs_per_epoch=700, minibatch=64, seed=78)
    args = (teacher, positions, ds, cfg1, cfg2)
    new, new_logs = train.distill(*args, extractor_dims=(773, 10, 6),
                                  head_sizes=(6, 2),
                                  freeze_extractor_stage2=freeze)
    old, old_logs = old_distill(*args, (773, 10, 6), (6, 2), freeze)
    assert new_logs == old_logs
    assert net_bytes(new) == net_bytes(old)


def test_agreement_past_one_eval_batch(ds, teacher):
    other = teacher.copy()
    other.head[-1].bias += np.array([0.3, -0.3], other.dtype)
    triple = build_pair_set(dataset.class_matrix(ds.val_W),
                            dataset.class_matrix(ds.val_L), 9000, seed=79,
                            dtype=teacher.dtype)
    agreement = train.pair_agreement(teacher, other, triple)
    assert agreement == old_pair_agreement(teacher, other, triple)
    assert train.pair_accuracy(other, triple) == old_pair_accuracy(other,
                                                                   triple)
