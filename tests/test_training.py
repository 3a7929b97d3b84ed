"""Behavioral tests for the training loops: schedule, pretraining,
supervised pair training, and distillation."""

import numpy as np
import pytest

from cmpchess.dataset import (
    InsufficientData, Label, LabeledPosition, SplitDataset,
)
from cmpchess.nn import (
    NonFiniteLoss, TrainConfig, distill, lr_at, pretrain_pos2vec,
    train_deepchess,
)
from cmpchess.nn.model import forward_pairs, init_extractor, init_head
from cmpchess.nn.train import build_pair_set, pair_accuracy, pair_batches


def bit_vectors(rng, n, dim, marker_bit, density=0.05):
    """Random sparse bit vectors with one class-marker bit forced on."""
    mat = (rng.random((n, dim)) < density).astype(np.uint8)
    mat[:, 0] = 0
    mat[:, 1] = 0
    mat[:, marker_bit] = 1
    return mat


def as_positions(mat, label):
    return [LabeledPosition(row, label, i, 0) for i, row in enumerate(mat)]


def synthetic_split(seed=0, n_train=256, n_val=64, dim=773):
    """Linearly separable toy task: winners carry bit 0, losers bit 1."""
    rng = np.random.default_rng(seed)
    return SplitDataset(
        train_W=as_positions(bit_vectors(rng, n_train, dim, 0), Label.W),
        train_L=as_positions(bit_vectors(rng, n_train, dim, 1), Label.L),
        val_W=as_positions(bit_vectors(rng, n_val, dim, 0), Label.W),
        val_L=as_positions(bit_vectors(rng, n_val, dim, 1), Label.L),
        seed=seed,
    )


class TestSchedule:
    def test_lr_matches_closed_form(self):
        cfg = TrainConfig(initial_lr=0.01, lr_decay_per_epoch=0.99)
        expected = 0.01
        for epoch in range(50):
            assert lr_at(cfg, epoch) == pytest.approx(expected, rel=1e-12)
            expected *= 0.99

    def test_no_decay_is_constant(self):
        cfg = TrainConfig(initial_lr=0.5, lr_decay_per_epoch=1.0)
        assert lr_at(cfg, 0) == lr_at(cfg, 999) == 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_decay_per_epoch=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay_per_epoch=1.5)
        with pytest.raises(ValueError):
            TrainConfig(minibatch=0)
        with pytest.raises(ValueError):
            TrainConfig(pairs_per_epoch=0)


class TestPairBatches:
    def test_sizes_and_targets(self):
        rng = np.random.default_rng(3)
        w = np.zeros((40, 8), dtype=np.uint8)
        l = np.zeros((40, 8), dtype=np.uint8)
        w[:, 0] = 1  # marker: winners have bit 0 set
        total = 0
        saw_wl = saw_lw = False
        for first, second, target in pair_batches(w, l, 1000, 128, rng,
                                                  np.float32):
            total += len(first)
            assert len(first) == len(second) == len(target)
            # target column 0 means "first position is the winner"
            assert np.array_equal(target[:, 0], first[:, 0])
            assert np.array_equal(target[:, 1], second[:, 0])
            assert np.array_equal(target.sum(axis=1), np.ones(len(target)))
            saw_wl |= bool(target[:, 0].any())
            saw_lw |= bool(target[:, 1].any())
        assert total == 1000
        assert saw_wl and saw_lw

    @staticmethod
    def class_mats(nw=5, nl=5, dim=16):
        rng = np.random.default_rng(0)
        return bit_vectors(rng, nw, dim, 0), bit_vectors(rng, nl, dim, 1)

    def test_single_pair_pool_both_orders_show_up(self):
        w, l = self.class_mats(1, 1)
        ((_, _, target),) = pair_batches(w, l, 64, 64,
                                         np.random.default_rng(11), np.float32)
        assert len(target) == 64
        assert {tuple(row) for row in target.tolist()} == {(1, 0), (0, 1)}

    def test_every_pair_has_one_of_each_class(self):
        w, l = self.class_mats()
        w_rows = {row.tobytes() for row in w.astype(np.float32)}
        l_rows = {row.tobytes() for row in l.astype(np.float32)}
        for first, second, target in pair_batches(
                w, l, 500, 128, np.random.default_rng(2), np.float32):
            for a, b, t in zip(first, second, target):
                if t[0]:
                    assert a.tobytes() in w_rows and b.tobytes() in l_rows
                else:
                    assert a.tobytes() in l_rows and b.tobytes() in w_rows

    def test_order_marginal_balanced(self):
        w, l = self.class_mats()
        n = 100_000
        firsts = sum(float(t[:, 0].sum()) for _, _, t in pair_batches(
            w, l, n, 4096, np.random.default_rng(3), np.float32))
        assert abs(firsts / n - 0.5) < 0.01

    def test_deterministic_stream(self):
        w, l = self.class_mats()

        def stream():
            return [x.tobytes() for triple in pair_batches(
                w, l, 200, 64, np.random.default_rng(8), np.float32)
                for x in triple]

        assert stream() == stream()

    def test_empty_class_rejected(self):
        w, l = self.class_mats()
        rng = np.random.default_rng(0)
        with pytest.raises(InsufficientData, match="no W positions"):
            next(pair_batches(w[:0], l, 1, 1, rng, np.float32))
        with pytest.raises(InsufficientData, match="no L positions"):
            next(pair_batches(w, l[:0], 1, 1, rng, np.float32))

    def test_build_pair_set_deterministic(self):
        w = np.eye(16, dtype=np.uint8)
        l = 1 - np.eye(16, dtype=np.uint8)
        a1 = build_pair_set(w, l, 64, seed=9)
        a2 = build_pair_set(w, l, 64, seed=9)
        for x, y in zip(a1, a2):
            assert np.array_equal(x, y)


class TestPretrain:
    def test_single_vector_memorized(self):
        rng = np.random.default_rng(1)
        vec = (rng.random(16) < 0.5).astype(np.uint8)
        data = np.tile(vec, (32, 1))
        cfg = TrainConfig(initial_lr=0.05, lr_decay_per_epoch=1.0,
                          epochs=300, minibatch=32, seed=4)
        ext, logs = pretrain_pos2vec(data, cfg, dims=(16, 8), dtype=np.float64)
        assert logs[0][-1] < 1e-3
        assert ext.dims == (16, 8)

    def test_reconstruction_improves(self):
        rng = np.random.default_rng(2)
        data = (rng.random((64, 16)) < 0.3).astype(np.uint8)
        cfg = TrainConfig(initial_lr=0.02, lr_decay_per_epoch=0.98,
                          epochs=6, minibatch=16, seed=5)
        _, logs = pretrain_pos2vec(data, cfg, dims=(16, 8))
        first_stage = logs[0]
        for a, b in zip(first_stage, first_stage[1:]):
            assert b < a

    def test_earlier_stages_frozen(self):
        """Adding a later stage must not change what stage 1 learned."""
        rng = np.random.default_rng(6)
        data = (rng.random((64, 16)) < 0.3).astype(np.uint8)
        cfg = TrainConfig(initial_lr=0.02, lr_decay_per_epoch=0.98,
                          epochs=4, minibatch=16, seed=7)
        ext_short, logs_short = pretrain_pos2vec(data, cfg, dims=(16, 8))
        ext_long, logs_long = pretrain_pos2vec(data, cfg, dims=(16, 8, 4))
        assert len(ext_long.layers) == 2
        a, b = ext_short.layers[0], ext_long.layers[0]
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
        assert logs_short[0] == logs_long[0]

    def test_stage_count_and_shapes(self):
        data = np.zeros((8, 12), dtype=np.uint8)
        cfg = TrainConfig(epochs=1, minibatch=8, seed=0)
        ext, logs = pretrain_pos2vec(data, cfg, dims=(12, 6, 4, 3))
        assert ext.dims == (12, 6, 4, 3)
        assert len(logs) == 3 and all(len(lg) == 1 for lg in logs)


class TestTrainDeepchess:
    def test_learns_separable_task(self):
        ds = synthetic_split(seed=11)
        rng = np.random.default_rng(12)
        init = init_extractor((773, 16), rng)
        cfg = TrainConfig(initial_lr=0.05, lr_decay_per_epoch=0.99,
                          epochs=4, pairs_per_epoch=2048, minibatch=64,
                          seed=13)
        net, log = train_deepchess(ds, init, cfg, head_sizes=(8, 2),
                                   val_pairs=512)
        assert len(log) == 4
        assert log[-1].val_accuracy > 0.95
        assert log[-1].mean_loss < log[0].mean_loss
        # epochs and schedule are reported faithfully
        for i, stats in enumerate(log):
            assert stats.epoch == i
            assert stats.lr == pytest.approx(lr_at(cfg, i))

    def test_initial_extractor_untouched(self):
        ds = synthetic_split(seed=21)
        rng = np.random.default_rng(22)
        init = init_extractor((773, 8), rng)
        before = [lay.weights.copy() for lay in init.layers]
        cfg = TrainConfig(initial_lr=0.05, epochs=1, pairs_per_epoch=256,
                          minibatch=64, seed=23)
        net, _ = train_deepchess(ds, init, cfg, head_sizes=(4, 2),
                                 val_pairs=64)
        for lay, orig in zip(init.layers, before):
            assert np.array_equal(lay.weights, orig)
        # ... while the network's own copy did move
        assert not np.array_equal(net.extractor.layers[0].weights, before[0])

    def test_deterministic_logs(self):
        ds = synthetic_split(seed=31)
        cfg = TrainConfig(initial_lr=0.05, epochs=2, pairs_per_epoch=512,
                          minibatch=64, seed=33)
        runs = []
        for _ in range(2):
            init = init_extractor((773, 8), np.random.default_rng(32))
            _, log = train_deepchess(ds, init, cfg, head_sizes=(4, 2),
                                     val_pairs=128)
            runs.append(log)
        assert runs[0] == runs[1]  # exact, field by field

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_nonfinite_loss_raises(self):
        ds = synthetic_split(seed=41, n_train=64, n_val=16)
        init = init_extractor((773, 8), np.random.default_rng(42))
        cfg = TrainConfig(initial_lr=1e12, epochs=3, pairs_per_epoch=512,
                          minibatch=64, seed=43)
        with pytest.raises(NonFiniteLoss):
            train_deepchess(ds, init, cfg, head_sizes=(4, 2), val_pairs=0)


class TestDistill:
    def make_teacher(self):
        ds = synthetic_split(seed=51)
        init = init_extractor((773, 12, 6), np.random.default_rng(52))
        cfg = TrainConfig(initial_lr=0.05, epochs=3, pairs_per_epoch=2048,
                          minibatch=64, seed=53)
        teacher, _ = train_deepchess(ds, init, cfg, head_sizes=(8, 2),
                                     val_pairs=256)
        return teacher, ds

    def test_zero_epochs_leaves_initialization(self):
        teacher, ds = self.make_teacher()
        positions = ds.train_W[:32] + ds.train_L[:32]
        cfg0 = TrainConfig(epochs=0, pairs_per_epoch=1, seed=61)
        student, logs = distill(teacher, positions, ds, cfg0,
                                extractor_dims=(773, 10, 6),
                                head_sizes=(6, 2))
        assert logs["stage1"] == [] and logs["stage2"] == []
        # must be bit-identical to a fresh initialization from the same seeds
        ref_ext = init_extractor((773, 10, 6), np.random.default_rng([61, 31]),
                                 teacher.dtype)
        ref_head = init_head(12, (6, 2), np.random.default_rng([61, 32]),
                             teacher.dtype)
        for a, b in zip(student.extractor.layers, ref_ext.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
        for a, b in zip(student.head, ref_head):
            assert a.weights.tobytes() == b.weights.tobytes()

    def test_stage1_regresses_features(self):
        teacher, ds = self.make_teacher()
        positions = ds.train_W[:64] + ds.train_L[:64]
        cfg = TrainConfig(initial_lr=0.02, epochs=8, pairs_per_epoch=1,
                          minibatch=32, seed=62)
        student, logs = distill(teacher, positions, ds, cfg,
                                cfg_stage2=TrainConfig(epochs=0,
                                                       pairs_per_epoch=1),
                                extractor_dims=(773, 10, 6),
                                head_sizes=(6, 2))
        s1 = logs["stage1"]
        assert len(s1) == 8 and s1[-1] < s1[0]

    def test_distilled_student_agrees(self):
        teacher, ds = self.make_teacher()
        positions = ds.train_W + ds.train_L
        cfg1 = TrainConfig(initial_lr=0.02, epochs=10, pairs_per_epoch=1,
                           minibatch=64, seed=63)
        cfg2 = TrainConfig(initial_lr=0.05, epochs=5, pairs_per_epoch=2048,
                           minibatch=64, seed=63)
        student, logs = distill(teacher, positions, ds, cfg1, cfg2,
                                extractor_dims=(773, 10, 6),
                                head_sizes=(6, 2))
        assert len(logs["stage2"]) == 5
        from cmpchess.dataset import class_matrix
        probe = build_pair_set(class_matrix(ds.val_W), class_matrix(ds.val_L),
                               512, seed=64)
        t_acc = pair_accuracy(teacher, probe)
        s_acc = pair_accuracy(student, probe)
        assert t_acc > 0.95
        assert s_acc > 0.9

    def test_feature_width_must_match(self):
        teacher, ds = self.make_teacher()
        cfg = TrainConfig(epochs=0, pairs_per_epoch=1)
        with pytest.raises(ValueError):
            distill(teacher, ds.train_W[:4], ds, cfg,
                    extractor_dims=(773, 10, 5), head_sizes=(6, 2))

    def test_frozen_stage2_extractor(self):
        teacher, ds = self.make_teacher()
        positions = ds.train_W[:32] + ds.train_L[:32]
        cfg1 = TrainConfig(initial_lr=0.02, epochs=2, pairs_per_epoch=1,
                           minibatch=32, seed=65)
        cfg2 = TrainConfig(initial_lr=0.05, epochs=2, pairs_per_epoch=256,
                           minibatch=64, seed=65)
        frozen, _ = distill(teacher, positions, ds, cfg1, cfg2,
                            extractor_dims=(773, 10, 6), head_sizes=(6, 2),
                            freeze_extractor_stage2=True)
        # with the extractor frozen, stage 2 must not move it off the
        # stage-1 result
        stage1_only, _ = distill(teacher, positions, ds, cfg1,
                                 TrainConfig(epochs=0, pairs_per_epoch=1,
                                             seed=65),
                                 extractor_dims=(773, 10, 6),
                                 head_sizes=(6, 2))
        for a, b in zip(frozen.extractor.layers, stage1_only.extractor.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
