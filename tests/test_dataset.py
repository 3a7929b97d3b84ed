import io
import random

import numpy as np
import pytest

from cmpchess.board import GameOutcome, apply_move, legal_moves, startpos
from cmpchess.dataset import (
    InsufficientData, Label, LabeledPosition,
    class_matrix, eligible_plies, extract_positions, iter_positions,
    load_positions, save_positions, split,
)
from cmpchess.encoding import encode
from cmpchess.fileformat import BadMagic, TruncatedFile, VersionMismatch
from cmpchess.pgn import parse_pgn

CAPTURE_TAIL = """\
[Result "1-0"]

1. e4 d5 2. Nf3 Nc6 3. Bb5 Bd7 4. Nc3 Nf6 5. O-O e6 6. exd5 Nxd5
7. Bxc6 Bxc6 8. Nxd5 Bxd5 1-0
"""

QUIET_GAME = """\
[Result "0-1"]

1. d4 d5 2. Nf3 Nf6 3. e3 e6 4. Bd3 Bd6 5. O-O O-O 6. Nbd2 Nbd7
7. b3 b6 8. Bb2 Bb7 9. c4 c5 0-1
"""


def game_from(text):
    return next(parse_pgn(io.StringIO(text)))


def brute_force_eligible(moves, opening_cutoff=5):
    """Replay and re-check the two filters directly (test-side oracle)."""
    p = startpos()
    out = []
    for i, m in enumerate(moves):
        if p.fullmove_number > opening_cutoff and not m.capture:
            out.append(i)
        p = apply_move(p, m)
    return out


class TestExtraction:
    def test_all_captures_after_cutoff_gives_empty(self):
        game = game_from(CAPTURE_TAIL)
        got = extract_positions(game.moves, game.outcome, random.Random(1))
        assert got == []
        assert brute_force_eligible(game.moves) == []

    def test_scarce_eligible_plies_all_returned(self):
        game = game_from(QUIET_GAME)
        expected = brute_force_eligible(game.moves)
        assert len(expected) == 8  # moves 6..9, both sides, no captures
        got = extract_positions(game.moves, game.outcome, random.Random(1),
                                k=10, game_id=42)
        assert [x.ply for x in got] == expected
        assert all(x.label == Label.L for x in got)  # Black won
        assert all(x.source_game_id == 42 for x in got)

    def test_extracted_vectors_match_replayed_positions(self):
        game = game_from(QUIET_GAME)
        got = extract_positions(game.moves, game.outcome, random.Random(3), k=4)
        assert len(got) == 4
        by_ply = {x.ply: x for x in got}
        p = startpos()
        for i, m in enumerate(game.moves):
            if i in by_ply:
                assert (by_ply[i].vector == encode(p)).all()
            p = apply_move(p, m)

    def test_sampling_without_replacement_and_uniform(self):
        game = game_from(QUIET_GAME)
        seen = set()
        for trial in range(300):
            got = extract_positions(game.moves, game.outcome,
                                    random.Random(trial), k=3)
            plies = [x.ply for x in got]
            assert len(set(plies)) == 3  # no duplicates
            seen.update(plies)
        assert seen == set(brute_force_eligible(game.moves))  # all reachable

    def test_draws_rejected(self):
        game = game_from(QUIET_GAME)
        with pytest.raises(ValueError):
            extract_positions(game.moves, GameOutcome.DRAW, random.Random(1))

    def test_en_passant_capture_filtered(self):
        text = """\
[Result "1-0"]

1. Nf3 Nf6 2. Ng1 Ng8 3. Nf3 Nf6 4. Ng1 Ng8 5. e4 d6 6. e5 f5 7. exf6
gxf6 8. d4 1-0
"""
        game = game_from(text)
        assert game.moves[12].en_passant  # 7. exf6 really is en passant
        eligible = eligible_plies(game.moves)
        assert eligible == [10, 11, 14]  # ep capture ply 12 excluded
        assert eligible == brute_force_eligible(game.moves)


def fake_position(label, tag):
    v = np.zeros(773, dtype=np.uint8)
    v[tag % 773] = 1
    v[768] = int(label == Label.W)
    return LabeledPosition(v, label, tag, 0)


class TestSplit:
    def test_sizes_and_disjointness(self):
        pool = [fake_position(Label.W, i) for i in range(10)]
        pool += [fake_position(Label.L, 100 + i) for i in range(10)]
        ds = split(pool, val_per_class=2, seed=9)
        assert len(ds.train_W) == 8 and len(ds.train_L) == 8
        assert len(ds.val_W) == 2 and len(ds.val_L) == 2
        ids = [x.source_game_id for part in ds[:4] for x in part]
        assert len(ids) == len(set(ids))

    def test_deterministic(self):
        pool = [fake_position(Label.W, i) for i in range(30)]
        pool += [fake_position(Label.L, 100 + i) for i in range(30)]
        a = split(pool, 5, seed=4)
        b = split(pool, 5, seed=4)
        assert [x.source_game_id for x in a.val_W] == [x.source_game_id for x in b.val_W]
        c = split(pool, 5, seed=5)
        assert ([x.source_game_id for x in a.val_W]
                != [x.source_game_id for x in c.val_W])

    def test_insufficient_data(self):
        pool = [fake_position(Label.W, i) for i in range(3)]
        pool += [fake_position(Label.L, 10 + i) for i in range(99)]
        with pytest.raises(InsufficientData, match="W=3"):
            split(pool, val_per_class=3, seed=0)


class TestDatasetFile:
    def make_pool(self, n=25):
        rng = random.Random(5)
        pool = []
        p = startpos()
        for i in range(n):
            moves = legal_moves(p)
            if not moves:
                p = startpos()
                moves = legal_moves(p)
            p = apply_move(p, rng.choice(moves))
            pool.append(LabeledPosition(encode(p), Label(i % 2), i, i % 7))
        return pool

    def test_round_trip(self, tmp_path):
        pool = self.make_pool()
        path = tmp_path / "pool.dcds"
        assert save_positions(path, pool) == len(pool)
        back = load_positions(path)
        assert len(back) == len(pool)
        for a, b in zip(pool, back):
            assert (a.vector == b.vector).all()
            assert (a.label, a.source_game_id, a.ply) == (b.label, b.source_game_id, b.ply)

    def test_streaming_reader_is_lazy(self, tmp_path):
        pool = self.make_pool(10)
        path = tmp_path / "pool.dcds"
        save_positions(path, pool)
        it = iter_positions(path)
        first = next(it)
        assert first.source_game_id == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dcds"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_positions(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "new.dcds"
        path.write_bytes(b"DCDS\x63\x00")
        with pytest.raises(VersionMismatch):
            load_positions(path)

    def test_truncated_record(self, tmp_path):
        pool = self.make_pool(3)
        path = tmp_path / "cut.dcds"
        save_positions(path, pool)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(TruncatedFile):
            load_positions(path)

    def test_class_matrix(self):
        pool = self.make_pool(6)
        m = class_matrix(pool)
        assert m.shape == (6, 773) and m.dtype == np.uint8
