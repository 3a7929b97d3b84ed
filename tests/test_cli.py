"""CLI surface: config parsing, subcommand wiring, exit codes."""

import io
import random
import re
from dataclasses import dataclass

import numpy as np
import pytest

from cmpchess import cli
from cmpchess.board import apply_move, legal_moves, startpos, to_fen
from cmpchess.cli import (
    BENCH_PAIRS, UsageError, _clock, _playouts, engine_config_from,
    load_config, main, parse_config_text,
)
from cmpchess.inference import MaterialComparator
from cmpchess.match import MatchSpec, run_match
from cmpchess.nn import init_siamese, save_model
from cmpchess.search import SearchLimits, search_root
from cmpchess.uci import EngineConfig


class TestConfigFormat:
    def test_values_comments_blanks(self):
        text = """
        # engine settings
        comparator = material   # trailing comment
        cache_mb = 8
        name = spaced value here
        """
        cfg = parse_config_text(text)
        assert cfg == {"comparator": "material", "cache_mb": "8",
                       "name": "spaced value here"}

    def test_malformed_line_rejected(self):
        with pytest.raises(UsageError, match="line 2"):
            parse_config_text("a = 1\nnot a pair\n")

    def test_missing_file(self):
        with pytest.raises(UsageError):
            load_config("/no/such/config")
        assert load_config(None) == {}

    def test_engine_config_prefixes(self):
        cfg = parse_config_text(
            "a.comparator = random\na.seed = 9\nb.max_depth = 3\ngames = 4")
        a = engine_config_from(cfg, "a.")
        b = engine_config_from(cfg, "b.")
        assert a.comparator == "random" and a.seed == 9
        assert b.comparator == "material" and b.max_depth == 3

    def test_overrides_win(self):
        cfg = {"comparator": "random", "seed": "1"}
        out = engine_config_from(cfg, overrides={"seed": 5,
                                                 "comparator": None})
        assert out.comparator == "random" and out.seed == 5

    def test_bad_values_are_usage_errors(self):
        with pytest.raises(UsageError):
            engine_config_from({"comparator": "bogus"})
        with pytest.raises(UsageError):
            engine_config_from({"deterministic": "maybe"})

    @pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
    def test_bad_cache_size_refused_by_name(self, value):
        with pytest.raises(UsageError, match="cache_mb"):
            engine_config_from({"cache_mb": value})
        with pytest.raises(ValueError, match="cache_mb"):
            EngineConfig(cache_mb=float(value))

    # only configs are built here: a comparator would allocate the cache
    @pytest.mark.parametrize("value", ["4096.5", "5000", "1e12"])
    def test_cache_size_above_the_uci_max_refused_by_name(self, value):
        with pytest.raises(UsageError, match="cache_mb.*4096"):
            engine_config_from({"cache_mb": value})
        with pytest.raises(UsageError, match="cache_mb"):
            engine_config_from({}, overrides={"cache_mb": float(value)})
        with pytest.raises(ValueError, match="cache_mb"):
            EngineConfig(cache_mb=float(value))

    @pytest.mark.parametrize("key, value", [
        ("max_depth", "65"), ("seed", "-1"), ("seed", "1000000000")])
    def test_int_setting_outside_its_range_refused_by_name(self, key,
                                                           value):
        with pytest.raises(UsageError, match=key):
            engine_config_from({key: value})

    @pytest.mark.parametrize("value", ["0.5", "4096"])
    def test_cache_size_within_bounds_accepted(self, value):
        assert engine_config_from({"cache_mb": value}).cache_mb \
            == float(value)

    def test_defaults_come_from_engine_config(self, monkeypatch):
        assert set(cli._ENGINE_KEY_TYPES) == set(cli.ENGINE_KEYS)
        assert engine_config_from({}) == EngineConfig()

        @dataclass
        class Other(EngineConfig):
            cache_mb: float = 8.0
            comparator: str = "random"
            seed: int = 3
            max_depth: int = 5

        monkeypatch.setattr(cli, "EngineConfig", Other)
        assert engine_config_from({}) == Other()
        assert engine_config_from({"seed": "4"}) == Other(seed=4)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["nonsense"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_input_file(self, capsys):
        assert main(["pretrain", "--data", "/no/such.bin",
                     "--out", "/tmp/x"]) == 1

    def test_engine_misconfiguration(self, capsys):
        assert main(["bench", "--comparator", "learned"]) == 1

    def test_match_depth_guard(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("a.comparator = material\nb.comparator = random\n")
        assert main(["match", "--config", str(cfg)]) == 1
        assert "max_depth" in capsys.readouterr().err


@pytest.fixture(scope="module")
def corpus_pgn(tmp_path_factory):
    """A small all-decisive PGN made by beating a random mover."""
    spec = MatchSpec(
        engines=(EngineConfig(max_depth=2),
                 EngineConfig(comparator="random", seed=0, max_depth=1)),
        games=20, max_plies=300)
    report = run_match(spec)
    path = tmp_path_factory.mktemp("cli") / "games.pgn"
    path.write_text(report.pgn)
    return path


class TestPipeline:
    def test_extract_to_distill_roundtrip(self, corpus_pgn, tmp_path, capsys):
        data = tmp_path / "data.bin"
        assert main(["extract", "--pgn", str(corpus_pgn), "--out", str(data),
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "20 games (20 decisive)" in out

        ext = tmp_path / "ext.model"
        assert main(["pretrain", "--data", str(data), "--out", str(ext),
                     "--dims", "773,16", "--epochs", "2"]) == 0

        model = tmp_path / "model.bin"
        assert main(["train", "--data", str(data), "--extractor", str(ext),
                     "--out", str(model), "--head", "8,2",
                     "--epochs", "2", "--pairs-per-epoch", "2000",
                     "--val-per-class", "15", "--val-pairs", "400"]) == 0
        out = capsys.readouterr().out
        assert "saved model" in out

        student = tmp_path / "student.bin"
        assert main(["distill", "--model", str(model), "--data", str(data),
                     "--out", str(student), "--dims", "773,16",
                     "--head", "8,2", "--epochs1", "1", "--epochs2", "1",
                     "--pairs-per-epoch", "500",
                     "--val-per-class", "15"]) == 0

        from cmpchess.nn.io import load_model
        net = load_model(str(student))
        assert net.extractor.layers[0].in_dim == 773

    def test_extract_reports_malformed_games(self, corpus_pgn, tmp_path,
                                             capsys):
        good = corpus_pgn.read_text().split("\n\n[")[0] + "\n\n"
        bad = '[Result "1-0"]\n\n1. e4 e5 2. Ke3 1-0\n\n'
        pgn = tmp_path / "mixed.pgn"
        pgn.write_text(good + bad)
        data = tmp_path / "mixed.bin"
        assert main(["extract", "--pgn", str(pgn), "--out", str(data)]) == 0
        captured = capsys.readouterr()
        assert "read 1 games (1 decisive), skipped 1 malformed" in captured.out
        assert f"skipped malformed game in {pgn}: game 1:" in captured.err
        assert "Ke3" in captured.err

    @pytest.mark.parametrize("fen", ["", "  "])
    def test_extract_skips_a_blank_fen_tag(self, corpus_pgn, tmp_path,
                                           capsys, fen):
        good = corpus_pgn.read_text().split("\n\n[")[0] + "\n\n"
        blank = f'[FEN "{fen}"]\n[Result "1-0"]\n\n1. e4 e5 1-0\n\n'
        pgn = tmp_path / "blank.pgn"
        pgn.write_text(good + blank)
        data = tmp_path / "blank.bin"
        assert main(["extract", "--pgn", str(pgn), "--out", str(data)]) == 0
        captured = capsys.readouterr()
        assert "read 1 games (1 decisive), skipped 1 malformed" in captured.out
        assert "game 1: bad FEN tag" in captured.err

    def test_max_games_cap(self, corpus_pgn, tmp_path, capsys):
        data = tmp_path / "capped.bin"
        assert main(["extract", "--pgn", str(corpus_pgn), "--out", str(data),
                     "--max-games", "5"]) == 0
        assert "(5 decisive)" in capsys.readouterr().out


class TestOperation:
    def test_play_runs_uci(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("uci\nposition startpos\n"
                                        "go depth 1\nquit\n"))
        assert main(["play", "--comparator", "material"]) == 0
        out = capsys.readouterr().out
        assert "uciok" in out and "bestmove" in out

    def test_play_advertises_its_settings(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("uci\nquit\n"))
        assert main(["play", "--comparator", "random", "--max-depth", "8",
                     "--cache-mb", "4", "--engine-seed", "6"]) == 0
        options = {line.split()[2]: line.split("default ")[1].split()[0]
                   for line in capsys.readouterr().out.splitlines()
                   if line.startswith("option name")
                   and line.split()[2] != "ModelPath"}
        assert options == {"CacheMB": "4", "Comparator": "random",
                           "Seed": "6", "MaxDepth": "8"}

    def test_match_config(self, tmp_path, capsys):
        pgn_out = tmp_path / "match.pgn"
        cfg = tmp_path / "m.cfg"
        cfg.write_text(
            "a.comparator = material\na.max_depth = 1\n"
            "b.comparator = random\nb.seed = 5\nb.max_depth = 1\n"
            "games = 2\nmax_plies = 40\n"
            f"pgn_out = {pgn_out}\n")
        assert main(["match", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "engine A: +" in out and "elo difference" in out
        assert pgn_out.read_text().startswith("[Event")

    @pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
    def test_match_bad_cache_size_exits_1(self, tmp_path, capsys, value):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("a.max_depth = 1\nb.max_depth = 1\n"
                       f"b.cache_mb = {value}\ngames = 1\nmax_plies = 2\n")
        assert main(["match", "--config", str(cfg)]) == 1
        assert "cache_mb" in capsys.readouterr().err

    def test_match_flags_override_config(self, tmp_path, capsys):
        file_pgn, flag_pgn = tmp_path / "file.pgn", tmp_path / "flag.pgn"
        cfg = tmp_path / "m.cfg"
        cfg.write_text(
            "a.comparator = material\na.max_depth = 1\n"
            "b.comparator = random\nb.max_depth = 1\n"
            f"games = 2\nmax_plies = 4\npgn_out = {file_pgn}\n")
        assert main(["match", "--config", str(cfg), "--games", "4",
                     "--pgn-out", str(flag_pgn)]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"^  game (\d+):", out, re.MULTILINE) == \
            ["1", "2", "3", "4"]
        assert flag_pgn.read_text().count("[Event ") == 4
        assert not file_pgn.exists()
        # without the flags the file's values hold
        assert main(["match", "--config", str(cfg)]) == 0
        assert file_pgn.read_text().count("[Event ") == 2

    @pytest.mark.parametrize("command, text, named", [
        ("bench", "seed = 1.5\n", "seed = 1.5"),
        ("match", "a.max_depth = 1\nb.max_depth = 1\nb.seed = x\n",
         "b.seed = x"),
        ("match", "a.max_depth = 1\nb.max_depth = 1\ngames = two\n",
         "games = two"),
        ("match", "a.max_depth = 1\nb.max_depth = 1\nmax_plies = 4.5\n",
         "max_plies = 4.5"),
    ], ids=["engine-key", "match-engine-key", "games", "max-plies"])
    def test_unparsed_integer_refused_by_key(self, tmp_path, capsys, command,
                                             text, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == \
            f"usage error: {named}: expected an integer\n"

    def test_match_time_per_game_forms(self):
        assert _clock("60") == (60.0, 60.0)
        assert _clock("1.5, 2") == (1.5, 2.0)

    @pytest.mark.parametrize("value", ["abc", "0.5,0.5,99", "0", "-1,5",
                                       "5,", "nan", "inf,5"])
    def test_match_time_per_game_refused(self, tmp_path, capsys, value):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("a.max_depth = 1\nb.max_depth = 1\n"
                       f"time_per_game = {value}\n")
        assert main(["match", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: time_per_game")

    def test_match_plays_from_openings_file(self, tmp_path, capsys):
        fens = ["4k3/8/8/8/8/8/4P3/4K3 w - - 0 1",
                "4k3/4p3/8/8/8/8/8/4K3 w - - 0 1"]
        book = tmp_path / "book.fen"
        book.write_text("# two king-and-pawn starts\n" + "\n".join(fens) + "\n")
        pgn_out = tmp_path / "match.pgn"
        cfg = tmp_path / "m.cfg"
        cfg.write_text(
            "a.comparator = material\na.max_depth = 1\n"
            "b.comparator = random\nb.max_depth = 1\n"
            f"games = 4\nmax_plies = 6\nopenings = {book}\n"
            f"pgn_out = {pgn_out}\n")
        assert main(["match", "--config", str(cfg)]) == 0
        starts = [line for line in pgn_out.read_text().splitlines()
                  if line.startswith("[FEN ")]
        assert starts == [f'[FEN "{fen}"]' for fen in fens for _ in (0, 1)]

    @pytest.mark.parametrize("command, text, key", [
        ("match", "a.max_depth = 1\nb.max_depth = 1\nopenings_file = x\n",
         "'openings_file'"),
        ("match", "a.max_depth = 1\nb.max_depth = 1\nb.deterministic = 1\n",
         "'b.deterministic'"),
        ("bench", "comparator = material\ngames = 2\n", "'games'"),
        ("audit", "deterministic = true\n", "'deterministic'"),
        ("play", "cache_mb = 8\nmaxdepth = 3\n", "'maxdepth'"),
    ], ids=["match-key", "match-engine-key", "bench", "audit", "play"])
    def test_unknown_config_key_exits_1(self, tmp_path, capsys, command,
                                        text, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "unknown config key" in err and key in err

    def test_bench_material(self, capsys):
        assert main(["bench", "--comparator", "material",
                     "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "deterministic node counts: yes" in out
        assert "calls/sec" in out
        assert BENCH_PAIRS >= 1000
        cmp = MaterialComparator()
        result = search_root(startpos(), SearchLimits(max_depth=2), cmp)
        per_node = re.findall(r"^search run \d: .* ([\d.]+) comparator "
                              r"calls/node,", out, re.MULTILINE)
        assert per_node == [f"{cmp.calls / result.nodes:.2f}"] * 2
        assert re.search(r"^perft 3 from startpos: 8902 leaves, [\d,]+ "
                         r"leaves/sec$", out, re.MULTILINE)

    def test_bench_times_the_comparators_own_first_layer(
            self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "small.dchs"
        save_model(init_siamese((773, 8, 4), (8, 2), seed=0), path)
        timed = []
        inner = cli.sparse_affine

        def recorded(layer, bits):
            timed.append(layer)
            return inner(layer, bits)

        monkeypatch.setattr(cli, "sparse_affine", recorded)
        assert main(["bench", "--comparator", "learned", "--model",
                     str(path), "--depth", "1"]) == 0
        assert "sparse vs dense first layer" in capsys.readouterr().out
        assert len(timed) == 2 * BENCH_PAIRS
        assert len({id(layer) for layer in timed}) == 1
        assert timed[0].weights.flags.f_contiguous

    def test_bench_refuses_a_model_of_the_wrong_width(self, tmp_path,
                                                       capsys):
        path = tmp_path / "w500.dchs"
        save_model(init_siamese((500, 8, 4), (8, 2), seed=0), path)
        assert main(["bench", "--comparator", "learned", "--model",
                     str(path), "--depth", "1"]) == 2
        captured = capsys.readouterr()
        assert "calls/sec" not in captured.out
        assert ("DimensionMismatch: model input width 500, but a position "
                "encodes to 773 bits") in captured.err

    def test_audit_material_acyclic(self, capsys):
        assert main(["audit", "--comparator", "material",
                     "--positions", "40", "--triples", "200"]) == 0
        assert "0 cycles in 200" in capsys.readouterr().out


def loop_playouts(n, seed, min_ply=8, max_ply=60):
    """The playout loop `_playouts` ran before it used `random_playout`."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        p = startpos()
        for ply in range(max_ply):
            moves = legal_moves(p)
            if not moves:
                break
            p = apply_move(p, rng.choice(moves))
            if ply >= min_ply:
                out.append(p)
                if len(out) >= n:
                    break
    return out


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_playouts_draw_as_the_old_loop(seed):
    got = [to_fen(p) for p in _playouts(300, seed)]
    assert got == [to_fen(p) for p in loop_playouts(300, seed)]
    assert len(got) == 300
