"""UCI protocol loop: handshake, position/go handling, robustness."""

import io
import random
import time

import numpy as np
import pytest

from cmpchess import inference, uci
from cmpchess.board import Move, apply_move, legal_moves, parse_fen, \
    startpos
from cmpchess.inference import MaterialComparator
from cmpchess.nn import init_siamese, save_model
from cmpchess.search import SearchLimits, clock_limits
from cmpchess.uci import EngineConfig, _Session, _handle_position, \
    _parse_go_limits, build_comparator, engine_label, uci_loop


def run_lines(lines, cfg=None):
    out = io.StringIO()
    uci_loop(cfg or EngineConfig(), iter([l + "\n" for l in lines]), out)
    return out.getvalue().splitlines()


def bestmoves(output):
    return [line.split()[1] for line in output
            if line.startswith("bestmove")]


class TestHandshake:
    def test_uci_identification(self):
        out = run_lines(["uci", "isready", "quit"])
        assert any(line.startswith("id name") for line in out)
        assert any(line.startswith("id author") for line in out)
        assert "uciok" in out
        assert "readyok" in out
        options = [l for l in out if l.startswith("option name")]
        assert len(options) >= 4

    def test_loop_ends_on_eof(self):
        assert run_lines(["isready"]) == ["readyok"]

    def test_default_options(self):
        options = [l for l in run_lines(["uci", "quit"])
                   if l.startswith("option name")]
        assert options == [
            "option name CacheMB type spin default 32 min 1 max 4096",
            "option name Comparator type combo default material "
            "var material var random var learned",
            "option name ModelPath type string default ",
            "option name Seed type spin default 0 min 0 max 999999999",
            "option name MaxDepth type spin default 64 min 1 max 64"]

    def test_options_advertise_the_session_config(self, tmp_path):
        path = tmp_path / "net.dchs"
        save_model(init_siamese((773, 8, 4), (8, 2), seed=0), path)
        cfg = EngineConfig(comparator="learned", model_path=str(path),
                           cache_mb=0.5, seed=7, max_depth=8)
        out = run_lines(["uci", "setoption name MaxDepth value 5", "uci",
                         "quit"], cfg)
        defaults = [line.split(" default ")[1] for line in out
                    if line.startswith("option name")]
        assert defaults == [
            "0.5 min 1 max 4096",
            "learned var material var random var learned", str(path),
            "7 min 0 max 999999999", "8 min 1 max 64",
            "0.5 min 1 max 4096",
            "learned var material var random var learned", str(path),
            "7 min 0 max 999999999", "5 min 1 max 64"]


class TestPositionAndGo:
    def test_startpos_go_depth_one(self):
        out = run_lines(["position startpos", "go depth 1", "quit"])
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(startpos())

    def test_moves_are_applied(self):
        out = run_lines(["position startpos moves e2e4 e7e5",
                         "go depth 1", "quit"])
        p = startpos()
        for uci in ("e2e4", "e7e5"):
            p = apply_move(p, Move.from_uci(uci))
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(p)

    def test_info_line_reports_rate_and_line(self):
        out = run_lines(["position startpos moves e2e4 e7e5",
                         "go depth 3", "quit"])
        (info,) = [line for line in out if line.startswith("info depth")]
        fields = info.split()
        assert fields[0] == "info"
        assert fields[1:10:2] == ["depth", "nodes", "time", "nps", "pv"]
        depth, nodes, ms, nps = (int(fields[i]) for i in (2, 4, 6, 8))
        assert depth == 3 and nodes > 0 and ms >= 0
        assert nps == nodes * 1000 // max(ms, 1)
        pv = fields[10:]
        assert 1 <= len(pv) <= depth
        p = startpos()
        for uci in ("e2e4", "e7e5"):
            p = apply_move(p, Move.from_uci(uci))
        for uci in pv:
            p = apply_move(p, Move.from_uci(uci))  # raises if not legal
        assert pv[0] == bestmoves(out)[0]

    def test_fen_position(self):
        fen = "k7/8/8/3q4/4P3/8/8/K7 w - - 0 1"
        out = run_lines([f"position fen {fen}", "go depth 1", "quit"])
        assert bestmoves(out) == ["e4d5"]

    def test_mate_in_one_at_depth_two(self):
        fen = "6k1/5ppp/8/8/8/8/8/K3R3 w - - 0 1"
        out = run_lines([f"position fen {fen}", "go depth 2", "quit"])
        assert bestmoves(out) == ["e1e8"]

    def test_terminal_position_answers_null_move(self):
        fen = "R5k1/5ppp/8/8/8/8/8/K7 b - - 0 1"
        out = run_lines([f"position fen {fen}", "go depth 2", "quit"])
        assert bestmoves(out) == ["0000"]

    def test_ucinewgame_resets_to_startpos(self):
        out = run_lines(["position startpos moves e2e4", "ucinewgame",
                         "go depth 1", "quit"])
        (bm,) = bestmoves(out)
        # after the reset White is to move again
        assert Move.from_uci(bm) in legal_moves(startpos())

    def test_movetime_is_respected(self):
        go_at = {}

        def feed():
            for line in ("position startpos\n", "go movetime 100\n",
                         "quit\n"):
                if line.startswith("go"):
                    go_at["t"] = time.monotonic()
                yield line

        class TimedOut(io.StringIO):
            def write(self, text):
                if text.startswith("bestmove"):
                    go_at["answered"] = time.monotonic()
                return super().write(text)

        out = TimedOut()
        uci_loop(EngineConfig(), feed(), out)
        assert "answered" in go_at
        assert go_at["answered"] - go_at["t"] < 0.25
        (bm,) = bestmoves(out.getvalue().splitlines())
        assert Move.from_uci(bm) in legal_moves(startpos())

    def test_clock_time_management(self):
        began = time.monotonic()
        out = run_lines(["position startpos",
                         "go wtime 3000 btime 3000 winc 100 binc 100",
                         "quit"])
        took = time.monotonic() - began
        assert len(bestmoves(out)) == 1
        assert took < 1.0  # soft limit is 3000/30 + 100/2 = 150 ms

    def test_negative_clock_still_answers(self):
        # an overdrawn clock gets the smallest budget, not an error
        out = run_lines(["position startpos", "go wtime -3000 btime -3000",
                         "quit"])
        assert not any("go failed" in line for line in out)
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(startpos())


class TestMaterialScoreMemo:
    """One session keeps one MaterialComparator across searches; its
    score memo is cleared at a fixed size instead of growing."""

    LINES = ["position startpos", "go depth 3",
             "position startpos moves e2e4 e7e5", "go depth 3",
             "position startpos moves e2e4 e7e5 g1f3 b8c6", "go depth 3",
             "position startpos moves d2d4 d7d5 c2c4", "go depth 3", "quit"]

    def session(self, monkeypatch):
        sizes = []

        class Watched(MaterialComparator):
            def _score(self, p):
                score = super()._score(p)
                sizes.append(len(self._scores))
                return score

        monkeypatch.setattr(uci, "build_comparator", lambda cfg: Watched())
        return bestmoves(run_lines(self.LINES)), sizes

    def test_memo_bounded_and_best_moves_unchanged(self, monkeypatch):
        moves, sizes = self.session(monkeypatch)
        assert max(sizes) < inference._SCORES_LIMIT  # never cleared
        limit = max(sizes) // 4
        monkeypatch.setattr(inference, "_SCORES_LIMIT", limit)
        bounded_moves, bounded_sizes = self.session(monkeypatch)
        assert len(bounded_moves) == 4
        assert bounded_moves == moves
        assert max(bounded_sizes) <= limit
        assert bounded_sizes.count(1) >= 4  # cleared, then refilled


def go_limits(command, p=None, default_depth=64):
    limits, _ = _parse_go_limits(command.split()[1:], p or startpos(),
                                 default_depth)
    return limits


class TestGoLimits:
    def test_depth_zero_clamps_to_one(self):
        limits = go_limits("go depth 0")
        assert limits.max_depth == 1
        assert limits.soft_time is None and limits.hard_time is None

    def test_depth_zero_searches_one_ply(self):
        out = run_lines(["position startpos", "go depth 0", "quit"])
        assert any(line.startswith("info depth 1 ") for line in out)
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(startpos())

    def test_movetime_zero_is_the_smallest_budget(self):
        limits = go_limits("go movetime 0")
        assert limits.soft_time == limits.hard_time == 0.0

    def test_zero_clock_goes_through_clock_limits(self):
        assert go_limits("go wtime 0 btime 0") == clock_limits(0.0, 64)
        assert go_limits("go wtime 0 btime 0").hard_time < 0.001

    def test_increment_raises_soft_time(self):
        plain = go_limits("go wtime 3000 btime 3000")
        with_inc = go_limits("go wtime 3000 btime 3000 winc 100000 "
                             "binc 100000")
        assert with_inc.soft_time > plain.soft_time
        assert with_inc.hard_time <= 1.5
        assert with_inc.soft_time <= with_inc.hard_time

    def test_black_reads_its_own_clock_and_increment(self):
        black = parse_fen("rnbqkbnr/pppppppp/8/8/4P3/8/PPPP1PPP/RNBQKBNR "
                          "b KQkq e3 0 1")
        limits = go_limits("go wtime 1 btime 3000 winc 0 binc 600", black)
        assert limits == clock_limits(3.0, 64, 0.6)
        assert limits.soft_time == pytest.approx(0.1 + 0.3)

    def test_nodes_sets_the_node_cap(self):
        assert go_limits("go nodes 1000") == SearchLimits(max_depth=64,
                                                          node_cap=1000)
        assert go_limits("go depth 3 nodes 50") == SearchLimits(
            max_depth=3, node_cap=50)
        assert go_limits("go movetime 500 nodes 0").node_cap == 0
        assert go_limits("go").node_cap is None

    def test_nodes_caps_the_search(self):
        out = run_lines(["position startpos", "go depth 5 nodes 100",
                         "quit"])
        (info,) = [line for line in out if line.startswith("info depth")]
        assert int(info.split()[2]) < 5
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(startpos())

    @pytest.mark.parametrize("tokens, limits, ignored", [
        (["depth"], None, ["depth"]),
        (["depth", "x"], None, ["depth", "x"]),
        (["movetime"], None, ["movetime"]),
        (["wtime", "btime", "5000"], None, ["wtime"]),
        (["nodes", "depth", "2"], SearchLimits(max_depth=2), ["nodes"]),
        (["depth", "3", "depth"], SearchLimits(max_depth=3), ["depth"]),
    ], ids=["depth", "depth-x", "movetime", "wtime", "nodes", "repeated"])
    def test_limit_without_an_integer_is_named(self, tokens, limits,
                                               ignored):
        bare = go_limits("go")
        assert _parse_go_limits(tokens, startpos(), 64) \
            == (limits or bare, ignored)

    def test_limit_without_an_integer_is_diagnosed(self):
        out = run_lines(["position startpos", "go depth x nodes 50",
                         "quit"])
        notes = [l for l in out if l.startswith("info string")]
        assert notes == ["info string go: no integer after depth, ignored",
                         "info string go: not supported, ignored: x"]
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(startpos())

    def test_no_increment_keeps_the_old_budget(self):
        for remaining in (-1.0, 0.0, 0.5, 3.0, 60.0):
            soft = max(remaining, 0.001) / 30.0
            limits = clock_limits(remaining, 64)
            assert (limits.soft_time, limits.hard_time) == (soft, 2 * soft)


class TestUnsupportedGo:
    """`go` arguments outside the documented set are named, not obeyed."""

    @pytest.mark.parametrize("command, named", [
        ("go mate 2 depth 1", "mate 2"),
        ("go ponder depth 1", "ponder"),
        ("go infinite depth 1", "infinite"),
        ("go movestogo 30 depth 1", "movestogo 30"),
        ("go searchmoves a2a3 b2b3 depth 1", "searchmoves a2a3 b2b3"),
    ])
    def test_named_once_and_searched_with_the_documented_limits(
            self, command, named):
        out = run_lines(["position startpos", command, "quit"])
        notes = [l for l in out if l.startswith("info string")]
        assert notes == [f"info string go: not supported, ignored: {named}"]
        assert any(l.startswith("info depth 1 ") for l in out)
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(startpos())
        assert _parse_go_limits(command.split()[1:], startpos(), 64) \
            == (SearchLimits(max_depth=1), named.split())

    def test_documented_arguments_are_not_named(self):
        for command in ("go depth 2", "go movetime 50", "go nodes 10",
                        "go wtime 1000 btime 1000 winc 10 binc 10"):
            assert _parse_go_limits(command.split()[1:], startpos(),
                                    64)[1] == []

    def test_idle_stop_is_accepted_silently(self):
        assert run_lines(["stop", "isready", "stop", "quit"]) == ["readyok"]


class TestSetOption:
    def test_comparator_switch(self):
        out = run_lines(["setoption name Comparator value random",
                         "position startpos", "go depth 1", "quit"])
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(startpos())

    def test_unknown_option_diagnosed(self):
        out = run_lines(["setoption name Styrofoam value 9", "quit"])
        assert any("info string" in l and "setoption" in l for l in out)

    def test_bad_model_path_falls_back(self):
        out = run_lines(["setoption name ModelPath value /no/such/file",
                         "isready", "position startpos", "go depth 1",
                         "quit"])
        assert "readyok" in out
        assert any("falling back" in l for l in out)
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(startpos())

    def test_nan_model_falls_back_to_material(self, tmp_path):
        net = init_siamese((773, 8, 4), (8, 2), seed=0)
        net.extractor.layers[1].weights[0, 0] = np.nan
        path = tmp_path / "nan.dchs"
        save_model(net, path)
        out = run_lines([f"setoption name ModelPath value {path}",
                         "isready", "position startpos", "go depth 1",
                         "quit"])
        (diag,) = [line for line in out if "falling back" in line]
        assert diag.startswith("info string") and "layer 1" in diag
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(startpos())

    @pytest.mark.parametrize("width", [500, 800])
    def test_wrong_width_model_falls_back_at_isready(self, tmp_path, width):
        path = tmp_path / f"w{width}.dchs"
        save_model(init_siamese((width, 8, 4), (8, 2), seed=0), path)
        out = run_lines([f"setoption name ModelPath value {path}",
                         "isready", "position startpos", "go depth 1",
                         "quit"])
        (diag,) = [line for line in out if line.startswith("info string")]
        assert "falling back" in diag
        assert f"model input width {width}" in diag and "773 bits" in diag
        assert out.index("readyok") > out.index(diag)
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(startpos())

    @pytest.mark.parametrize("value", ["nan", "-5", "0", "inf"])
    def test_bad_cache_size_diagnosed(self, value):
        out = run_lines([f"setoption name CacheMB value {value}",
                         "position startpos", "go depth 1", "quit"])
        (diag,) = [line for line in out if line.startswith("info string")]
        assert "setoption" in diag and "cache_mb" in diag
        (bm,) = bestmoves(out)
        assert Move.from_uci(bm) in legal_moves(startpos())

    def test_good_cache_size_accepted(self):
        out = run_lines(["setoption name CacheMB value 0.5", "quit"])
        assert not any(line.startswith("info string") for line in out)

    @pytest.mark.parametrize("name, value, noun", [
        ("Seed", "1.5", "an integer"), ("MaxDepth", "two", "an integer"),
        ("CacheMB", "lots", "a number")])
    def test_unparsed_number_diagnosed_by_option(self, name, value, noun):
        out = run_lines([f"setoption name {name} value {value}", "quit"])
        (diag,) = [line for line in out if line.startswith("info string")]
        assert diag == (f"info string setoption failed: {name} = {value}: "
                        f"expected {noun}")

    @pytest.mark.parametrize("name, value, field", [
        ("MaxDepth", "65", "max_depth"), ("Seed", "-1", "seed"),
        ("Seed", "1000000000", "seed")])
    def test_out_of_range_spin_diagnosed(self, name, value, field):
        out = run_lines([f"setoption name {name} value {value}", "uci",
                         "quit"])
        (diag,) = [line for line in out if line.startswith("info string")]
        assert "setoption" in diag and field in diag
        # the refused value leaves the setting as it was
        assert "option name Seed type spin default 0 min 0 max 999999999" \
            in out
        assert "option name MaxDepth type spin default 64 min 1 max 64" in out


class TestRobustness:
    def test_malformed_commands_are_diagnosed_not_fatal(self):
        out = run_lines(["position fen banana", "go depth 1",
                         "position startpos moves e9x9", "go depth 1",
                         "quit"])
        # both gos answered from the last good position (startpos)
        for bm in bestmoves(out):
            assert Move.from_uci(bm) in legal_moves(startpos())
        assert any("info string" in l for l in out)

    def test_fuzz_stream_survives(self):
        rng = random.Random(99)
        vocab = ["go", "position", "fen", "moves", "depth", "uci", "name",
                 "setoption", "value", "e2e4", "banana", "-1", "###",
                 "\x00\x01", "startpos", "isready", "quit"[::-1]]
        lines = []
        for i in range(2000):
            if i % 97 == 0:
                lines.append("position startpos moves d2d4")
            if i % 101 == 0:
                lines.append("go depth 1")
            lines.append(" ".join(rng.choice(vocab)
                                  for _ in range(rng.randint(0, 6))))

        # replay the same state machine to know what each go should see
        expected = []
        shadow = startpos()
        for line in lines:
            tokens = line.split()
            if tokens[:1] == ["position"]:
                try:
                    probe = _Session(EngineConfig(), io.StringIO())
                    probe.position = shadow
                    _handle_position(probe, tokens[1:])
                    shadow = probe.position
                except Exception:
                    pass
            elif tokens[:1] == ["go"]:
                expected.append(shadow)

        out = run_lines(lines + ["quit"], EngineConfig(max_depth=1))
        answers = bestmoves(out)
        assert len(answers) == len(expected)
        for bm, p in zip(answers, expected):
            assert Move.from_uci(bm) in legal_moves(p)


class TestEngineConfig:
    def test_learned_requires_model(self):
        with pytest.raises(ValueError):
            EngineConfig(comparator="learned")
        with pytest.raises(ValueError):
            EngineConfig(comparator="material", model_path="x.model")
        with pytest.raises(ValueError):
            EngineConfig(comparator="no-such")

    @pytest.mark.parametrize("field, value", [
        ("max_depth", 0), ("max_depth", 65), ("seed", -1),
        ("seed", 1_000_000_000)])
    def test_int_setting_outside_its_range_refused_by_name(self, field,
                                                           value):
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{field: value})

    @pytest.mark.parametrize("field, end", [
        (field, end) for field in uci.INT_RANGES for end in (0, 1)])
    def test_advertised_default_lies_in_its_range(self, field, end):
        value = uci.INT_RANGES[field][end]
        out = run_lines(["uci", "quit"], EngineConfig(**{field: value}))
        option = {"seed": "Seed", "max_depth": "MaxDepth"}[field]
        (line,) = [l for l in out if l.startswith(f"option name {option} ")]
        words = line.split()
        low, default, high = (int(words[words.index(k) + 1])
                              for k in ("min", "default", "max"))
        assert default == value and low <= default <= high

    def test_labels(self):
        assert engine_label(EngineConfig()) == "material"
        assert engine_label(EngineConfig(comparator="random",
                                         seed=4)) == "random(seed=4)"

    def test_build_comparator_kinds(self):
        from cmpchess.inference import MaterialComparator, RandomComparator
        assert isinstance(build_comparator(EngineConfig()),
                          MaterialComparator)
        assert isinstance(build_comparator(EngineConfig(comparator="random")),
                          RandomComparator)
