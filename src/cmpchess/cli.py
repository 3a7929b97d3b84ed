"""Command-line entry point.

Subcommands cover the whole pipeline: `extract` labeled positions from
PGN, `pretrain` the feature extractor, `train` the pairwise comparator,
`distill` it into a smaller network, then `play` (UCI), `match`,
`bench`, and `audit` to operate the result.

Configuration files are flat `key = value` text with `#` comments;
unknown keys are refused and command-line flags override file values.
Exit codes: 0 success, 1 usage/configuration error, 2 engine failure.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from dataclasses import fields
from itertools import islice
from typing import Optional

from .board import GameOutcome, perft, random_playout, startpos
from .dataset import (
    InsufficientData, extract_positions, load_positions, save_positions,
    split,
)
from .encoding import active_bits, encode
from .inference import audit_consistency, sparse_affine
from .match import EngineFailure, MatchSpec, run_match
from .nn.io import load_extractor, load_model, save_extractor, save_model
from .nn.train import (
    STUDENT_EXTRACTOR_DIMS, STUDENT_HEAD_SIZES, TEACHER_EXTRACTOR_DIMS,
    TEACHER_HEAD_SIZES, TrainConfig, distill, pretrain_pos2vec,
    train_deepchess,
)
from .pgn import parse_pgn
from .search import SearchLimits, search_root
from .uci import COMPARATORS, EngineConfig, build_comparator, uci_loop


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise UsageError(message)


# ---------------------------------------------------------------- config

_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}

ENGINE_KEYS = tuple(f.name for f in fields(EngineConfig))
MATCH_KEYS = ("games", "max_plies", "time_per_game", "openings",
              "alternate_colors", "pgn_out")


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines; `#` starts a comment; blanks ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path) as f:
            return parse_config_text(f.read())
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    try:
        return _BOOLS[str(value).strip().lower()]
    except KeyError:
        raise UsageError(f"expected a boolean, got {value!r}") from None


def engine_config_from(cfg: dict, prefix: str = "",
                       overrides: Optional[dict] = None) -> EngineConfig:
    """EngineConfig from flat config keys like `<prefix>comparator`.

    Every key under `prefix` must be one of ENGINE_KEYS.
    """
    merged = {key[len(prefix):]: value for key, value in cfg.items()
              if key.startswith(prefix)}
    for key in merged:
        if key not in ENGINE_KEYS:
            raise UsageError(f"unknown config key {prefix + key!r}")
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    try:
        return EngineConfig(
            model_path=merged.get("model_path") or None,
            cache_mb=float(merged.get("cache_mb", 32.0)),
            comparator=str(merged.get("comparator", "material")),
            seed=int(merged.get("seed", 0)),
            max_depth=int(merged.get("max_depth", 64)))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _dims(text: str) -> tuple:
    try:
        parsed = tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")
    if not parsed:
        raise UsageError("empty dimension list")
    return parsed


def _train_config(args, epochs, lr) -> TrainConfig:
    try:
        return TrainConfig(initial_lr=lr, lr_decay_per_epoch=args.lr_decay,
                           epochs=epochs,
                           pairs_per_epoch=getattr(args, "pairs_per_epoch", 1),
                           minibatch=args.minibatch, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ------------------------------------------------------------- pipeline

def cmd_extract(args) -> int:
    rng = random.Random(args.seed)
    kept = []
    games = decisive = 0
    malformed = []  # (path, MalformedPGN) per skipped game
    for path in args.pgn:
        with open(path) as f:
            for game in parse_pgn(
                    f, on_malformed=lambda err: malformed.append((path, err))):
                games += 1
                if game.outcome not in (GameOutcome.WHITE_WINS,
                                        GameOutcome.BLACK_WINS):
                    continue
                decisive += 1
                kept.extend(extract_positions(
                    game.moves, game.outcome, rng, k=args.per_game,
                    game_id=decisive, start=game.start,
                    opening_cutoff=args.opening_cutoff))
                if args.max_games and decisive >= args.max_games:
                    break
        if args.max_games and decisive >= args.max_games:
            break
    if malformed:
        path, err = malformed[0]
        print(f"skipped malformed game in {path}: {err}", file=sys.stderr)
    count = save_positions(args.out, kept)
    print(f"read {games} games ({decisive} decisive), "
          f"skipped {len(malformed)} malformed, "
          f"wrote {count} positions to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    positions = load_positions(args.data)
    if args.limit:
        positions = positions[:args.limit]
    if not positions:
        raise UsageError(f"no positions in {args.data}")
    cfg = _train_config(args, args.epochs, args.lr)
    dims = _dims(args.dims)
    print(f"pretraining {'-'.join(map(str, dims))} "
          f"on {len(positions)} positions, {cfg.epochs} epochs/stage")
    extractor, logs = pretrain_pos2vec(positions, cfg, dims=dims)
    for stage, log in enumerate(logs):
        tail = f"final loss {log[-1]:.6f}" if log else "untrained"
        print(f"  stage {stage}: {dims[stage]}->{dims[stage + 1]} {tail}")
    save_extractor(extractor, args.out)
    print(f"saved extractor to {args.out}")
    return 0


def cmd_train(args) -> int:
    positions = load_positions(args.data)
    ds = split(positions, args.val_per_class, args.seed)
    init = load_extractor(args.extractor)
    cfg = _train_config(args, args.epochs, args.lr)
    net, log = train_deepchess(ds, init, cfg, head_sizes=_dims(args.head),
                               val_pairs=args.val_pairs)
    for s in log:
        print(f"  epoch {s.epoch} lr {s.lr:.5f} loss {s.mean_loss:.4f} "
              f"train {s.train_accuracy:.3f} val {s.val_accuracy:.3f}")
    save_model(net, args.out)
    print(f"saved model to {args.out}"
          + (f" (val accuracy {log[-1].val_accuracy:.3f})" if log else ""))
    return 0


def cmd_distill(args) -> int:
    teacher = load_model(args.model)
    positions = load_positions(args.data)
    ds = split(positions, args.val_per_class, args.seed)
    cfg1 = _train_config(args, args.epochs1, args.lr1)
    cfg2 = _train_config(args, args.epochs2,
                         args.lr2 if args.lr2 is not None else args.lr1)
    student, logs = distill(
        teacher, positions, ds, cfg1, cfg2,
        extractor_dims=_dims(args.dims), head_sizes=_dims(args.head),
        freeze_extractor_stage2=args.freeze_extractor)
    if logs["stage1"]:
        print(f"  stage 1 (feature regression): "
              f"loss {logs['stage1'][0]:.6f} -> {logs['stage1'][-1]:.6f}")
    if logs["stage2"]:
        print(f"  stage 2 (soft targets): "
              f"loss {logs['stage2'][0]:.6f} -> {logs['stage2'][-1]:.6f}")
    save_model(student, args.out)
    print(f"saved student model to {args.out}")
    return 0


# ------------------------------------------------------------ operation

def _engine_args(args, prefix: str = "") -> dict:
    get = lambda name: getattr(args, name, None)  # noqa: E731
    return {"comparator": get(prefix + "comparator"),
            "model_path": get(prefix + "model"),
            "cache_mb": get(prefix + "cache_mb"),
            "seed": get(prefix + "engine_seed"),
            "max_depth": get(prefix + "max_depth")}


def cmd_play(args) -> int:
    cfg = engine_config_from(load_config(args.config),
                             overrides=_engine_args(args))
    uci_loop(cfg)
    return 0


def cmd_match(args) -> int:
    cfg = load_config(args.config)
    for key in cfg:
        if not key.startswith(("a.", "b.")) and key not in MATCH_KEYS:
            raise UsageError(f"unknown config key {key!r}")
    engine_a = engine_config_from(cfg, "a.")
    engine_b = engine_config_from(cfg, "b.")
    openings = None
    if cfg.get("openings"):
        with open(cfg["openings"]) as f:
            openings = [line.split("#", 1)[0].strip()
                        for line in f if line.split("#", 1)[0].strip()]
    time_per_game = None
    if cfg.get("time_per_game"):
        time_per_game = _clock(cfg["time_per_game"])
    else:
        # without a clock every move searches to the engine's max_depth,
        # so an unset depth would never finish a move
        for label, engine in (("a", engine_a), ("b", engine_b)):
            if engine.max_depth > 16:
                raise UsageError(
                    f"{label}.max_depth = {engine.max_depth}: set "
                    f"{label}.max_depth <= 16 or give time_per_game")
    try:
        spec = MatchSpec(
            engines=(engine_a, engine_b),
            games=int(args.games if args.games is not None
                      else cfg.get("games", 2)),
            time_per_game=time_per_game,
            openings=openings,
            alternate_colors=_as_bool(cfg.get("alternate_colors", True)),
            max_plies=int(cfg.get("max_plies", 400)))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    report = run_match(spec)
    wins, losses, draws = report.score
    print(f"engine A: +{wins} -{losses} ={draws} "
          f"({report.points_fraction:.3f} points)")
    print("elo difference: "
          + (f"{report.elo_diff:+.1f}" if report.elo_diff is not None
             else "undefined (shutout)"))
    for i, reason in enumerate(report.reasons, start=1):
        print(f"  game {i}: {reason}")
    pgn_out = args.pgn_out or cfg.get("pgn_out")
    if pgn_out:
        with open(pgn_out, "w") as f:
            f.write(report.pgn)
        print(f"wrote PGN to {pgn_out}")
    return 0


def _clock(text: str) -> tuple:
    """`time_per_game`: seconds per side, one value for both or `a, b`."""
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if not (1 <= len(parts) <= 2
            and all(math.isfinite(x) and x > 0 for x in parts)):
        raise UsageError(f"time_per_game = {text}: expected one or two "
                         f"positive numbers of seconds")
    return parts[0], parts[-1]


def _playouts(n: int, seed: int, min_ply: int = 8, max_ply: int = 60) -> list:
    """Positions sampled from random legal playouts (middlegame-ish)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        # islice stops before drawing a move past the last position kept
        out.extend(islice(random_playout(startpos(), max_ply, rng),
                          min_ply, min_ply + n - len(out)))
    return out


# distinct position pairs `bench` times comparator calls over
BENCH_PAIRS = 1000


def cmd_bench(args) -> int:
    cfg = engine_config_from(load_config(args.config),
                             overrides=_engine_args(args))
    positions = _playouts(2 * BENCH_PAIRS, args.seed)
    pairs = list(zip(positions[::2], positions[1::2]))

    def classify(comparator, label):
        began = time.perf_counter()
        for a, b in pairs:
            comparator(a, b)
        took = time.perf_counter() - began
        print(f"comparator calls/sec ({label}): {len(pairs) / took:,.0f}")

    classify(build_comparator(cfg), "cold")
    warm = build_comparator(cfg)
    for a, b in pairs:
        warm(a, b)
    classify(warm, "cached")

    if cfg.comparator == "learned":
        # the column-major first layer the comparator itself reads
        first = warm.net.extractor.layers[0]
        began = time.perf_counter()
        for p in positions:
            sparse_affine(first, active_bits(p))
        sparse_t = time.perf_counter() - began
        dtype = first.weights.dtype
        began = time.perf_counter()
        for p in positions:
            first.weights @ encode(p).astype(dtype) + first.bias
        dense_t = time.perf_counter() - began
        print(f"sparse vs dense first layer: {dense_t / sparse_t:.1f}x "
              f"({first.in_dim}->{first.out_dim})")

    began = time.perf_counter()
    leaves = perft(startpos(), 3)
    took = time.perf_counter() - began
    print(f"perft 3 from startpos: {leaves} leaves, "
          f"{leaves / took:,.0f} leaves/sec")

    limits = SearchLimits(max_depth=args.depth)
    comparator = build_comparator(cfg)
    counts = []
    for run in range(2):
        calls_before = comparator.calls
        began = time.perf_counter()
        result = search_root(startpos(), limits, comparator)
        took = time.perf_counter() - began
        calls = comparator.calls - calls_before
        counts.append(result.nodes)
        print(f"search run {run + 1}: depth {result.depth_reached}, "
              f"{result.nodes} nodes, {result.nodes / took:,.0f} nodes/sec, "
              f"{calls / result.nodes:.2f} comparator calls/node, "
              f"{result.cache_hits} cache hits")
    print("deterministic node counts: "
          + ("yes" if counts[0] == counts[1] else "NO"))
    return 0


def cmd_audit(args) -> int:
    cfg = engine_config_from(load_config(args.config),
                             overrides=_engine_args(args))
    positions = _playouts(args.positions, args.seed)
    report = audit_consistency(build_comparator(cfg), positions,
                               triples=args.triples, seed=args.seed)
    print(f"{report.cycles} cycles in {report.triples} sampled triples "
          f"(rate {report.cycle_rate:.4f})")
    return 0


# ----------------------------------------------------------------- main

def _add_engine_flags(sub, with_config=True):
    if with_config:
        sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--comparator", choices=COMPARATORS)
    sub.add_argument("--model", dest="model", help="model file for the "
                     "learned comparator")
    sub.add_argument("--cache-mb", dest="cache_mb", type=float)
    sub.add_argument("--engine-seed", dest="engine_seed", type=int)
    sub.add_argument("--max-depth", dest="max_depth", type=int)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cmpchess",
                     description="pairwise-comparison chess engine and "
                                 "training pipeline")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("extract", help="sample labeled positions from PGN")
    p.add_argument("--pgn", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-game", type=int, default=10)
    p.add_argument("--opening-cutoff", type=int, default=5)
    p.add_argument("--max-games", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_extract)

    p = subs.add_parser("pretrain", help="layer-wise autoencoder pretraining")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dims", default=",".join(map(str, TEACHER_EXTRACTOR_DIMS)))
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--lr-decay", type=float, default=0.98)
    p.add_argument("--minibatch", type=int, default=128)
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pretrain)

    p = subs.add_parser("train", help="pairwise supervised training")
    p.add_argument("--data", required=True)
    p.add_argument("--extractor", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--head", default=",".join(map(str, TEACHER_HEAD_SIZES)))
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--pairs-per-epoch", type=int, default=1_000_000)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--lr-decay", type=float, default=0.99)
    p.add_argument("--minibatch", type=int, default=128)
    p.add_argument("--val-per-class", type=int, default=1000)
    p.add_argument("--val-pairs", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("distill", help="compress a model into a smaller one")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dims", default=",".join(map(str, STUDENT_EXTRACTOR_DIMS)))
    p.add_argument("--head", default=",".join(map(str, STUDENT_HEAD_SIZES)))
    p.add_argument("--epochs1", type=int, default=200)
    p.add_argument("--epochs2", type=int, default=200)
    p.add_argument("--lr1", type=float, default=0.01)
    p.add_argument("--lr2", type=float, default=None)
    p.add_argument("--lr-decay", type=float, default=0.99)
    p.add_argument("--pairs-per-epoch", type=int, default=100_000)
    p.add_argument("--minibatch", type=int, default=128)
    p.add_argument("--val-per-class", type=int, default=1000)
    p.add_argument("--freeze-extractor", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_distill)

    p = subs.add_parser("play", help="run the UCI protocol on stdin/stdout")
    _add_engine_flags(p)
    p.set_defaults(func=cmd_play)

    p = subs.add_parser("match", help="play an engine-vs-engine match")
    p.add_argument("--config", required=True,
                   help="config with a.* / b.* engine keys and match keys")
    p.add_argument("--games", type=int,
                   help="games to play (overrides the config; default 2)")
    p.add_argument("--pgn-out", dest="pgn_out",
                   help="write the games here (overrides the config)")
    p.set_defaults(func=cmd_match)

    p = subs.add_parser("bench", help="throughput and determinism report")
    _add_engine_flags(p)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("audit", help="sample comparator consistency cycles")
    _add_engine_flags(p)
    p.add_argument("--positions", type=int, default=100)
    p.add_argument("--triples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InsufficientData, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EngineFailure as exc:
        print(f"engine failure: {exc}", file=sys.stderr)
        if exc.partial_report is not None:
            wins, losses, draws = exc.partial_report.score
            print(f"partial result: +{wins} -{losses} ={draws}",
                  file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 2
    except Exception as exc:  # anything else is an engine-side failure
        print(f"engine failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
