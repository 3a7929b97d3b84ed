"""UCI engine front-end.

Implements the protocol subset an automated harness or standard GUI
needs: `uci`, `isready`, `ucinewgame`, `position`, `go` (depth,
movetime, clock times, nodes), `setoption`, `stop`, `quit`. The loop
never crashes on malformed input and never emits an illegal bestmove;
anything it cannot act on is answered with an `info string` diagnostic,
including any other `go` argument (`infinite`, `ponder`, `mate`,
`searchmoves`, ...), which is named and ignored. A search runs to its
limits before the next command is read, so `stop` finds the engine idle
and is accepted without a reply.

A clock-limited `go` budgets each move with `search.clock_limits`. A
small fraction of `movetime` is kept back so the abort check and reply
land inside the caller's window.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional, TextIO

from .board import Color, Move, Position, apply_move, legal_moves, parse_fen, \
    startpos
from .inference import (
    FeatureCache, LearnedComparator, MaterialComparator, RandomComparator,
)
from .search import SearchLimits, clock_limits, search_root

ENGINE_NAME = "cmpchess"
COMPARATORS = ("learned", "material", "random")


@dataclass
class EngineConfig:
    model_path: Optional[str] = None
    cache_mb: float = 32.0
    comparator: str = "material"
    seed: int = 0
    max_depth: int = 64  # strength/limit knob for harness play

    def __post_init__(self):
        if self.comparator not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}")
        if self.comparator == "learned" and not self.model_path:
            raise ValueError("learned comparator requires model_path")
        if self.comparator != "learned" and self.model_path:
            raise ValueError("model_path only applies to the learned "
                             "comparator")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not (math.isfinite(self.cache_mb) and self.cache_mb > 0):
            raise ValueError(f"cache_mb must be a finite number > 0, "
                             f"got {self.cache_mb}")


def build_comparator(cfg: EngineConfig):
    """Comparator (and cache, for the learned one) from a config."""
    if cfg.comparator == "material":
        return MaterialComparator()
    if cfg.comparator == "random":
        return RandomComparator(cfg.seed)
    from .nn.io import load_model
    net = load_model(cfg.model_path)
    return LearnedComparator(net, FeatureCache.from_megabytes(cfg.cache_mb))


def engine_label(cfg: EngineConfig) -> str:
    if cfg.comparator == "learned":
        return f"learned({cfg.model_path})"
    if cfg.comparator == "random":
        return f"random(seed={cfg.seed})"
    return "material"


class _Session:
    """Mutable engine state behind the protocol loop."""

    def __init__(self, cfg: EngineConfig, out: TextIO):
        self.cfg = cfg
        self.out = out
        self.position = startpos()
        self.comparator = None  # built lazily so setoption can precede it

    def say(self, text: str) -> None:
        self.out.write(text + "\n")
        self.out.flush()

    def diag(self, text: str) -> None:
        self.say(f"info string {text}")

    def ensure_comparator(self):
        if self.comparator is None:
            try:
                self.comparator = build_comparator(self.cfg)
            except Exception as exc:
                self.diag(f"comparator setup failed ({exc}); "
                          "falling back to material")
                self.comparator = MaterialComparator()
        return self.comparator


# the `go` arguments acted on; any other is named as not supported
_GO_LIMITS = ("depth", "movetime", "wtime", "btime", "winc", "binc", "nodes")


def _parse_go_limits(tokens, p: Position, default_depth: int) -> tuple:
    """(SearchLimits, unsupported): the limits `go <tokens>` asks for, and
    the tokens outside _GO_LIMITS, with any number that follows one."""
    args = {}
    unsupported = []
    i = 0
    while i < len(tokens):
        name = tokens[i]
        value = None
        if i + 1 < len(tokens):
            try:
                value = int(tokens[i + 1])
            except ValueError:
                pass
        args[name] = value
        taken = 1 if value is None else 2
        if name not in _GO_LIMITS:
            unsupported += tokens[i:i + taken]
        i += taken

    # a limit counts when it is given with a number, zero included
    nodes = args.get("nodes")  # a cap on top of any other limit
    clock, inc = (("wtime", "winc") if p.side_to_move == Color.WHITE
                  else ("btime", "binc"))
    if args.get("depth") is not None:
        limits = SearchLimits(max_depth=max(1, args["depth"]))
    elif args.get("movetime") is not None:
        # hold back 20% for the abort check and the reply itself
        budget = args["movetime"] / 1000.0 * 0.8
        limits = SearchLimits(max_depth=default_depth,
                              soft_time=budget, hard_time=budget)
    elif args.get(clock) is not None:
        limits = clock_limits(args[clock] / 1000.0, default_depth,
                              (args.get(inc) or 0) / 1000.0)
    elif nodes is not None:
        limits = SearchLimits(max_depth=default_depth)
    else:
        # bare "go": think for about a second
        limits = SearchLimits(max_depth=default_depth, soft_time=1.0,
                              hard_time=2.0)
    return replace(limits, node_cap=nodes), unsupported


def _handle_position(session: _Session, tokens: list) -> None:
    if not tokens:
        raise ValueError("position needs 'startpos' or 'fen'")
    if tokens[0] == "startpos":
        p = startpos()
        rest = tokens[1:]
    elif tokens[0] == "fen":
        try:
            cut = tokens.index("moves")
            fen_fields, rest = tokens[1:cut], tokens[cut:]
        except ValueError:
            fen_fields, rest = tokens[1:], []
        p = parse_fen(" ".join(fen_fields))
    else:
        raise ValueError(f"unknown position kind {tokens[0]!r}")
    if rest:
        if rest[0] != "moves":
            raise ValueError(f"expected 'moves', got {rest[0]!r}")
        for uci in rest[1:]:
            p = apply_move(p, Move.from_uci(uci))
    session.position = p


_SPIN_OPTIONS = {"cachemb": "cache_mb", "seed": "seed",
                 "maxdepth": "max_depth"}


def _handle_setoption(session: _Session, tokens: list) -> None:
    # setoption name <id ...> [value <x ...>]
    if not tokens or tokens[0] != "name":
        raise ValueError("setoption needs 'name'")
    if "value" in tokens:
        cut = tokens.index("value")
        name = " ".join(tokens[1:cut]).strip().lower()
        value = " ".join(tokens[cut + 1:]).strip()
    else:
        name = " ".join(tokens[1:]).strip().lower()
        value = ""
    cfg = session.cfg
    if name in _SPIN_OPTIONS:
        number = float(value) if name == "cachemb" else int(value)
        session.cfg = replace(cfg, **{_SPIN_OPTIONS[name]: number})
    elif name == "comparator":
        value = value.lower()
        path = cfg.model_path if value == "learned" else None
        session.cfg = replace(cfg, comparator=value, model_path=path)
    elif name == "modelpath":
        session.cfg = replace(cfg, model_path=value or None,
                              comparator="learned" if value
                              else cfg.comparator)
    else:
        raise ValueError(f"unknown option {name!r}")
    session.comparator = None  # rebuild with the new settings


def _handle_go(session: _Session, tokens: list) -> None:
    p = session.position
    moves = legal_moves(p)
    if not moves:
        session.diag("no legal moves in the current position")
        session.say("bestmove 0000")
        return
    limits, unsupported = _parse_go_limits(tokens, p, session.cfg.max_depth)
    if unsupported:
        session.diag(f"go: not supported, ignored: {' '.join(unsupported)}")
    cmp = session.ensure_comparator()
    try:
        began = time.monotonic()
        result = search_root(p, limits, cmp)
        ms = int((time.monotonic() - began) * 1000)
        best = result.best_move
        session.say(f"info depth {result.depth_reached} "
                    f"nodes {result.nodes} time {ms} "
                    f"nps {result.nodes * 1000 // max(ms, 1)} "
                    f"pv {' '.join(m.uci() for m in result.line)}")
    except Exception as exc:  # never fail to answer; fall back to any move
        session.diag(f"search failed ({exc}); playing first legal move")
        best = moves[0]
    session.say(f"bestmove {best.uci()}")


def uci_loop(cfg: EngineConfig, inp: TextIO | None = None,
             out: TextIO | None = None) -> None:
    if inp is None:
        inp = sys.stdin
    if out is None:
        out = sys.stdout
    session = _Session(cfg, out)
    for raw in inp:
        tokens = raw.split()
        if not tokens:
            continue
        cmd, rest = tokens[0], tokens[1:]
        try:
            if cmd == "quit":
                return
            elif cmd == "uci":
                from . import __version__
                session.say(f"id name {ENGINE_NAME} {__version__}")
                session.say(f"id author the {ENGINE_NAME} developers")
                session.say("option name CacheMB type spin default 32 "
                            "min 1 max 4096")
                session.say("option name Comparator type combo "
                            "default material var material var random "
                            "var learned")
                session.say("option name ModelPath type string default ")
                session.say("option name Seed type spin default 0 "
                            "min 0 max 999999999")
                session.say("option name MaxDepth type spin default 64 "
                            "min 1 max 64")
                session.say("uciok")
            elif cmd == "isready":
                session.ensure_comparator()
                session.say("readyok")
            elif cmd == "ucinewgame":
                session.position = startpos()
                session.comparator = None  # fresh cache for a fresh game
            elif cmd == "position":
                _handle_position(session, rest)
            elif cmd == "go":
                _handle_go(session, rest)
            elif cmd == "setoption":
                _handle_setoption(session, rest)
            elif cmd == "stop":
                pass  # `go` returns before the next command is read
            else:
                session.diag(f"unknown command {cmd!r}")
        except Exception as exc:
            session.diag(f"{cmd} failed: {exc}")
