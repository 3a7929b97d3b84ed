"""Labeled positions from decisive games, and the dataset file format.

Sampling rules: up to k positions per decisive game, drawn uniformly
without replacement from the eligible plies; a ply is eligible when the
position's fullmove number is past the opening cutoff and the move
actually played from it is not a capture (en passant included). Draws
contribute nothing. Labels are W/L from White's final result.

Binary dataset file ("DCDS", version 1, little-endian): header then
fixed 104-byte records = 97 bytes of packed vector bits + 1 label byte
+ u32 game id + u16 ply.
"""

from __future__ import annotations

import random
import struct
from enum import IntEnum
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .board import GameOutcome, Position, apply_move, startpos
from .encoding import PACKED_BYTES, encode, pack_vector, unpack_vector
from .fileformat import read_exact, read_header, write_header

DATASET_MAGIC = b"DCDS"
DATASET_VERSION = 1
RECORD_BYTES = PACKED_BYTES + 1 + 4 + 2


class Label(IntEnum):
    L = 0  # from a game White lost
    W = 1  # from a game White won


class LabeledPosition(NamedTuple):
    vector: np.ndarray  # uint8, length 773
    label: Label
    source_game_id: int
    ply: int


class SplitDataset(NamedTuple):
    train_W: list
    train_L: list
    val_W: list
    val_L: list
    seed: int


class InsufficientData(ValueError):
    pass


def eligible_plies(moves, start: Optional[Position] = None,
                   opening_cutoff: int = 5) -> list[int]:
    """Indices i such that the position before moves[i] passes the filters:
    its fullmove number is past `opening_cutoff` and moves[i] is no capture.
    """
    p = start if start is not None else startpos()
    out = []
    for i, move in enumerate(moves):
        if p.fullmove_number > opening_cutoff and not move.capture:
            out.append(i)
        p = apply_move(p, move)
    return out


def extract_positions(moves, outcome: GameOutcome, rng: random.Random,
                      k: int = 10, game_id: int = 0,
                      start: Optional[Position] = None,
                      opening_cutoff: int = 5) -> list[LabeledPosition]:
    """Sample up to k labeled positions from one decisive game.

    Returns an empty list when no ply is eligible. Draws and unknown
    results must be filtered by the caller.
    """
    if outcome not in (GameOutcome.WHITE_WINS, GameOutcome.BLACK_WINS):
        raise ValueError("only decisive games carry labels")
    chosen = eligible_plies(moves, start, opening_cutoff)
    if not chosen:
        return []
    if len(chosen) > k:
        chosen = rng.sample(chosen, k)
    chosen.sort()
    label = Label.W if outcome == GameOutcome.WHITE_WINS else Label.L

    out = []
    p = start if start is not None else startpos()
    want = iter(chosen)
    next_ply = next(want)
    for i, move in enumerate(moves):
        if i == next_ply:
            out.append(LabeledPosition(encode(p), label, game_id, i))
            next_ply = next(want, None)
            if next_ply is None:
                break
        p = apply_move(p, move)
    return out


def split(positions: Iterable[LabeledPosition], val_per_class: int,
          seed: int) -> SplitDataset:
    """Deterministic class-wise split; validation drawn uniformly."""
    wins = [x for x in positions if x.label == Label.W]
    losses = [x for x in positions if x.label == Label.L]
    if len(wins) <= val_per_class or len(losses) <= val_per_class:
        raise InsufficientData(
            f"need > {val_per_class} per class, have W={len(wins)} L={len(losses)}")
    rng = random.Random(seed)
    rng.shuffle(wins)
    rng.shuffle(losses)
    return SplitDataset(train_W=wins[val_per_class:], train_L=losses[val_per_class:],
                        val_W=wins[:val_per_class], val_L=losses[:val_per_class],
                        seed=seed)


def class_matrix(positions: list[LabeledPosition]) -> np.ndarray:
    """Stack vectors into one uint8 matrix for vectorized training."""
    return np.stack([x.vector for x in positions]).astype(np.uint8)


def save_positions(path, positions: Iterable[LabeledPosition]) -> int:
    count = 0
    with open(path, "wb") as f:
        write_header(f, DATASET_MAGIC, DATASET_VERSION)
        for x in positions:
            f.write(pack_vector(x.vector))
            f.write(struct.pack("<BIH", int(x.label), x.source_game_id, x.ply))
            count += 1
    return count


def iter_positions(path) -> Iterator[LabeledPosition]:
    with open(path, "rb") as f:
        read_header(f, DATASET_MAGIC, DATASET_VERSION)
        while True:
            head = f.read(1)
            if not head:
                return
            record = head + read_exact(f, RECORD_BYTES - 1, "dataset record")
            vector = unpack_vector(record[:PACKED_BYTES])
            label, game_id, ply = struct.unpack("<BIH", record[PACKED_BYTES:])
            yield LabeledPosition(vector, Label(label), game_id, ply)


def load_positions(path) -> list[LabeledPosition]:
    return list(iter_positions(path))
