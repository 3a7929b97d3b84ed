"""773-bit network input: 12 piece planes x 64 squares + 5 state bits.

Layout (normative for the model and dataset file formats):
  bit = plane * 64 + square, planes ordered (White, Black) x (pawn, knight,
  bishop, rook, queen, king); squares a1=0..h8=63 rank-major.
  Bits 768..772 = side-to-move (1 = White), then castling rights in the
  order W-kingside, W-queenside, B-kingside, B-queenside.
En passant and the move clocks are not encoded.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .board import Color, Position, piece_plane, placement_error

VECTOR_BITS = 773
PACKED_BYTES = 97  # 773 bits zero-padded to 776, little bit order


class InconsistentVector(ValueError):
    pass


# _PLANE_BASE[cell]: the first bit of a nonzero cell's piece plane, indexed
# by the signed cell itself (-6..6, a black cell counting from the end)
_PLANE_BASE = tuple(64 * piece_plane(cell) if cell else 0
                    for cell in (*range(7), *range(-6, 0)))


def active_bits(p: Position) -> list[int]:
    """Sorted indices of the set bits of encode(p), without materializing it."""
    bits = [_PLANE_BASE[cell] + sq for sq, cell in enumerate(p.board) if cell]
    if p.side_to_move == Color.WHITE:
        bits.append(768)
    for i in range(4):
        if p.castling & (1 << i):
            bits.append(769 + i)
    bits.sort()
    return bits


def encode(p: Position) -> np.ndarray:
    """0/1 vector of length 773 (dtype uint8)."""
    v = np.zeros(VECTOR_BITS, dtype=np.uint8)
    v[active_bits(p)] = 1
    return v


class DecodedPosition(NamedTuple):
    """Partial position recovered from a vector; clocks/en-passant absent.

    `valid` is False when the placement could not belong to a legal game
    (king counts, pawns on back ranks, castling rights without home pieces:
    `board.placement_error`).
    """
    board: tuple
    side_to_move: Color
    castling: int
    valid: bool


def decode(v) -> DecodedPosition:
    v = np.asarray(v)
    if v.shape != (VECTOR_BITS,):
        raise InconsistentVector(f"expected {VECTOR_BITS} bits, got shape {v.shape}")
    cells = [0] * 64
    for plane in range(12):
        base = plane * 64
        cell = plane + 1 if plane < 6 else -(plane - 5)
        for sq in np.flatnonzero(v[base:base + 64]):
            if cells[sq]:
                raise InconsistentVector(f"square {int(sq)} claimed by two planes")
            cells[sq] = cell
    stm = Color.WHITE if v[768] else Color.BLACK
    castling = sum(1 << i for i in range(4) if v[769 + i])
    valid = placement_error(cells, castling) is None
    return DecodedPosition(tuple(cells), stm, castling, valid)


def pack_vector(v: np.ndarray) -> bytes:
    """773 bits -> 97 bytes, little bit order within each byte."""
    return np.packbits(np.asarray(v, dtype=np.uint8), bitorder="little").tobytes()


def unpack_vector(raw: bytes) -> np.ndarray:
    if len(raw) != PACKED_BYTES:
        raise InconsistentVector(f"expected {PACKED_BYTES} bytes, got {len(raw)}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    v = bits[:VECTOR_BITS].copy()
    if bits[VECTOR_BITS:].any():
        raise InconsistentVector("padding bits set")
    return v
