"""Fast evaluation path for search.

Three layers of machinery, in order of appearance: a sparse product for
the 773-input first layer (board vectors are <5% ones, so summing active
weight columns beats a dense matvec), a fixed-size feature cache keyed
by the position's Zobrist hash, and the pairwise comparison operations
the search tree is built on.

`LearnedComparator` runs these on a view of its net whose first layer
holds a column-major (Fortran-order) copy of the same weights, so the
sparse product reads each active column as one contiguous run; the
dense layers and the head are the net's own objects, run through the
cache-free `nn.layers.forward`. Every feature and logit is bit for bit
what the net itself computes.

All comparisons here are from White's perspective; callers acting for
Black invert the result. The verdict is read from the head's two output
logits, which the softmax only rescales; an exact logit tie resolves to
SecondBetter so that every comparison is decided and search stays
deterministic.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import compress
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .board import Position
from .encoding import VECTOR_BITS, active_bits
from .fileformat import DimensionMismatch
from .nn.layers import DenseLayer, RELU, forward, relu_in_place
from .nn.model import FeatureExtractor, SiameseNetwork


class IndexOutOfRange(IndexError):
    pass


class Ordering(Enum):
    FIRST_BETTER = 0
    SECOND_BETTER = 1


def sparse_affine(layer: DenseLayer, active: Sequence[int]) -> np.ndarray:
    """First-layer preactivation from the indices of the set bits alone.

    Equivalent to `W @ x + b` for the 0/1 vector with ones at `active`,
    up to 32-bit accumulation order. Empty input returns the bias
    exactly.
    """
    if len(active) == 0:
        return layer.bias.copy()
    idx = np.asarray(active, dtype=np.intp)
    if idx.min() < 0 or idx.max() >= layer.in_dim:
        raise IndexOutOfRange(
            f"bit index outside [0, {layer.in_dim}): {idx.min()}..{idx.max()}")
    return layer.weights[:, idx].sum(axis=1) + layer.bias


class FeatureCache:
    """Fixed-size position -> feature-vector cache.

    Direct-mapped: slot = key mod capacity, always-replace on collision.
    Entries are (key, vector) tuples swapped in one assignment, so
    concurrent readers can at worst see a stale miss, never a wrong hit.
    Cached vectors are frozen (non-writeable) so a hit can be handed out
    without copying.
    """

    __slots__ = ("capacity", "slots", "hits", "misses", "evictions",
                 "_filled")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.slots: list = [None] * capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._filled = 0  # occupied slots, so len() needs no scan

    # A slot holds the key plus a ~100-float32 vector; 600 bytes covers
    # the array, the tuple, and list-slot overhead well enough for a
    # size knob.
    BYTES_PER_SLOT = 600

    @classmethod
    def from_megabytes(cls, megabytes: float) -> "FeatureCache":
        return cls(max(1, int(megabytes * (1 << 20) / cls.BYTES_PER_SLOT)))

    def __len__(self) -> int:
        return self._filled

    def get(self, key: int) -> Optional[np.ndarray]:
        entry = self.slots[key % self.capacity]
        if entry is not None and entry[0] == key:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def put(self, key: int, vector: np.ndarray) -> None:
        i = key % self.capacity
        old = self.slots[i]
        if old is None:
            self._filled += 1
        elif old[0] != key:
            self.evictions += 1
        vector.setflags(write=False)
        self.slots[i] = (key, vector)

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": len(self),
                "capacity": self.capacity}


def features_of(p: Position, net: SiameseNetwork,
                cache: Optional[FeatureCache] = None) -> np.ndarray:
    """Feature vector of a position: sparse first layer, dense rest.

    With a cache, repeat queries for the same position (by Zobrist key)
    return the stored vector; cold and warm results are identical.
    """
    if cache is not None:
        hit = cache.get(p.zobrist)
        if hit is not None:
            return hit
    layers = net.extractor.layers
    first = layers[0]
    x = sparse_affine(first, active_bits(p))  # a fresh array, never shared
    if first.activation == RELU:
        relu_in_place(x)
    x = forward(layers[1:], x)
    if cache is not None:
        cache.put(p.zobrist, x)
    return x


def compare(net: SiameseNetwork, fa: np.ndarray, fb: np.ndarray) -> tuple:
    """Order two feature vectors with the comparison head.

    Returns (ordering, confidence). FirstBetter iff the first output
    logit exceeds the second; an exact tie is SecondBetter by convention.
    The confidence is the winning 2-way softmax component,
    1 / (1 + exp(-|z0 - z1|)), so no softmax is computed.
    """
    head = net.head
    x = forward(head[:-1], np.concatenate([fa, fb]))
    last = head[-1]
    z0, z1 = (x @ last.weights.T + last.bias).tolist()
    confidence = 1.0 / (1.0 + math.exp(-abs(z0 - z1)))
    if z0 > z1:
        return Ordering.FIRST_BETTER, confidence
    return Ordering.SECOND_BETTER, confidence


def compare_white_perspective(net: SiameseNetwork, pa: Position, pb: Position,
                              cache: Optional[FeatureCache] = None) -> Ordering:
    """Which of two positions is better for White, per the model."""
    fa = features_of(pa, net, cache)
    fb = features_of(pb, net, cache)
    return compare(net, fa, fb)[0]


# --- comparators ---------------------------------------------------------
#
# A comparator is a callable (Position, Position) -> Ordering, always
# from White's perspective. The search layer inverts it for Black.

class LearnedComparator:
    """Model-backed comparator with an optional shared feature cache; a
    net whose input is not the 773-bit encoding is refused.

    `self.net` is a view of the given net: its first extractor layer is a
    column-major copy of the net's first-layer weights (sharing the bias
    array), and every other layer is the net's own object. So the
    comparator reads the first-layer weights as they were when it was
    built; a net trained further needs a new comparator. The given net
    is never written.
    """

    def __init__(self, net: SiameseNetwork,
                 cache: Optional[FeatureCache] = None):
        first, *rest = net.extractor.layers
        if first.in_dim != VECTOR_BITS:
            raise DimensionMismatch(f"model input width {first.in_dim}, but "
                                    f"a position encodes to {VECTOR_BITS} "
                                    f"bits")
        columns = DenseLayer(np.asfortranarray(first.weights), first.bias,
                             first.activation)
        self.net = SiameseNetwork(FeatureExtractor([columns] + rest),
                                  net.head)
        self.cache = cache
        self.calls = 0

    def __call__(self, pa: Position, pb: Position) -> Ordering:
        self.calls += 1
        return compare_white_perspective(self.net, pa, pb, self.cache)


# value per piece kind, indexed by abs(cell): -, P, N, B, R, Q, K
CELL_VALUES = (0, 1, 3, 3, 5, 9, 0)


# Signed per-cell tables are indexed by the board cell itself, -6..6: a
# black cell counts from the end of the 13-entry tuple, as Python
# indexing does, so a board maps through one in a single C-level pass.
_CELL_MATERIAL = CELL_VALUES + tuple(-v for v in reversed(CELL_VALUES[1:]))


def material_balance(p: Position) -> int:
    """Piece-value sum, White minus Black (pawn=1, N=B=3, R=5, Q=9)."""
    board = p.board
    return sum(map(_CELL_MATERIAL.__getitem__, compress(board, board)))


def _piece_activity(kind: int, sq: int, white: bool) -> int:
    r, f = divmod(sq, 8)
    rel_rank = r if white else 7 - r
    if kind == 1:  # pawns press toward promotion
        score = 2 * rel_rank
    elif kind in (2, 3, 5):  # minors and the queen like the middle
        score = 3 - max(abs(2 * f - 7), abs(2 * r - 7)) // 2
    elif kind == 4:
        score = 1 if rel_rank == 6 else 0  # rook on the seventh
    else:
        score = 0
    # per-square grain so equally-placed pieces still compare strictly
    return 2 * score + ((kind * 64 + sq) * 2654435761 >> 12 & 1)


# _SQUARE_ACTIVITY[sq][cell]: the signed activity term of `cell` on `sq`
# (0 for an empty square), indexed like _CELL_MATERIAL
_SQUARE_ACTIVITY = tuple(
    (0,) + tuple(_piece_activity(kind, sq, True) for kind in range(1, 7))
    + tuple(-_piece_activity(kind, sq, False) for kind in range(6, 0, -1))
    for sq in range(64)
)

# Material and activity packed into one term, (material << 16) + activity,
# so one pass over the occupied squares sums both. Even a full board's
# activity stays far below 2**15 in magnitude, so the sum splits back
# exactly: material is the sum rounded to the nearest multiple of 2**16.
_PACK = 16
_SQUARE_SCORE = tuple(
    tuple((material << _PACK) + activity
          for material, activity in zip(_CELL_MATERIAL, row))
    for row in _SQUARE_ACTIVITY
)


def _king_drive(strong_king: int, weak_king: int) -> int:
    """Drive the weak king to the edge and the strong king toward it."""
    sr, sf = divmod(strong_king, 8)
    wr, wf = divmod(weak_king, 8)
    edge = max(abs(2 * wf - 7), abs(2 * wr - 7)) // 2
    closeness = 7 - max(abs(sr - wr), abs(sf - wf))
    return 3 * edge + closeness


# _KING_DRIVE[strong_king * 64 + weak_king]
_KING_DRIVE = tuple(_king_drive(s, w) for s in range(64) for w in range(64))


def baseline_eval(p: Position) -> int:
    """Integer White-perspective score: material plus a small tiebreak.

    Material counts in units of 256 per pawn; the remainder is a
    bounded (< 1 pawn) activity term: pawn advancement, piece
    centrality, and — for the side that is ahead — driving the enemy
    king to the edge and toward one's own. Being scalar it induces a
    transitive order, and the activity term keeps the baseline engine
    making progress in won positions instead of shuffling into
    repetition draws it cannot see.
    """
    board = p.board
    # empty cells score 0, so only occupied squares are read
    packed = sum(map(tuple.__getitem__, compress(_SQUARE_SCORE, board),
                     compress(board, board)))
    material = (packed + (1 << (_PACK - 1))) >> _PACK
    score = 256 * material + packed - (material << _PACK)
    if material > 0:
        white_king, black_king = p._kings
        score += _KING_DRIVE[white_king * 64 + black_king]
    elif material < 0:
        white_king, black_king = p._kings
        score -= _KING_DRIVE[black_king * 64 + white_king]
    return score


# Scored positions a MaterialComparator keeps before it starts its memo
# afresh; a long UCI session reuses one comparator for many searches.
_SCORES_LIMIT = 1 << 16


class MaterialComparator:
    """Orders positions by material, activity breaking ties.

    The order is induced by the scalar `baseline_eval`, hence
    transitive: it doubles as the correctness oracle for search tests.
    Exact ties (equal scores) read SecondBetter.
    """

    def __init__(self):
        self.calls = 0
        self._scores: dict = {}  # searches revisit positions heavily

    def _score(self, p: Position) -> int:
        """Score a position the memo does not hold yet, and keep it."""
        if len(self._scores) >= _SCORES_LIMIT:
            self._scores.clear()
        s = self._scores[p.zobrist] = baseline_eval(p)
        return s

    def __call__(self, pa: Position, pb: Position) -> Ordering:
        self.calls += 1
        scores = self._scores
        a = scores.get(pa.zobrist)
        if a is None:
            a = self._score(pa)
        b = scores.get(pb.zobrist)
        if b is None:
            b = self._score(pb)
        if a > b:
            return Ordering.FIRST_BETTER
        return Ordering.SECOND_BETTER


def _mix64(x: int) -> int:
    # splitmix64 finalizer: deterministic, hash-seed independent
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class RandomComparator:
    """Arbitrary but reproducible orderings, as a baseline opponent.

    The verdict for a pair is a pure function of (seed, both position
    hashes), so repeated queries agree but the relation is generally
    intransitive.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.calls = 0

    def __call__(self, pa: Position, pb: Position) -> Ordering:
        self.calls += 1
        h = _mix64(self.seed ^ _mix64(pa.zobrist) ^ _mix64(pb.zobrist * 3))
        return Ordering.FIRST_BETTER if h & 1 else Ordering.SECOND_BETTER


class ConsistencyReport(NamedTuple):
    triples: int
    cycles: int
    cycle_rate: float


def audit_consistency(cmp, positions: Sequence[Position], triples: int,
                      seed: int = 0) -> ConsistencyReport:
    """Estimate how often the comparator is cyclic on sampled triples.

    A triple (a, b, c) counts as a cycle when the three pairwise
    verdicts chain strictly around (a>b>c>a in either direction). A
    transitive comparator scores 0.
    """
    import random

    if len(positions) < 3:
        raise ValueError("need at least 3 positions to audit")
    rng = random.Random(seed)

    def beats(x: Position, y: Position) -> bool:
        return cmp(x, y) is Ordering.FIRST_BETTER

    cycles = 0
    for _ in range(triples):
        a, b, c = rng.sample(range(len(positions)), 3)
        pa, pb, pc = positions[a], positions[b], positions[c]
        # each direction queried explicitly: SecondBetter alone could be
        # a tie, which must not register as a reverse cycle
        if ((beats(pa, pb) and beats(pb, pc) and beats(pc, pa))
                or (beats(pb, pa) and beats(pc, pb) and beats(pa, pc))):
            cycles += 1
    return ConsistencyReport(triples, cycles, cycles / triples)
