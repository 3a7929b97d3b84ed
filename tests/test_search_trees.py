"""Exact search trees: `search_root`'s nodes, cutoffs, comparator calls
and principal line on fixed positions, for the material, random and
learned comparators, must equal the counts in `data/search_trees.json`.
A change to move ordering, pruning or the order of bounds shows here
even when the chosen move survives it.

The file is re-recorded only for an intended and explained tree change:

    PYTHONPATH=src python tests/test_search_trees.py
"""

import json
from pathlib import Path

import pytest

from cmpchess.board import legal_moves, parse_fen, to_fen
from cmpchess.inference import (
    FeatureCache, LearnedComparator, MaterialComparator, RandomComparator,
)
from cmpchess.nn.model import init_siamese
from cmpchess.search import SearchLimits, search_root

DATA = Path(__file__).with_name("data") / "search_trees.json"

# name: (fresh comparator, iterative-deepening depth)
COMPARATORS = {
    "material": (MaterialComparator, 3),
    "random": (lambda: RandomComparator(seed=7), 3),
    "learned": (lambda: LearnedComparator(
        init_siamese((773, 32, 16), (12, 2), seed=5), FeatureCache(4096)), 2),
}

# roots whose searches reach mates and stalemates for either side
HAND_BUILT = (
    "6k1/5ppp/8/8/8/8/8/K3R3 w - - 0 1",
    "6k1/5ppp/8/3q4/8/8/8/K3R3 w - - 0 1",
    "k3r3/8/8/8/8/8/5PPP/6K1 b - - 0 1",
    "k7/8/1Q6/8/8/8/8/K7 w - - 0 1",
    "7k/5Q2/6K1/8/8/8/8/8 w - - 0 1",
    "4k3/8/8/8/8/8/3q4/4K3 w - - 0 1",
)


def tree(fen: str, kind: str) -> dict:
    make, depth = COMPARATORS[kind]
    cmp = make()
    result = search_root(parse_fen(fen), SearchLimits(max_depth=depth), cmp)
    return {"nodes": result.nodes, "cutoffs": result.cutoffs,
            "cmp_calls": cmp.calls,
            "pv": " ".join(m.uci() for m in result.line)}


@pytest.mark.parametrize("kind", sorted(COMPARATORS))
def test_trees_match_recording(kind):
    recorded = json.loads(DATA.read_text())
    assert len(recorded["fens"]) >= 40
    want = recorded["trees"][kind]
    got = [tree(fen, kind) for fen in recorded["fens"]]
    wrong = [(fen, g, w) for fen, g, w in zip(recorded["fens"], got, want)
             if g != w]
    assert not wrong, wrong[:3]
    assert len(got) == len(want)


def record() -> dict:
    """The hand-built roots plus one playout position per seed."""
    from conftest import collect_playout
    fens = list(HAND_BUILT)
    for seed in range(34):
        line = [p for p in collect_playout(2000 + seed, 40) if legal_moves(p)]
        fens.append(to_fen(line[(10 + seed) % len(line)]))
    return {"fens": fens,
            "trees": {kind: [tree(fen, kind) for fen in fens]
                      for kind in sorted(COMPARATORS)}}


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record(), indent=1) + "\n")
