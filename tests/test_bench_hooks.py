"""The benchmark in perfbench/ wraps and calls library functions by their
module attribute; a rename or deletion there would only show up as a
broken traced run. These checks make it fail here first."""

import importlib.util
from pathlib import Path

import pytest

from cmpchess import dataset, inference, match, search
from cmpchess.nn import train as nn_train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# attributes the benchmark's workloads hook or call directly
CALLED = [
    (search, ("legal_moves", "apply_move", "bound_compare", "search_root")),
    (match, ("search_root", "run_match")),
    (inference, ("active_bits", "sparse_affine", "features_of", "compare",
                 "compare_white_perspective")),
    (nn_train, ("pair_batches", "loss_and_gradients", "apply_gradients",
                "pair_accuracy", "train_deepchess")),
    (dataset, ("load_positions", "split", "class_matrix", "save_positions",
               "LabeledPosition", "Label")),
]


def load_layer_metrics():
    spec = importlib.util.spec_from_file_location(
        "layer_metrics", PERFBENCH / "layer_metrics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class PatchRecorder:
    """Stands in for the benchmark's tracer: records, patches nothing."""

    def __init__(self):
        self.targets = []

    def patch(self, owner, attr, name, **options):
        self.targets.append((owner, attr, name))


def test_span_targets_resolve():
    layer_metrics = load_layer_metrics()
    recorder = PatchRecorder()
    layer_metrics.install(recorder)
    spans = [(owner, attr, name) for owner, attr, name in layer_metrics.SPANS]
    assert set(spans) <= set(recorder.targets)
    for owner, attr, name in recorder.targets:
        assert callable(getattr(owner, attr, None)), (
            f"{name}: {owner.__name__}.{attr} is gone")


@pytest.mark.parametrize("owner, attr", [
    pytest.param(owner, attr, id=f"{owner.__name__}.{attr}")
    for owner, attrs in CALLED for attr in attrs])
def test_called_attribute_resolves(owner, attr):
    assert hasattr(owner, attr), f"{owner.__name__}.{attr} is gone"

