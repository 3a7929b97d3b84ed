from .layers import DenseLayer, NonFiniteLoss, init_layer
from .model import (
    AutoEncoder, FeatureExtractor, Gradients, SiameseNetwork,
    forward_pairs, init_siamese, loss_and_gradients,
)
from .train import (
    TrainConfig, distill, lr_at, pretrain_pos2vec, sgd_step, train_deepchess,
)
from .io import load_extractor, load_model, save_extractor, save_model

__all__ = [
    "DenseLayer", "NonFiniteLoss", "init_layer",
    "AutoEncoder", "FeatureExtractor", "Gradients", "SiameseNetwork",
    "forward_pairs", "init_siamese", "loss_and_gradients",
    "TrainConfig", "distill", "lr_at", "pretrain_pos2vec", "sgd_step",
    "train_deepchess",
    "load_extractor", "load_model", "save_extractor", "save_model",
]
