"""Hierarchy-aware semantic hashing toolkit."""

__version__ = "0.1.0"

from . import benchmark, data, files, hashing, hierarchy, losses, metrics, model, trainer
from .data import Dataset, RngState, beta_sample, generate_synthetic, load_dataset
from .hashing import HashCode, HashIndex, binarize, build_index, hamming, query_topk
from .hierarchy import Taxonomy, distance_matrix, parse_taxonomy, semantic_distance
from .losses import LossValue, SimLossConfig, cls_loss, kl_loss, sim_loss, total_loss
from .metrics import MetricsReport, ahp_at_k, evaluate, evaluate_embeddings, hp_at_k, relevance
from .model import (
    ClassifierParams,
    EmbeddingBatch,
    EncoderParams,
    classifier_forward,
    encoder_backward,
    encoder_forward,
    gradient_check,
    load_checkpoint,
    save_checkpoint,
)
from .trainer import AdamState, TrainConfig, TrainLog, adam_step, parse_config, train
