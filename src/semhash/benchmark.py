"""Desk-scale retrieval benchmark used by the experiment script and tests.

Builds a balanced three-level taxonomy, samples a hierarchical synthetic
dataset, trains a requested loss variant, and scores the resulting codes
both binarized (Hamming ranking) and continuous (Manhattan ranking).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .data import Dataset, RngState, generate_synthetic
from .hashing import encode
from .hierarchy import Taxonomy, parse_taxonomy
from .metrics import evaluate, evaluate_embeddings
from .trainer import TrainConfig, train

VARIANT_CONFIGS: dict[str, dict] = {
    # distance matching + divergence regularizer, no class labels
    "shrewd": {"lambda_sim": 1.0, "lambda1": 1.0, "lambda2": 0.0, "variant": "shrewd"},
    # classification head only
    "cls_only": {"lambda_sim": 0.0, "lambda1": 0.0, "lambda2": 1.0, "variant": "shred"},
    # distance matching only (no divergence term)
    "sim_only": {"lambda_sim": 1.0, "lambda1": 0.0, "lambda2": 0.0, "variant": "shrewd"},
    # all three terms
    "shred": {"lambda_sim": 1.0, "lambda1": 1.0, "lambda2": 1.0, "variant": "shred"},
}


def balanced_taxonomy(branching: tuple[int, ...]) -> Taxonomy:
    """Balanced tree with the given fan-out per level below the root."""
    lines = []
    level = ["root"]
    for depth, fan in enumerate(branching):
        nxt = []
        for name in level:
            for i in range(fan):
                child = f"{name}_{i}" if depth else f"n{i}"
                lines.append(f"{name} {child}")
                nxt.append(child)
        level = nxt
    return parse_taxonomy("\n".join(lines))


@dataclass
class VariantScore:
    variant: str
    seed: int
    code_length: int
    mahp_binary: float
    mahp_continuous: float
    map_binary: float

    @property
    def binarization_gap(self) -> float:
        return self.mahp_continuous - self.mahp_binary


def benchmark_config(variant: str, seed: int, code_length: int = 16, epochs: int = 10) -> TrainConfig:
    # small batches keep within-batch same-class collisions rare, which at
    # desk scale stops the divergence term's neighbor repulsion from fighting
    # class collapse; the low rate stays short of the regime where saturation
    # erases the quantization gap being measured
    base = TrainConfig(
        code_length=code_length,
        hidden_sizes=(128, 64),
        batch_size=4,
        epochs=epochs,
        learning_rate=1e-4,
        seed=seed,
    )
    return replace(base, **VARIANT_CONFIGS[variant])


def run_variant(
    taxonomy: Taxonomy,
    dataset: Dataset,
    config: TrainConfig,
    variant: str,
    k_max: int = 100,
) -> VariantScore:
    encoder, _, _ = train(config, dataset, taxonomy)
    values, index = encode(encoder, dataset)
    binary = evaluate(index, None, taxonomy, k_max)
    continuous = evaluate_embeddings(values, index.ids, dataset.labels, taxonomy, k_max)
    return VariantScore(
        variant=variant,
        seed=config.seed,
        code_length=config.code_length,
        mahp_binary=binary.mahp_at_k[k_max],
        mahp_continuous=continuous.mahp_at_k[k_max],
        map_binary=binary.map,
    )


def make_benchmark_dataset(
    taxonomy: Taxonomy,
    seed: int,
    per_class: int = 50,
    dim: int = 64,
    noise: float = 0.6,
) -> Dataset:
    return generate_synthetic(
        taxonomy, per_class=per_class, dim=dim, noise=noise, rng=RngState.from_seed(seed)
    )
