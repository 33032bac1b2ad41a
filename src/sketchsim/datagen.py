"""Synthetic Zipf streams and random splitting into stream pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sketchsim.hashing import mix64, mix64_array


@dataclass(frozen=True)
class ZipfSpec:
    """Parameters for one synthetic stream draw.

    Probabilities are proportional to rank^(-alpha) over ranks
    1..n_distinct; alpha = 0 degenerates to the uniform law.
    """

    n_items: int
    n_distinct: int
    alpha: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise ValueError("n_items must be positive")
        if self.n_distinct < 1:
            raise ValueError("n_distinct must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")


def rank_ids(n_distinct: int) -> np.ndarray:
    """Deterministic item id for each rank, spread over the 64-bit space."""
    return mix64_array(np.arange(1, n_distinct + 1, dtype=np.uint64))


def zipf_stream(spec: ZipfSpec) -> np.ndarray:
    """Draw spec.n_items ids i.i.d. from the normalized Zipf law.

    Sampling inverts a precomputed cumulative table, so every draw is
    exact and the stream is fully determined by spec.seed.
    """
    ranks = np.arange(1, spec.n_distinct + 1, dtype=np.float64)
    weights = ranks ** -spec.alpha
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    uniforms = np.random.default_rng(spec.seed).random(spec.n_items)
    indices = np.searchsorted(cdf, uniforms, side="right")
    return rank_ids(spec.n_distinct)[indices]


def split_seed(seed: int) -> int:
    """The seed that splits the stream drawn with ``seed`` into a pair.

    The harness and ``gen-zipf`` both use it, so one seed names one
    stream pair whichever of them makes it.
    """
    return mix64(seed ^ 0x5EED)


def random_split(
    stream: np.ndarray, p: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Route each element independently to the first output with probability p.

    Order is preserved within each output, and the two outputs partition
    the input: their multiset sum equals the input multiset exactly.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    stream = np.asarray(stream, dtype=np.uint64)
    mask = np.random.default_rng(seed).random(stream.shape[0]) < p
    return stream[mask], stream[~mask]
