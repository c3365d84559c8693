"""Two-class Gaussian-mixture benchmark generator with closed-form ground truth.

Sampling is bit-reproducible: all variates derive from the uniform stream of
``numpy.random.default_rng(seed)`` (PCG64) through a documented Box-Muller
transform, so regenerating with the same seed yields identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset

# Canonical benchmark protocol: 250 training and 1000 test points drawn from
# one stream seeded with CANONICAL_SEED (train first, then test).
CANONICAL_SEED = 11
CANONICAL_TRAIN_SIZE = 250
CANONICAL_TEST_SIZE = 1000


@dataclass(frozen=True)
class MixtureComponent:
    label: int
    weight: float
    center: tuple[float, float]
    scale: float  # isotropic covariance = scale * I


@dataclass(frozen=True)
class GaussianMixtureSpec:
    components: tuple[MixtureComponent, ...]

    def __post_init__(self):
        total = sum(c.weight for c in self.components)
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"component weights must sum to 1, got {total}")
        if any(c.weight <= 0 for c in self.components):
            raise ValueError("component weights must be positive")
        if any(c.scale <= 0 for c in self.components):
            raise ValueError("covariance scales must be positive")

    @property
    def class_count(self) -> int:
        return 1 + max(c.label for c in self.components)

    @property
    def dim(self) -> int:
        return len(self.components[0].center)


def benchmark_mixture() -> GaussianMixtureSpec:
    """The canonical five-kernel two-class problem (class weights 0.5/0.5)."""
    return GaussianMixtureSpec(
        components=(
            MixtureComponent(0, 0.16, (1.0, 1.0), 0.03),
            MixtureComponent(0, 0.17, (-0.7, 0.3), 0.03),
            MixtureComponent(0, 0.17, (0.3, 0.3), 0.03),
            MixtureComponent(1, 0.25, (-0.3, 0.7), 0.03),
            MixtureComponent(1, 0.25, (0.4, 0.7), 0.03),
        )
    )


@dataclass(frozen=True)
class SampleBatch:
    """Points drawn from a mixture, tagged with their source component."""

    points: np.ndarray
    labels: np.ndarray
    source_components: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def to_dataset(self, spec: GaussianMixtureSpec, feature_names=("x1", "x2")) -> Dataset:
        return Dataset(
            features=self.points,
            labels=self.labels,
            class_count=spec.class_count,
            feature_names=tuple(feature_names),
        )


def _standard_normals(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Box-Muller pairs from the uniform stream; 1-u keeps log() off zero."""
    pairs = (count * dim + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[: count * dim].reshape(count, dim)


def sample(spec: GaussianMixtureSpec, count: int, seed=None, rng=None) -> SampleBatch:
    """Draw ``count`` labeled points; components chosen i.i.d. by weight."""
    if count < 1:
        raise ValueError("count must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    weights = np.array([c.weight for c in spec.components])
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    comp = np.searchsorted(cumulative, rng.random(count), side="right")
    centers = np.array([c.center for c in spec.components])
    scales = np.array([c.scale for c in spec.components])
    labels = np.array([c.label for c in spec.components], dtype=np.int64)
    noise = _standard_normals(rng, count, spec.dim)
    points = centers[comp] + np.sqrt(scales[comp])[:, None] * noise
    return SampleBatch(points=points, labels=labels[comp], source_components=comp)


def _class_densities(spec: GaussianMixtureSpec, points: np.ndarray) -> np.ndarray:
    """Per-class mixture density (n, C): each class's weighted kernel densities, summed."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dens = np.zeros((len(points), spec.class_count))
    for c in spec.components:
        diff = points - np.asarray(c.center)
        sq = np.sum(diff * diff, axis=1)
        norm = (2.0 * np.pi * c.scale) ** (spec.dim / 2.0)
        dens[:, c.label] += c.weight * np.exp(-0.5 * sq / c.scale) / norm
    return dens


def class_posteriors(spec: GaussianMixtureSpec, points: np.ndarray) -> np.ndarray:
    """Per-class posterior probabilities at each point, rows summing to 1."""
    dens = _class_densities(spec, points)
    total = dens.sum(axis=1, keepdims=True)
    # equal posteriors in the (measure-zero) far tail where density underflows
    flat = total[:, 0] == 0.0
    dens[flat] = 1.0 / spec.class_count
    total[flat] = 1.0
    return dens / total


def canonical_datasets(
    seed: int = CANONICAL_SEED,
    train_size: int = CANONICAL_TRAIN_SIZE,
    test_size: int = CANONICAL_TEST_SIZE,
) -> tuple[Dataset, Dataset]:
    """The pinned train/test draw: one stream, training points first."""
    spec = benchmark_mixture()
    rng = np.random.default_rng(seed)
    train = sample(spec, train_size, rng=rng)
    test = sample(spec, test_size, rng=rng)
    return train.to_dataset(spec), test.to_dataset(spec)
