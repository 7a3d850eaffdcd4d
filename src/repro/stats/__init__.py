"""Statistics: normalization, PCA, k-means + BIC, distances, correlation."""

from .bic import kmeans_bic
from .correlation import pearson
from .distance import condensed_distances, distances_to, pairwise_distances
from .kmeans import Clustering, kmeans
from .kmeans_engine import (
    AUTO_CROSSOVER_ENTRIES,
    REFERENCE_KMEANS_ENV,
    EngineStats,
    lloyd_accelerated,
    reference_kmeans_enabled,
    resolve_engine,
)
from .normalize import Normalizer, normalize
from .pca import GramPCA, PCAModel, fit_pca, rescaled_pca_space

__all__ = [
    "AUTO_CROSSOVER_ENTRIES",
    "Clustering",
    "EngineStats",
    "GramPCA",
    "Normalizer",
    "PCAModel",
    "REFERENCE_KMEANS_ENV",
    "condensed_distances",
    "distances_to",
    "fit_pca",
    "kmeans",
    "kmeans_bic",
    "lloyd_accelerated",
    "normalize",
    "pairwise_distances",
    "pearson",
    "reference_kmeans_enabled",
    "rescaled_pca_space",
    "resolve_engine",
]
