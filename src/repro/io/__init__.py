"""Persistence helpers: crash-safe artifacts, dataset caching, text tables."""

from .artifacts import (
    ArtifactError,
    CorruptArtifact,
    LockTimeout,
    MissingArtifact,
    SchemaMismatch,
    StageCheckpoint,
    artifact_lock,
    load_or_quarantine,
    quarantine,
    read_artifact,
    write_artifact,
)
from .cache import (
    cached_characterization,
    cached_dataset,
    characterization_cache_path,
    dataset_cache_path,
    feature_block_dir,
)
from .feature_blocks import FeatureBlockCache
from .records import RECORD_SCHEMA_VERSION, RecordLog, canonical_digest, write_json_atomic
from .tables import format_table

__all__ = [
    "ArtifactError",
    "CorruptArtifact",
    "FeatureBlockCache",
    "LockTimeout",
    "MissingArtifact",
    "RECORD_SCHEMA_VERSION",
    "RecordLog",
    "SchemaMismatch",
    "StageCheckpoint",
    "artifact_lock",
    "cached_characterization",
    "canonical_digest",
    "cached_dataset",
    "characterization_cache_path",
    "dataset_cache_path",
    "feature_block_dir",
    "format_table",
    "load_or_quarantine",
    "quarantine",
    "read_artifact",
    "write_artifact",
    "write_json_atomic",
]
