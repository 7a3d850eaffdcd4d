"""The paper's phase-level characterization methodology, end to end."""

from .dataset import WorkloadDataset, build_dataset
from .pipeline import (
    PhaseCharacterization,
    characterize_to_file,
    run_characterization,
)
from .prominent import ProminentPhases, select_prominent_phases
from .results import (
    dataset_arrays,
    dataset_from_arrays,
    load_characterization,
    load_dataset,
    save_characterization,
    save_dataset,
)
from .sampling import sample_interval_indices

__all__ = [
    "PhaseCharacterization",
    "ProminentPhases",
    "WorkloadDataset",
    "build_dataset",
    "characterize_to_file",
    "dataset_arrays",
    "dataset_from_arrays",
    "load_characterization",
    "load_dataset",
    "run_characterization",
    "sample_interval_indices",
    "save_characterization",
    "save_dataset",
    "select_prominent_phases",
]
