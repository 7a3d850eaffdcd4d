"""Parallel execution layer for the characterization pipeline.

Provides the executor abstraction (serial/thread/process backends with
ordered chunked fan-out and labeled error propagation), deterministic
work-splitting, and per-task seed streams.  ``build_dataset`` and
``kmeans`` fan out through this layer; results are bit-identical to the
serial path for a fixed seed, regardless of backend or worker count.
"""

from .chunking import chunk_bounds, chunk_items
from .executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerError,
    effective_n_jobs,
    fork_available,
    get_executor,
)
from .seeding import generator_from_seed, task_generator, task_seed, task_seeds
from .shm import (
    SharedNDArray,
    as_ndarray,
    dispose_shared,
    share_array,
    shared_memory_available,
)

__all__ = [
    "BACKENDS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "SharedNDArray",
    "ThreadExecutor",
    "WorkerError",
    "as_ndarray",
    "chunk_bounds",
    "chunk_items",
    "dispose_shared",
    "effective_n_jobs",
    "fork_available",
    "generator_from_seed",
    "get_executor",
    "share_array",
    "shared_memory_available",
    "task_generator",
    "task_seed",
    "task_seeds",
]
