"""Benchmark and suite registry.

A :class:`Benchmark` binds a name, a suite, a nominal dynamic length in
intervals (the Table 3 analog) and a lazily-constructed
:class:`~repro.synth.program.SyntheticProgram`.  The registry gives the
rest of the library a single place to enumerate the paper's five suites
and 77 benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..synth import PhaseSchedule, SyntheticProgram
from ..synth.rng import derive_seed

#: Canonical suite names, in the paper's reporting order.
SUITE_BIOPERF = "BioPerf"
SUITE_BMW = "BMW"
SUITE_INT2000 = "SPECint2000"
SUITE_FP2000 = "SPECfp2000"
SUITE_INT2006 = "SPECint2006"
SUITE_FP2006 = "SPECfp2006"
SUITE_MEDIABENCH = "MediaBenchII"

SUITE_ORDER = (
    SUITE_BIOPERF,
    SUITE_BMW,
    SUITE_INT2000,
    SUITE_FP2000,
    SUITE_INT2006,
    SUITE_FP2006,
    SUITE_MEDIABENCH,
)

#: Pairings of suites that belong to one product generation, used by
#: analyses that compare CPU2000 against CPU2006.
GENERAL_PURPOSE_SUITES = (SUITE_INT2000, SUITE_FP2000, SUITE_INT2006, SUITE_FP2006)
DOMAIN_SPECIFIC_SUITES = (SUITE_BIOPERF, SUITE_BMW, SUITE_MEDIABENCH)


@dataclass
class Benchmark:
    """One benchmark: a named, suite-tagged synthetic program.

    Attributes:
        suite: suite name (one of ``SUITE_ORDER``).
        name: benchmark name (unique within the suite).
        n_intervals: nominal dynamic length in instruction intervals —
            the Table 3 analog, which drives sampling-with-replacement
            for short benchmarks.
        schedule_factory: builds the program's phase schedule; called
            lazily, once.
    """

    suite: str
    name: str
    n_intervals: int
    schedule_factory: Callable[[int], PhaseSchedule]
    _program: Optional[SyntheticProgram] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.suite not in SUITE_ORDER:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")

    @property
    def key(self) -> str:
        """Globally unique benchmark key, ``suite/name``."""
        return f"{self.suite}/{self.name}"

    @property
    def seed(self) -> int:
        """The benchmark's deterministic root seed."""
        return derive_seed("benchmark", self.suite, self.name)

    @property
    def program(self) -> SyntheticProgram:
        """The lazily built synthetic program."""
        if self._program is None:
            schedule = self.schedule_factory(self.seed)
            self._program = SyntheticProgram(
                self.name, schedule, n_intervals=self.n_intervals, seed=self.seed
            )
        return self._program


@dataclass(frozen=True)
class Suite:
    """One benchmark suite."""

    name: str
    benchmarks: tuple

    def __len__(self) -> int:
        return len(self.benchmarks)

    def benchmark(self, name: str) -> Benchmark:
        for b in self.benchmarks:
            if b.name == name:
                return b
        raise KeyError(f"no benchmark {name!r} in suite {self.name}")


_SUITE_BUILDERS: Dict[str, Callable[[], List[Benchmark]]] = {}


def register_suite(name: str):
    """Decorator: register a function returning a suite's benchmarks."""

    def wrap(builder: Callable[[], List[Benchmark]]):
        if name in _SUITE_BUILDERS:
            raise ValueError(f"suite {name!r} registered twice")
        _SUITE_BUILDERS[name] = builder
        return builder

    return wrap


_CACHE: Dict[str, Suite] = {}


def get_suite(name: str) -> Suite:
    """Return one suite by name (built on first access)."""
    if name not in _CACHE:
        _ensure_definitions_loaded()
        if name not in _SUITE_BUILDERS:
            raise KeyError(
                f"unknown suite {name!r} (choose from {', '.join(SUITE_ORDER)})"
            )
        benchmarks = tuple(_SUITE_BUILDERS[name]())
        for b in benchmarks:
            if b.suite != name:
                raise ValueError(f"benchmark {b.key} registered under suite {name}")
        _CACHE[name] = Suite(name=name, benchmarks=benchmarks)
    return _CACHE[name]


def all_suites() -> List[Suite]:
    """All suites in canonical order (imports suite modules on demand)."""
    _ensure_definitions_loaded()
    return [get_suite(name) for name in SUITE_ORDER]


def all_benchmarks() -> List[Benchmark]:
    """All 77 benchmarks, suite-major order."""
    return [b for suite in all_suites() for b in suite.benchmarks]


def get_benchmark(suite: str, name: str) -> Benchmark:
    """Look up one benchmark."""
    _ensure_definitions_loaded()
    return get_suite(suite).benchmark(name)


def _ensure_definitions_loaded() -> None:
    # Imported here to avoid a circular import at package load time.
    from . import bioperf, biometrics, mediabench2, spec_cpu2000, spec_cpu2006  # noqa: F401
