"""Deterministic sweep execution: serial or process-pool, identical output.

The figure sweeps (5-19) are grids of independent (dataset, ε, repeat)
cells — each cell fits one release (or one baseline) from its own freshly
seeded RNG and reduces to one float.  That independence is what makes the
sweeps embarrassingly parallel, but naive pooling breaks two invariants
the benchmark transcripts rely on:

* **Seed stability.**  A cell's RNG must not depend on which worker runs
  it or in what order cells complete.  Every :class:`SweepCell` therefore
  carries an explicit ``seed`` computed by :func:`cell_seed` — a pure
  function of the sweep's base seed, the cell's position in the grid and
  (for named baseline streams) :func:`~repro.experiments.framework.
  stable_series_seed` of the series name.  Nothing in the derivation
  touches ``hash()``, worker ids or wall clock.
* **Reduction order.**  Metrics are gathered in submission order (future
  per cell, resolved in sequence), so the per-point means consume their
  repeat values in exactly the order the serial loop would.

With both pinned, ``jobs=N`` is bit-identical to ``jobs=1`` for every
worker count and scheduling interleaving, and ``jobs=1`` runs the plain
in-process loop (no pool, no pickling — exactly the pre-existing path).

Cache sharing
-------------
Workers are forked (POSIX ``fork`` start method), so they inherit the
parent's memory copy-on-write — including the per-dataset
:class:`~repro.core.scoring.ScoringCache` of the sweep context and any
module-level worker state registered via :func:`set_worker_state`.  To
make that inheritance useful, :meth:`SweepExecutor.map` runs the *first*
cell in the parent before forking: one release fully warms the candidate
score memo and the joint-count cache (they are data statistics, identical
for every cell of the sweep), so every worker starts with the warm caches
instead of re-deriving them per process.  On platforms without ``fork``
the executor degrades to the serial path — same results, no sharing.

Worker functions must be module-level (pickled by reference); their
inputs arrive as a picklable :class:`SweepCell` and their shared state
through :func:`get_worker_state`, set by the harness before ``map``.
"""

from __future__ import annotations

import multiprocessing
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.framework import mean_over_repeats, stable_series_seed


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of a figure sweep.

    ``seed`` is the cell's entire source of randomness (see
    :func:`cell_seed`); ``series`` names the figure line the cell belongs
    to (used by workers that dispatch on baseline); ``params`` carries the
    cell's knobs (β, θ, oracle switches, encoding method, a baseline and
    the workload it releases) as a hashable, picklable tuple.
    """

    dataset: str
    epsilon: float
    repeat: int
    seed: int
    series: str = ""
    params: Tuple[Tuple[str, object], ...] = ()

    def param(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default

    def rng(self) -> np.random.Generator:
        """The cell's RNG — fresh per call, a pure function of ``seed``."""
        return np.random.default_rng(self.seed)


def cell_seed(base_seed: int, index: int, series: str = "") -> int:
    """Per-cell RNG seed: a pure function of (series name, cell index).

    ``base_seed`` is the sweep's seed times a per-figure prime (keeping the
    exact derivations the committed benchmark transcripts were generated
    under), ``index`` linearizes the cell's grid position, and ``series``
    adds the CRC32-based
    :func:`~repro.experiments.framework.stable_series_seed` offset that
    separates named baseline streams (the default ``""`` hashes to 0 — no
    offset).  No ``hash()``, no process state: the same arguments yield
    the same seed in every interpreter, under every ``PYTHONHASHSEED``,
    for every worker count.
    """
    return base_seed + index + stable_series_seed(series)


#: Module-level state inherited by forked workers (set before ``map``).
_WORKER_STATE: Dict[str, object] = {}


def set_worker_state(key: str, value) -> None:
    """Register shared state a worker function will read under ``key``.

    Must be called in the parent before :meth:`SweepExecutor.map` so the
    forked pool inherits the value; the state never crosses a pickle
    boundary, so it may hold tables, workloads and caches of any size.
    """
    _WORKER_STATE[key] = value


def get_worker_state(key: str):
    """Fetch state registered by :func:`set_worker_state` (parent or fork)."""
    try:
        return _WORKER_STATE[key]
    except KeyError:
        raise RuntimeError(
            f"worker state {key!r} not set — call set_worker_state() before "
            f"SweepExecutor.map() (spawn-based pools cannot inherit it)"
        ) from None


def clear_worker_state(key: str) -> None:
    """Drop the state registered under ``key`` (idempotent).

    Harnesses call this once their sweep completes so a batch driver
    (``run_all`` runs dozens of panels in one process) does not keep every
    panel's tables, workloads and caches alive until exit.
    """
    _WORKER_STATE.pop(key, None)


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or ``None`` if unsupported.

    macOS advertises ``fork`` but forking after the Objective-C runtime /
    Accelerate BLAS have initialized can abort the child (the reason
    CPython's default start method there is ``spawn``), and numpy BLAS
    calls run inside every worker — treat it like the no-fork case.
    """
    if sys.platform == "darwin":
        return None
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


class SweepExecutor:
    """Maps a cell-level function over sweep cells, serially or pooled.

    ``jobs=1`` (the default) runs the plain list comprehension — byte for
    byte the pre-existing serial code path.  ``jobs>1`` warms the caches
    on the first cell in the parent, then forks a ``ProcessPoolExecutor``
    over the rest; results always come back in submission order, so the
    output is identical for every ``jobs`` value.
    """

    def __init__(self, jobs: int = 1) -> None:
        if int(jobs) != jobs or jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
        self.jobs = int(jobs)

    def map(self, fn: Callable[[SweepCell], float], cells: Iterable[SweepCell]) -> List:
        cells = list(cells)
        if self.jobs == 1 or len(cells) <= 1:
            return [fn(cell) for cell in cells]
        context = _fork_context()
        if context is None:  # pragma: no cover - non-POSIX platforms
            warnings.warn(
                "SweepExecutor: no fork start method on this platform; "
                "running serially (results are identical)",
                RuntimeWarning,
                stacklevel=2,
            )
            return [fn(cell) for cell in cells]
        # Warm the fork-inherited caches (candidate scores, joint counts —
        # data statistics shared by every cell) on the first cell, so each
        # worker starts from the warm memo instead of rebuilding its own.
        first = fn(cells[0])
        rest = cells[1:]
        workers = min(self.jobs, len(rest))
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [pool.submit(fn, cell) for cell in rest]
            return [first] + [future.result() for future in futures]


def run_cells(
    state_key: str,
    state,
    fn: Callable[[SweepCell], float],
    cells: Iterable[SweepCell],
    jobs: int = 1,
) -> List:
    """Install worker state, map ``fn`` over ``cells``, always clean up.

    The install/map/clear dance every harness needs, in one place: the
    state is registered under ``state_key`` before the pool forks and
    dropped in a ``finally`` so batch drivers (``run_all`` runs dozens of
    panels per process) never accumulate dead panel fixtures.
    """
    set_worker_state(state_key, state)
    try:
        return SweepExecutor(jobs).map(fn, cells)
    finally:
        clear_worker_state(state_key)


def mean_reduce(metrics: Sequence[float], repeats: int) -> List[float]:
    """Collapse a repeat-major flat metric list to per-point means.

    ``metrics`` must hold ``repeats`` consecutive values per grid point
    (the cell enumeration order of every figure harness); each group
    reduces through :func:`~repro.experiments.framework.mean_over_repeats`
    in submission order, matching the serial loops' ``np.mean`` exactly.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats!r}")
    if len(metrics) % repeats != 0:
        raise ValueError(
            f"{len(metrics)} metrics do not divide into groups of {repeats}"
        )
    return [
        mean_over_repeats(metrics[i : i + repeats])
        for i in range(0, len(metrics), repeats)
    ]
