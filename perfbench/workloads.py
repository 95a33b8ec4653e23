"""The three workloads, each run inside its own worker process.

The tables stand in for the paper's fixed datasets, so they (and the
model serve-adult serves) come from fixed seeds: a different table per
seed would move the ops' cost with the data rather than the code.  Every
op's seed, the arrival schedule, request sizes and fit seeds come from the
workload seed through :func:`derive`, so the program receives only
generated inputs and the same seed replays the same run.

* ``release-adult`` -- the data owner's CLI release, CSV to CSV, on an
  Adult-schema table (n=45,222, d=15).
* ``fit-nltcs`` -- ``PrivBayes(epsilon=0.4).fit_sample`` on a resident
  NLTCS-schema table (n=21,574, d=16 binary, k=5), cold caches per op.
* ``serve-adult`` -- two closed-loop clients sending coalesced sample
  requests beside one ε-charged fit a second on a durable
  ``SynthesisService``.

Release and fit run ops back to back for the measured seconds; the traced
replay runs the same number of ops with the same seeds.  Serve replays the
same requests per client and the same fits.  Each op's output is checked
outside the timed region.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import layers
from perfbench.tracing import Tracer

#: Sub-stream tags for :func:`derive`.
OP, SCHEDULE, SAMPLER, FIT = 2, 3, 4, 5
#: Seeds of the generated tables and of the served model's fit.
DATASET_SEED, MODEL_SEED = 0, 0

ADULT_ROWS = 45_222
NLTCS_ROWS, NLTCS_COLUMNS, NLTCS_K = 21_574, 16, 5

RELEASE_EPSILON = 0.8
FIT_EPSILON = 0.4
SERVE_MODEL_EPSILON = 0.8
SERVE_FIT_EPSILON = 0.1
SERVE_DATASET = "adult"
#: Closed loop: each client sends its next sample request as soon as the
#: previous one returns; beside them, one fit per period on a schedule.
#: (An open loop of Poisson arrivals put the median latency on the edge of
#: queueing, where the speed phases of a 2-vCPU VM moved it by up to 2x
#: between runs; two clients keep the draws small and the median steady.)
SERVE_CLIENTS = 2
SERVE_FIT_PERIOD = 1.0
SERVE_MIN_ROWS, SERVE_MAX_ROWS = 16, 4096
#: Request sizes drawn per client and second, far above what a client sends.
SERVE_SIZES_PER_SECOND = 2000


def derive(seed: int, *path: int) -> int:
    """A 32-bit seed that is a pure function of the workload seed and a
    sub-stream path (data, op index, schedule, ...)."""
    state = np.random.SeedSequence([int(seed), *path]).generate_state(1)
    return int(state[0])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Phase:
    """What one pass over a workload's ops measured."""

    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)


class _SequentialWorkload:
    """Ops run back to back; ``op(index)`` returns the op's wall time."""

    name = ""
    root_span = ""

    def __init__(self, seed: int, part: int, workdir: Path) -> None:
        self.seed = seed
        self.part = part
        self.workdir = workdir
        self.first_digest: Optional[str] = None

    def op_seed(self, index: int) -> int:
        return derive(self.seed, OP, self.part, index)

    def measure(self, seconds: float) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        while not phase.latencies or time.perf_counter() - start < seconds:
            self._attempt(phase, len(phase.latencies))
            if phase.failures:
                break
        return phase

    def replay(self, count: int, tracer: Tracer) -> Phase:
        phase = Phase()
        for index in range(count):
            self._attempt(phase, index, tracer)
        return phase

    def _attempt(self, phase: Phase, index: int, tracer: Optional[Tracer] = None) -> None:
        phase.attempted += 1
        try:
            elapsed, digest = self.op(index, tracer)
        except Exception as exc:  # a failed op is counted, not fatal
            phase.fail(f"op {index}: {type(exc).__name__}: {exc}")
            return
        phase.latencies.append(elapsed)
        if index == 0:
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                # The traced replay repeats op 0: tracing changes no output.
                phase.fail("op 0 replayed with its seed gave different output")

    def _timed(self, tracer: Optional[Tracer], call):
        if tracer is None:
            start = time.perf_counter()
            result = call()
            return time.perf_counter() - start, result
        index = tracer.begin(self.root_span, root=True)
        try:
            result = call()
        finally:
            span = tracer.end(index)
        return span.duration, result

    def close(self) -> None:
        pass


class ReleaseAdult(_SequentialWorkload):
    name = "release-adult"
    root_span = layers.OP_RELEASE

    def setup(self) -> None:
        import repro.__main__ as cli
        from repro.data.io import write_csv
        from repro.datasets import load_adult

        self.cli = cli
        table = load_adult(seed=DATASET_SEED)
        if table.n != ADULT_ROWS:
            raise ValueError(f"Adult generator gave {table.n} rows")
        self.source = self.workdir / "adult.csv"
        self.output = self.workdir / "release.csv"
        write_csv(table, self.source)
        with self.source.open("rb") as handle:
            self.header = handle.readline()

    def argv(self, index: int) -> List[str]:
        return [
            "--input", str(self.source), "--output", str(self.output),
            "--epsilon", str(RELEASE_EPSILON), "--method", "hierarchical-R",
            "--seed", str(self.op_seed(index)),
        ]

    def op(self, index: int, tracer: Optional[Tracer] = None):
        def release():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(self.argv(index))

        elapsed, code = self._timed(tracer, release)
        if code != 0:
            raise RuntimeError(f"CLI exited {code}")
        data = self.output.read_bytes()
        header = data[: data.index(b"\n") + 1]
        rows = data.count(b"\n") - 1
        if header != self.header or rows != ADULT_ROWS:
            raise ValueError(
                f"release has {rows} rows and header {header!r}; expected "
                f"{ADULT_ROWS} rows under {self.header!r}"
            )
        return elapsed, hashlib.sha256(data).hexdigest()

    def check(self) -> Optional[List[str]]:
        """Op 0 again with its seed must write a byte-identical CSV (one
        repeat per run: the first worker's; the others check nothing)."""
        if self.part != 0:
            return None
        _, digest = self.op(0)
        if digest != self.first_digest:
            return ["release-adult: same seed gave a different CSV"]
        return []


class FitNltcs(_SequentialWorkload):
    name = "fit-nltcs"
    root_span = layers.OP_FIT_SAMPLE

    def setup(self) -> None:
        from repro.core.privbayes import PrivBayes
        from repro.datasets import load_nltcs

        self.PrivBayes = PrivBayes
        self.table = load_nltcs(seed=DATASET_SEED)
        if (self.table.n, self.table.d) != (NLTCS_ROWS, NLTCS_COLUMNS):
            raise ValueError(f"NLTCS generator gave {self.table.n}x{self.table.d}")

    def _check_sample(self, synthetic) -> str:
        if (
            synthetic.n != self.table.n
            or synthetic.attribute_names != self.table.attribute_names
        ):
            raise ValueError(
                f"sample is {synthetic.n} rows over {synthetic.attribute_names}"
            )
        digest = hashlib.sha256()
        for name in synthetic.attribute_names:
            digest.update(np.ascontiguousarray(synthetic.column(name)).tobytes())
        return digest.hexdigest()

    def op(self, index: int, tracer: Optional[Tracer] = None):
        rng = np.random.default_rng(self.op_seed(index))
        elapsed, synthetic = self._timed(
            tracer,
            lambda: self.PrivBayes(epsilon=FIT_EPSILON).fit_sample(self.table, rng),
        )
        return elapsed, self._check_sample(synthetic)

    def check(self) -> Optional[List[str]]:
        """Op 0 again as ``fit`` then ``sample`` -- the two steps of
        ``fit_sample`` -- to see the model's k and the same sample (one
        repeat per run: the first worker's; the others check nothing)."""
        if self.part != 0:
            return None
        rng = np.random.default_rng(self.op_seed(0))
        model = self.PrivBayes(epsilon=FIT_EPSILON).fit(self.table, rng)
        failures = []
        if model.k != NLTCS_K:
            failures.append(f"fit-nltcs: model has k={model.k}, expected {NLTCS_K}")
        if self._check_sample(model.sample(None, rng)) != self.first_digest:
            failures.append("fit-nltcs: same seed gave a different sample")
        return failures


@dataclass(frozen=True)
class ServePlan:
    """What serve-adult sends: each client's request sizes in order, and
    the fits as ``(seconds after the start, fit seed)``."""

    sizes: Tuple[Tuple[int, ...], ...]
    fits: Tuple[Tuple[float, int], ...]


def serve_plan(seed: int, part: int, seconds: float) -> ServePlan:
    """Seeded requests: per client, sizes log-uniform in
    [:data:`SERVE_MIN_ROWS`, :data:`SERVE_MAX_ROWS`]; one fit each
    :data:`SERVE_FIT_PERIOD` at mid-period, each with its own seed."""
    count = int(SERVE_SIZES_PER_SECOND * seconds) + 100
    sizes = []
    for client in range(SERVE_CLIENTS):
        rng = np.random.default_rng(derive(seed, SCHEDULE, part, client))
        drawn = np.exp(rng.uniform(
            math.log(SERVE_MIN_ROWS), math.log(SERVE_MAX_ROWS), size=count
        ))
        sizes.append(tuple(
            np.clip(np.rint(drawn), SERVE_MIN_ROWS, SERVE_MAX_ROWS).astype(int).tolist()
        ))
    fits = tuple(
        ((k + 0.5) * SERVE_FIT_PERIOD, derive(seed, FIT, part, k))
        for k in range(int(seconds / SERVE_FIT_PERIOD))
    )
    return ServePlan(tuple(sizes), fits)


class ServeAdult:
    name = "serve-adult"

    def __init__(self, seed: int, part: int, workdir: Path, seconds: float,
                 phases: int) -> None:
        self.seed = seed
        self.part = part
        self.workdir = workdir
        self.seconds = seconds
        self.plan = serve_plan(seed, part, seconds)
        # Covers every fit of the run with room to spare: a refusal is a
        # failure of the run, never part of the load.
        self.budget = SERVE_MODEL_EPSILON + SERVE_FIT_EPSILON * (
            len(self.plan.fits) * phases + 10
        )
        self.granted = 0
        self.service = None
        self.sent: Optional[List[int]] = None

    def setup(self) -> None:
        from repro.core.privbayes import PrivBayesConfig
        from repro.datasets import load_adult
        from repro.dp.accountant import PrivacyBudgetError
        from repro.serve import CoalescingSampler, SynthesisService

        self.CoalescingSampler = CoalescingSampler
        self.PrivacyBudgetError = PrivacyBudgetError
        self.table = load_adult(seed=DATASET_SEED)
        self.root = self.workdir / "service"
        self.config = PrivBayesConfig(epsilon=SERVE_MODEL_EPSILON)
        with SynthesisService(self.root) as first:
            first.fit(
                SERVE_DATASET, self.table, self.config,
                rng=np.random.default_rng(MODEL_SEED),
                dataset_budget=self.budget,
            )
        # A second service on the same root: the warm restart reloads the
        # registry entry and the ledger, as a restarted server would.
        self.service = SynthesisService(self.root)
        self.model = self.service.model(SERVE_DATASET, self.config)

    def measure(self, seconds: float) -> Phase:
        phase = self._run(None, time.perf_counter() + seconds, None)
        self.sent = phase.extra["sent"]
        return phase

    def replay(self, count: int, tracer: Tracer) -> Phase:
        """The same requests per client and the same fits, traced."""
        return self._run(tracer, None, self.sent)

    def _run(self, tracer: Optional[Tracer], deadline: Optional[float],
             counts: Optional[List[int]]) -> Phase:
        phase = Phase()
        sampler = self.CoalescingSampler(
            self.model, np.random.default_rng(derive(self.seed, SAMPLER, self.part))
        )
        try:
            asyncio.run(self._drive(phase, sampler, tracer, deadline, counts))
        finally:
            sampler.close()
        phase.extra["batch_request_counts"] = list(sampler.batch_request_counts)
        return phase

    async def _drive(self, phase: Phase, sampler, tracer: Optional[Tracer],
                     deadline: Optional[float], counts: Optional[List[int]]) -> None:
        sent = [0] * SERVE_CLIENTS
        lateness: List[float] = []
        fit_latencies: List[float] = []

        async def client(index: int) -> None:
            sizes = self.plan.sizes[index]
            limit = len(sizes) if counts is None else counts[index]
            while sent[index] < limit and (
                deadline is None or time.perf_counter() < deadline
            ):
                rows = sizes[sent[index]]
                sent[index] += 1
                phase.attempted += 1
                start = time.perf_counter()
                try:
                    table = await sampler.sample(rows)
                except Exception as exc:  # a failed request is counted, not fatal
                    phase.fail(f"sample({rows}): {type(exc).__name__}: {exc}")
                    continue
                done = time.perf_counter()
                if table.n != rows or table.attribute_names != self.table.attribute_names:
                    phase.fail(f"sample({rows}) returned {table.n} rows")
                    continue
                phase.latencies.append(done - start)

        async def fitter(start: float) -> None:
            for at, seed in self.plan.fits:
                due = start + at
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(time.perf_counter() - due)
                phase.attempted += 1
                # Called the way the API offers it, synchronously on the
                # loop: the clients' requests wait out the stall.
                self._fit(phase, seed, due, fit_latencies, tracer)

        await asyncio.gather(
            fitter(time.perf_counter()),
            *(client(index) for index in range(SERVE_CLIENTS)),
        )
        phase.extra.update(sent=sent, lateness=lateness, fit_latencies=fit_latencies)

    def _fit(self, phase: Phase, seed: int, due: float, out: List[float],
             tracer: Optional[Tracer]) -> None:
        index = tracer.begin(layers.OP_FIT, root=True) if tracer else None
        try:
            self.service.fit(
                SERVE_DATASET, self.table,
                rng=np.random.default_rng(seed), epsilon=SERVE_FIT_EPSILON,
            )
        except self.PrivacyBudgetError as exc:
            phase.fail(f"fit refused: {exc}")
            return
        except Exception as exc:  # a failed fit is counted, not fatal
            phase.fail(f"fit: {type(exc).__name__}: {exc}")
            return
        finally:
            if index is not None:
                tracer.end(index)
        self.granted += 1
        out.append(time.perf_counter() - due)

    def check(self) -> List[str]:
        """The ledger file must record exactly the granted ε."""
        doc = json.loads((self.root / "ledger.json").read_text())
        entries = doc["datasets"][SERVE_DATASET]["ledger"]
        spent = math.fsum(amount for _, amount in entries)
        expected = SERVE_MODEL_EPSILON + self.granted * SERVE_FIT_EPSILON
        if not math.isclose(spent, expected, rel_tol=0.0, abs_tol=1e-9):
            return [f"serve-adult: ledger records ε={spent!r}, expected {expected!r}"]
        return []

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


NAMES = ("release-adult", "fit-nltcs", "serve-adult")


def make(name: str, seed: int, part: int, workdir: Path, seconds: float, phases: int):
    """Workload ``name`` for worker ``part`` of a run: each part draws its
    own op seeds (or schedule) from the workload seed."""
    if name == "release-adult":
        return ReleaseAdult(seed, part, workdir)
    if name == "fit-nltcs":
        return FitNltcs(seed, part, workdir)
    if name == "serve-adult":
        return ServeAdult(seed, part, workdir, seconds, phases)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def cleanup(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
