"""Structure-learning micro-benchmark: incremental vs per-round rescoring.

Times greedy network construction (Algorithms 2 and 4) on NLTCS- and
Adult-sized tables, comparing the incremental scoring engine
(:class:`repro.core.scoring.CandidateScorer`) against the seed behavior,
written out here as :class:`SeedScorer`: every candidate counted and
scored from scratch each round.  Both runs use the same seed and must
produce bit-identical networks — scoring consumes no randomness, so the
memo cannot perturb the draws.

Emits ``BENCH_structure.json`` next to this file with wall-clock timings
per (d, n, k) grid point so future PRs can track the hot path:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_structure_search.py -q
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.bn.quality import ParentIndexCache
from repro.core.greedy_bayes import greedy_bayes_fixed_k, greedy_bayes_theta
from repro.core.parent_sets import parent_set_domain_size
from repro.core.score_kernels import score_F_batch
from repro.core.scores import sensitivity_F, sensitivity_I, sensitivity_R
from repro.core.scoring import CandidateScorer
from repro.datasets import load_dataset
from repro.infotheory.measures import mutual_information

from conftest import report

RESULTS_JSON = Path(__file__).parent / "BENCH_structure.json"

#: (label, dataset, n, k or None for θ-mode, score, seed)
GRID = (
    ("nltcs-d16-k2", "nltcs", 4000, 2, "F", 7),
    ("nltcs-d16-k3", "nltcs", 1000, 3, "F", 7),
    ("adult-theta", "adult", 2000, None, "R", 7),
)

#: Acceptance floor for the Figure 4 NLTCS configuration (d=16, k≥2).
MIN_NLTCS_SPEEDUP = 3.0


class SeedScorer:
    """The seed scorer: each candidate of each round is counted on its own
    through :meth:`ParentIndexCache.counts` and scored on its own — ``F``
    as a batch of one, ``I`` and ``R`` by their per-candidate formulas
    (mutual information; Equation 11), as the seed's scalar score
    functions did — and the selection sensitivity is the max over the
    candidates' own.  Nothing is memoized: no scores, and no maximal
    parent sets (``parent_sets`` is ``None``)."""

    parent_sets = None

    def __init__(self, table, score):
        self.table = table
        self.score = score
        self._index = ParentIndexCache(table)
        self._attrs = {attr.name: attr for attr in table.attributes}

    def score_candidate(self, child, parents):
        block, _, _, _, child_sizes = self._index.counts(parents, (child,))
        counts = block.astype(float)
        n = self.table.n
        if self.score == "F":
            return float(score_F_batch(counts, n)[0])
        joint = counts / n if n else counts
        if self.score == "I":
            return mutual_information(joint, child_sizes[0])
        m = joint.reshape(-1, child_sizes[0])
        return float(0.5 * np.abs(m - np.outer(m.sum(1), m.sum(0))).sum())

    def score_batch(self, candidates):
        return np.array([self.score_candidate(*cand) for cand in candidates])

    def selection_sensitivity(self, candidates):
        n = self.table.n
        values = []
        for child, parents in candidates:
            if self.score == "F":
                values.append(sensitivity_F(n))
            elif self.score == "R":
                values.append(sensitivity_R(n))
            else:
                domain = parent_set_domain_size(frozenset(parents), self._attrs)
                binary = self._attrs[child].size == 2 or domain == 2
                values.append(sensitivity_I(n, binary=binary))
        return max(values)


def _learn(table, k, score, seed, incremental):
    if incremental:
        scorer = CandidateScorer(table, score)
    else:
        scorer = SeedScorer(table, score)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    if k is None:
        network = greedy_bayes_theta(
            table,
            epsilon1=0.3,
            epsilon2=0.7,
            theta=4.0,
            score=score,
            rng=rng,
            first_attribute=table.attribute_names[0],
            scorer=scorer,
        )
    else:
        network = greedy_bayes_fixed_k(
            table,
            k,
            epsilon1=0.3,
            score=score,
            rng=rng,
            first_attribute=table.attribute_names[0],
            scorer=scorer,
        )
    return network, time.perf_counter() - start


def test_structure_search_benchmark():
    rows = []
    for label, dataset, n, k, score, seed in GRID:
        table = load_dataset(dataset, n=n, seed=0)
        naive_network, naive_seconds = _learn(table, k, score, seed, False)
        incr_network, incr_seconds = _learn(table, k, score, seed, True)
        # The engine must be a pure optimization: bit-identical structure.
        assert incr_network == naive_network
        rows.append(
            {
                "label": label,
                "dataset": dataset,
                "d": table.d,
                "n": table.n,
                "k": k if k is not None else "theta",
                "score": score,
                "seconds_naive": round(naive_seconds, 4),
                "seconds_incremental": round(incr_seconds, 4),
                "speedup": round(naive_seconds / max(incr_seconds, 1e-9), 2),
            }
        )
    # Assert the acceptance floor BEFORE persisting: a failing run must not
    # overwrite the committed JSON/transcript with sub-floor numbers.
    nltcs = next(r for r in rows if r["label"] == "nltcs-d16-k2")
    assert nltcs["speedup"] >= MIN_NLTCS_SPEEDUP, (
        f"NLTCS d=16 k=2 structure learning is only "
        f"{nltcs['speedup']:.2f}x faster than the seed path "
        f"(need >= {MIN_NLTCS_SPEEDUP}x)"
    )
    RESULTS_JSON.write_text(
        json.dumps({"benchmark": "structure-search", "grid": rows}, indent=2)
        + "\n"
    )
    lines = ["structure search: incremental vs per-round rescoring"]
    for row in rows:
        lines.append(
            f"  {row['label']:<14} d={row['d']:>2} n={row['n']:>5} "
            f"k={row['k']!s:<5} naive={row['seconds_naive']:.2f}s "
            f"incremental={row['seconds_incremental']:.2f}s "
            f"speedup={row['speedup']:.2f}x"
        )
    report("\n".join(lines))
