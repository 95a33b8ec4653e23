"""Determinism & privacy-budget static analyzer (the repo's CI gate).

Rules targeting this codebase's historical bug classes — determinism
drift (DET001-004), privacy-budget flow (PRIV002-003), numeric overflow
(NUM001), lock discipline (CONC001) and native ABI drift (ABI001) — with
inline suppression pragmas (a finding is accepted only by a pragma that
says why), per-file result caching and a ``python -m repro.analysis``
CLI.  The analyzer is self-hosted: CI runs it over ``src``, ``tests``,
``benchmarks`` and ``examples`` and fails on any unsuppressed finding.

See ``src/repro/analysis/README.md`` for the rule catalogue and workflow.
"""

from repro.analysis.cache import ResultCache
from repro.analysis.engine import (
    REPORT_SCHEMA_VERSION,
    AnalysisReport,
    analyze_paths,
    analyze_source,
    iter_python_files,
)
from repro.analysis.rules import (
    ANALYZER_VERSION,
    RULES,
    Finding,
    Rule,
    default_rules,
)

__all__ = [
    "ANALYZER_VERSION",
    "REPORT_SCHEMA_VERSION",
    "AnalysisReport",
    "Finding",
    "ResultCache",
    "RULES",
    "Rule",
    "analyze_paths",
    "analyze_source",
    "default_rules",
    "iter_python_files",
]
