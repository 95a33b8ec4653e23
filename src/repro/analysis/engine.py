"""Analysis engine: file discovery, rule execution, suppression, reporting.

A finding is open unless a ``# repro: allow[RULE] -- why`` pragma in the
file itself accepts it; there is no other way to suppress one.  The
engine runs in two passes:

* **pass 1** parses every file once, builds the project-wide
  :class:`~repro.analysis.symbols.SymbolGraph` and collects the native
  C sources (``**/_native/*.c``) into an
  :class:`~repro.analysis.flow_rules.AnalysisContext`;
* **pass 2** runs the rules per file — AST-tier rules see just the
  tree, flow-tier rules also receive the context.  Pass 2 is
  embarrassingly parallel and ``--jobs N`` fans it out over a process
  pool (deterministic: results are gathered in file order).

The result cache stays per-file: the context's fingerprint is folded
into the cache signature, so a *cross-file* change (a helper moving
modules, a C prototype edit) invalidates cached findings even though
the analyzed file's own bytes never changed.
"""

from __future__ import annotations

import ast
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.cache import ResultCache, content_digest, rules_signature
from repro.analysis.flow_rules import AnalysisContext
from repro.analysis.pragmas import pragma_for, scan_pragmas
from repro.analysis.rules import (
    ANALYZER_VERSION,
    BAD_PRAGMA_RULE,
    PARSE_ERROR_RULE,
    Finding,
    Rule,
    default_rules,
)
from repro.analysis.symbols import build_symbol_graph

#: Version of the JSON report layout; tests pin it.
#: 2: findings carry a "tier" field; rule entries carry "tier".
#: 3: no "baselined" count and no per-finding "fingerprint".
REPORT_SCHEMA_VERSION = 3

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIR_NAMES.intersection(candidate.parts):
                    out.append(candidate)
        elif path.suffix == ".py" and path.is_file():
            out.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return out


def iter_native_sources(paths: Sequence[Path]) -> List[Path]:
    """Every ``_native/*.c`` source under the scanned paths (for ABI001)."""
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.c")):
                if (
                    candidate.parent.name == "_native"
                    and not _SKIP_DIR_NAMES.intersection(candidate.parts)
                ):
                    out.append(candidate)
        elif path.suffix == ".c" and path.parent.name == "_native":
            out.append(path)
    return out


def build_context(
    sources: Iterable[Tuple[str, str]],
    native_sources: Optional[Dict[str, str]] = None,
) -> AnalysisContext:
    """Pass 1: symbol graph + native sources from ``(path, text)`` pairs."""
    return AnalysisContext(
        symbols=build_symbol_graph(sources),
        native_sources=dict(native_sources or {}),
    )


def analyze_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
    context: Optional[AnalysisContext] = None,
) -> List[Finding]:
    """Run all rules over one module's source, resolving pragmas.

    Flow-tier rules receive ``context`` (None degrades gracefully: name
    resolution falls back to literal names, ABI001 stays silent).
    """
    rules = list(default_rules()) if rules is None else list(rules)
    lines = source.splitlines()

    def _line_text(line: int) -> str:
        return lines[line - 1] if 0 < line <= len(lines) else ""

    def _make(
        rule_id: str, line: int, col: int, message: str, tier: str = "ast"
    ) -> Finding:
        return Finding(
            rule=rule_id,
            path=path,
            line=line,
            col=col,
            message=message,
            snippet=_line_text(line).strip()[:160],
            tier=tier,
        )

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            _make(
                PARSE_ERROR_RULE,
                exc.lineno or 1,
                (exc.offset or 1) - 1,
                f"file does not parse: {exc.msg}",
            )
        ]

    pragmas, pragma_errors = scan_pragmas(source)
    findings = [
        _make(BAD_PRAGMA_RULE, line, col, message)
        for line, col, message in pragma_errors
    ]
    for rule in rules:
        if not rule.applies_to(path):
            continue
        tier = getattr(rule, "tier", "ast")
        if tier == "flow":
            results = rule.check(tree, path, context)
        else:
            results = rule.check(tree, path)
        for line, col, message in results:
            findings.append(_make(rule.id, line, col, message, tier))

    resolved: List[Finding] = []
    for finding in findings:
        pragma = pragma_for(pragmas, finding.rule, finding.line)
        if pragma is not None:
            finding = replace(
                finding,
                status="suppressed",
                justification=pragma.justification,
            )
        resolved.append(finding)
    resolved.sort(key=Finding.sort_key)
    return resolved


@dataclass
class AnalysisReport:
    """Aggregated results of one analyzer run."""

    findings: List[Finding]
    files_scanned: int
    paths: List[str]
    rules: List[Rule]
    cache_hits: int = 0
    cache_misses: int = 0

    def by_status(self, status: str) -> List[Finding]:
        return [f for f in self.findings if f.status == status]

    @property
    def open_findings(self) -> List[Finding]:
        return self.by_status("open")

    @property
    def exit_code(self) -> int:
        return 1 if self.open_findings else 0

    def to_json_dict(self) -> Dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "analyzer_version": ANALYZER_VERSION,
            "paths": list(self.paths),
            "files_scanned": self.files_scanned,
            "rules": [
                {
                    "id": rule.id,
                    "title": rule.title,
                    "tier": getattr(rule, "tier", "ast"),
                }
                for rule in self.rules
            ],
            "counts": {
                "open": len(self.by_status("open")),
                "suppressed": len(self.by_status("suppressed")),
            },
            "findings": [f.to_dict() for f in self.findings],
        }


# ---------------------------------------------------------------------------
# --jobs worker plumbing (top-level for pickling; state set per worker
# once via the pool initializer instead of per task)

_WORKER_RULES: Optional[List[Rule]] = None
_WORKER_CONTEXT: Optional[AnalysisContext] = None


def _init_worker(rules: List[Rule], context: Optional[AnalysisContext]) -> None:
    global _WORKER_RULES, _WORKER_CONTEXT
    _WORKER_RULES = rules
    _WORKER_CONTEXT = context


def _run_worker(item: Tuple[str, str]) -> List[Finding]:
    shown, text = item
    return analyze_source(text, shown, _WORKER_RULES, _WORKER_CONTEXT)


def analyze_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    cache: Optional[ResultCache] = None,
    root: Optional[Path] = None,
    jobs: int = 1,
) -> AnalysisReport:
    """Analyze every ``.py`` file under ``paths`` (two-pass).

    Paths in findings are rendered relative to ``root`` (default: the
    current directory) with posix separators, so reports and caches are
    machine-independent.  ``jobs > 1`` fans pass 2 out over a
    process pool; findings are identical to a serial run (gathered in
    file order, then sorted).
    """
    rules = list(default_rules()) if rules is None else list(rules)
    root = Path.cwd() if root is None else root
    files = iter_python_files([Path(p) for p in paths])

    def _shown(file_path: Path) -> str:
        try:
            return file_path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return file_path.as_posix()

    # ---- pass 1: read everything once, build the project context -------
    loaded: List[Tuple[str, bytes]] = [
        (_shown(file_path), file_path.read_bytes()) for file_path in files
    ]
    texts = {
        shown: data.decode("utf-8", errors="replace") for shown, data in loaded
    }
    native = {
        _shown(c_path): c_path.read_text(errors="replace")
        for c_path in iter_native_sources([Path(p) for p in paths])
    }
    context = build_context(
        ((shown, texts[shown]) for shown, _ in loaded), native
    )
    signature = rules_signature(rules, context.fingerprint())

    # ---- pass 2: per-file rule runs (cached / parallel) -----------------
    results: Dict[str, List[Finding]] = {}
    pending: List[Tuple[str, str]] = []
    for shown, data in loaded:
        digest = content_digest(data)
        cached = (
            cache.get(shown, digest, signature) if cache is not None else None
        )
        if cached is not None:
            results[shown] = cached
        else:
            pending.append((shown, texts[shown]))
    if pending:
        if jobs > 1:
            with ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_init_worker,
                initargs=(rules, context),
            ) as pool:
                for (shown, _), file_findings in zip(
                    pending, pool.map(_run_worker, pending)
                ):
                    results[shown] = file_findings
        else:
            for shown, text in pending:
                results[shown] = analyze_source(text, shown, rules, context)
        if cache is not None:
            digests = {shown: content_digest(data) for shown, data in loaded}
            for shown, _ in pending:
                cache.put(shown, digests[shown], signature, results[shown])

    findings: List[Finding] = []
    for shown, _ in loaded:
        findings.extend(results[shown])
    findings.sort(key=Finding.sort_key)
    return AnalysisReport(
        findings=findings,
        files_scanned=len(files),
        paths=[str(p) for p in paths],
        rules=rules,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
    )
