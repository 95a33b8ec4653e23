"""Per-file result caching.

Findings are a pure function of (file bytes, rule set), so repeated runs —
the common local loop of fix / re-run — only re-analyze files whose content
hash changed.  The cache stores findings *after* pragma resolution: pragmas
live in the file content, hence in the hash, so a cached finding's status
is final.

The cache file is local state (gitignored), versioned by
``ANALYZER_VERSION`` plus the active rule ids so rule changes invalidate it
wholesale.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.rules import ANALYZER_VERSION, Finding, Rule

DEFAULT_CACHE_NAME = ".repro_analysis_cache.json"


def content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rules_signature(rules: Sequence[Rule], context_fingerprint: str = "") -> str:
    """Cache signature: analyzer version + active rules + pass-1 context.

    The context fingerprint covers the project symbol graph and the
    native C sources, so cross-file changes invalidate cached flow-tier
    findings even when the cached file itself is byte-identical.
    """
    base = ANALYZER_VERSION + ":" + ",".join(sorted(rule.id for rule in rules))
    if context_fingerprint:
        base += "+ctx:" + context_fingerprint
    return base


class ResultCache:
    """A JSON-file cache of per-file findings."""

    def __init__(self, path: Optional[Path]):
        self.path = path
        self._entries: Dict[str, Dict] = {}
        self.hits = 0
        self.misses = 0
        if path is not None and path.is_file():
            try:
                data = json.loads(path.read_text())
                if isinstance(data, dict):
                    self._entries = data.get("files", {})
            except (json.JSONDecodeError, OSError):
                self._entries = {}

    def get(
        self, file_path: str, digest: str, signature: str
    ) -> Optional[List[Finding]]:
        entry = self._entries.get(file_path)
        if (
            entry is None
            or entry.get("digest") != digest
            or entry.get("signature") != signature
        ):
            self.misses += 1
            return None
        self.hits += 1
        return [Finding.from_dict(d) for d in entry["findings"]]

    def put(
        self,
        file_path: str,
        digest: str,
        signature: str,
        findings: List[Finding],
    ) -> None:
        self._entries[file_path] = {
            "digest": digest,
            "signature": signature,
            "findings": [f.to_dict() for f in findings],
        }

    def save(self) -> None:
        if self.path is None:
            return
        payload = {"cache_version": 1, "files": self._entries}
        self.path.write_text(json.dumps(payload) + "\n")
