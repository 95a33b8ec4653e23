"""Inline suppression pragmas.

Syntax (one comment, same line as the finding or a comment-only line
immediately above it)::

    risky_call()  # repro: allow[DET001] -- justification for the exception
    # repro: allow[DET001, NUM001] -- one justification covering both

Every pragma must carry at least one known rule id *and* a non-empty
justification after ``--``; malformed pragmas are themselves reported as
``ANA001`` findings, so a suppression can never silently rot.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.rules import KNOWN_RULE_IDS

#: A comment that is trying to be a pragma (used to catch malformed ones).
_PRAGMA_HINT = re.compile(r"#\s*repro\s*:")

_PRAGMA = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]\s*(?:--\s*(?P<why>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Pragma:
    line: int
    rules: Tuple[str, ...]
    justification: str
    #: True when the pragma's line holds nothing but the comment, in which
    #: case it applies to the *next* line.
    comment_only: bool


def scan_pragmas(
    source: str,
) -> Tuple[Dict[int, Pragma], List[Tuple[int, int, str]]]:
    """Extract pragmas from comments; also return malformed-pragma errors.

    Returns ``(pragmas_by_line, errors)`` where each error is a
    ``(line, col, message)`` triple destined for an ``ANA001`` finding.
    """
    pragmas: Dict[int, Pragma] = {}
    errors: List[Tuple[int, int, str]] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return pragmas, errors  # the parse-error finding covers this file
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        comment = token.string
        if not _PRAGMA_HINT.search(comment):
            continue
        line, col = token.start
        match = _PRAGMA.search(comment)
        if match is None:
            errors.append(
                (
                    line,
                    col,
                    "malformed pragma: expected "
                    "'# repro: allow[RULE] -- justification'",
                )
            )
            continue
        rule_ids = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        justification = (match.group("why") or "").strip()
        if not rule_ids:
            errors.append((line, col, "pragma lists no rule ids"))
            continue
        unknown = [r for r in rule_ids if r not in KNOWN_RULE_IDS]
        if unknown:
            errors.append(
                (line, col, f"pragma references unknown rule id(s) {unknown}")
            )
            continue
        if not justification:
            errors.append(
                (
                    line,
                    col,
                    f"pragma for {list(rule_ids)} carries no justification; "
                    "append '-- why this exception is sound'",
                )
            )
            continue
        prefix = lines[line - 1][:col] if line - 1 < len(lines) else ""
        pragmas[line] = Pragma(
            line=line,
            rules=rule_ids,
            justification=justification,
            comment_only=not prefix.strip(),
        )
    return pragmas, errors


def pragma_for(
    pragmas: Dict[int, Pragma], rule_id: str, line: int
) -> Pragma | None:
    """The pragma suppressing ``rule_id`` at ``line``, if any."""
    inline = pragmas.get(line)
    if inline is not None and rule_id in inline.rules:
        return inline
    above = pragmas.get(line - 1)
    if above is not None and above.comment_only and rule_id in above.rules:
        return above
    return None
