"""Suppression-pragma tests: a written pragma is the only way to accept a
finding."""

import textwrap

from repro.analysis import analyze_source
from repro.analysis.pragmas import scan_pragmas


def analyzed(snippet, path="fixture.py"):
    return analyze_source(textwrap.dedent(snippet), path)


class TestPragmas:
    def test_inline_pragma_suppresses_and_records_justification(self):
        found = analyzed(
            """
            import numpy as np
            rng = np.random.default_rng()  # repro: allow[DET001] -- fixture sink
            """
        )
        assert [(f.rule, f.status) for f in found] == [("DET001", "suppressed")]
        assert found[0].justification == "fixture sink"

    def test_comment_only_line_above_suppresses(self):
        found = analyzed(
            """
            import numpy as np
            # repro: allow[DET001] -- fixture sink
            rng = np.random.default_rng()
            """
        )
        assert [(f.rule, f.status) for f in found] == [("DET001", "suppressed")]

    def test_pragma_is_rule_specific(self):
        found = analyzed(
            """
            import numpy as np
            total = int(np.prod(np.random.default_rng().integers(1, 9, 4)))  # repro: allow[DET001] -- fixture sink
            """
        )
        by_rule = {f.rule: f.status for f in found}
        assert by_rule == {"DET001": "suppressed", "NUM001": "open"}

    def test_multi_rule_pragma(self):
        found = analyzed(
            """
            import numpy as np
            total = int(np.prod(np.random.default_rng().integers(1, 9, 4)))  # repro: allow[DET001,NUM001] -- fixture covering both
            """
        )
        assert {f.status for f in found} == {"suppressed"}

    def test_missing_justification_is_rejected(self):
        found = analyzed(
            """
            import numpy as np
            rng = np.random.default_rng()  # repro: allow[DET001]
            """
        )
        by_rule = {f.rule: f.status for f in found}
        # The bad pragma is itself a finding, and does NOT suppress.
        assert by_rule == {"ANA001": "open", "DET001": "open"}

    def test_unknown_rule_id_is_rejected(self):
        found = analyzed(
            """
            x = 1  # repro: allow[NOPE999] -- not a rule
            """
        )
        assert [f.rule for f in found] == ["ANA001"]
        assert "NOPE999" in found[0].message

    def test_pragma_for_the_deleted_priv001_is_rejected(self):
        """PRIV001 is gone: a leftover pragma naming it is an open ANA001,
        so the gate cannot pass with one in the tree."""
        found = analyzed(
            """
            share = epsilon / 2  # repro: allow[PRIV001] -- calibration
            """
        )
        assert [(f.rule, f.status) for f in found] == [("ANA001", "open")]
        assert "PRIV001" in found[0].message

    def test_empty_rule_list_is_rejected(self):
        found = analyzed(
            """
            x = 1  # repro: allow[] -- nothing
            """
        )
        assert [f.rule for f in found] == ["ANA001"]

    def test_unused_pragma_is_harmless(self):
        found = analyzed(
            """
            x = 1  # repro: allow[DET001] -- nothing here triggers it
            """
        )
        assert found == []

    def test_scan_pragmas_parses_fields(self):
        pragmas, errors = scan_pragmas(
            "x = 1  # repro: allow[DET001,PRIV003] -- why not\n"
        )
        assert errors == []
        pragma = pragmas[1]
        assert pragma.rules == ("DET001", "PRIV003")
        assert pragma.justification == "why not"
        assert not pragma.comment_only
