"""Bayesian network structure: AP pairs, ordering, DAG invariants."""

import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.bn.network import APPair, BayesianNetwork


class TestAPPair:
    def test_make_normalizes_strings(self):
        pair = APPair.make("x", ["b", "a"])
        assert pair.parents == (("a", 0), ("b", 0))
        assert pair.parent_names == ("a", "b")
        assert pair.degree == 2

    def test_make_accepts_levels(self):
        pair = APPair.make("x", [("a", 1), "b"])
        assert ("a", 1) in pair.parents

    def test_child_cannot_be_parent(self):
        with pytest.raises(ValueError, match="own parent"):
            APPair.make("x", ["x"])

    def test_duplicate_parents_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            APPair.make("x", ["a", ("a", 1)])

    def test_str_rendering(self):
        pair = APPair.make("x", [("a", 1), "b"])
        assert "a^(1)" in str(pair)
        assert "x" in str(pair)


class TestBayesianNetwork:
    def test_construction_order_is_topological(self):
        net = BayesianNetwork(
            [
                APPair.make("a", []),
                APPair.make("b", ["a"]),
                APPair.make("c", ["a", "b"]),
            ]
        )
        assert net.attribute_order == ("a", "b", "c")
        assert net.degree == 2
        assert net.d == 3

    def test_forward_edge_rejected(self):
        with pytest.raises(ValueError, match="precede"):
            BayesianNetwork([APPair.make("a", ["b"]), APPair.make("b", [])])

    def test_duplicate_child_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            BayesianNetwork([APPair.make("a", []), APPair.make("a", [])])

    def test_edges(self):
        net = BayesianNetwork(
            [APPair.make("a", []), APPair.make("b", ["a"])]
        )
        assert net.edges() == [("a", "b")]

    def test_equality_and_hash(self):
        n1 = BayesianNetwork([APPair.make("a", [])])
        n2 = BayesianNetwork([APPair.make("a", [])])
        assert n1 == n2
        # repro: allow[DET002] -- asserting the in-process __hash__/__eq__ contract itself
        assert hash(n1) == hash(n2)

    def test_empty_network(self):
        net = BayesianNetwork([])
        assert net.d == 0
        assert net.degree == 0


_FINGERPRINT_SNIPPET = """
from repro.bn.network import APPair, BayesianNetwork

net = BayesianNetwork(
    [
        APPair.make("age", []),
        APPair.make("income", ["age"]),
        APPair.make("edu", [("age", 1), "income"]),
    ]
)
print(net.stable_fingerprint())
"""


class TestStableFingerprint:
    def _net(self):
        return BayesianNetwork(
            [
                APPair.make("age", []),
                APPair.make("income", ["age"]),
                APPair.make("edu", [("age", 1), "income"]),
            ]
        )

    def test_equal_networks_share_a_fingerprint(self):
        assert self._net().stable_fingerprint() == self._net().stable_fingerprint()

    def test_structure_changes_change_the_fingerprint(self):
        base = self._net().stable_fingerprint()
        other = BayesianNetwork(
            [
                APPair.make("age", []),
                APPair.make("income", ["age"]),
                APPair.make("edu", ["age", "income"]),  # level 1 -> 0
            ]
        ).stable_fingerprint()
        assert base != other

    def test_fingerprint_is_crc32_of_the_documented_payload(self):
        # Pin the derivation: anyone (any process, any language) can recompute it.
        payload = "age|;income|age^0;edu|age^1,income^0"
        assert self._net().stable_fingerprint() == zlib.crc32(
            payload.encode("utf-8")
        )

    def test_fingerprint_stable_across_hashseeds(self):
        """Two subprocesses with different PYTHONHASHSEED agree bit-for-bit.

        ``__hash__`` is allowed to differ between these processes (it is
        documented as in-process only); ``stable_fingerprint`` is not.
        """
        src = str(Path(__file__).resolve().parents[2] / "src")
        values = []
        for hashseed in ("0", "424242"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = src + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            proc = subprocess.run(
                [sys.executable, "-c", _FINGERPRINT_SNIPPET],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            values.append(int(proc.stdout.strip()))
        assert values[0] == values[1]
