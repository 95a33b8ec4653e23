"""Symbol/import graph (pass 1): name resolution and fingerprinting."""

import ast

from repro.analysis.symbols import (
    ModuleSymbols,
    SymbolGraph,
    build_symbol_graph,
    module_name_for,
)


class TestModuleNames:
    def test_src_prefix_is_the_import_root(self):
        assert module_name_for("src/repro/dp/accountant.py") == "repro.dp.accountant"

    def test_package_init_names_the_package(self):
        assert module_name_for("src/repro/dp/__init__.py") == "repro.dp"

    def test_paths_outside_src_get_path_derived_names(self):
        assert module_name_for("tests/dp/test_accountant.py") == (
            "tests.dp.test_accountant"
        )
        assert module_name_for("benchmarks/conftest.py") == "benchmarks.conftest"


def graph_of(**files):
    """Build a graph from ``{posix_path_with___for_slash: source}``."""
    return build_symbol_graph(
        (path.replace("__", "/") + ".py", source)
        for path, source in files.items()
    )


class TestResolution:
    def test_direct_from_import_resolves_to_defining_module(self):
        graph = graph_of(
            src__repro__dp__accountant="def split_epsilon(t, f):\n    pass\n",
            src__repro__core__privbayes=(
                "from repro.dp.accountant import split_epsilon\n"
            ),
        )
        assert (
            graph.resolve("repro.core.privbayes", "split_epsilon")
            == "repro.dp.accountant.split_epsilon"
        )

    def test_aliased_import_resolves(self):
        graph = graph_of(
            src__repro__dp__accountant="def split_epsilon(t, f):\n    pass\n",
            src__repro__core__other=(
                "from repro.dp.accountant import split_epsilon as se\n"
            ),
        )
        assert (
            graph.resolve("repro.core.other", "se")
            == "repro.dp.accountant.split_epsilon"
        )

    def test_reexport_through_package_init_is_chased(self):
        graph = build_symbol_graph(
            [
                (
                    "src/repro/dp/accountant.py",
                    "def split_epsilon(t, f):\n    pass\n",
                ),
                (
                    "src/repro/dp/__init__.py",
                    "from repro.dp.accountant import split_epsilon\n",
                ),
                (
                    "src/repro/core/user.py",
                    "from repro.dp import split_epsilon\n",
                ),
            ]
        )
        assert (
            graph.resolve("repro.core.user", "split_epsilon")
            == "repro.dp.accountant.split_epsilon"
        )

    def test_relative_import_resolves_against_the_package(self):
        graph = graph_of(
            src__repro__dp__accountant="def split_epsilon(t, f):\n    pass\n",
            src__repro__dp__mechanisms=(
                "from .accountant import split_epsilon\n"
            ),
        )
        assert (
            graph.resolve("repro.dp.mechanisms", "split_epsilon")
            == "repro.dp.accountant.split_epsilon"
        )

    def test_module_alias_import_resolves_attribute_chain(self):
        graph = graph_of(
            src__repro__core__user="import numpy as np\n",
        )
        assert graph.resolve("repro.core.user", "np.prod") == "numpy.prod"

    def test_local_definition_wins(self):
        graph = graph_of(
            src__repro__core__user=(
                "def split_epsilon(t, f):\n    pass\n"
            ),
        )
        assert (
            graph.resolve("repro.core.user", "split_epsilon")
            == "repro.core.user.split_epsilon"
        )

    def test_unknown_names_come_back_unchanged(self):
        graph = graph_of(src__repro__core__user="x = 1\n")
        assert graph.resolve("repro.core.user", "mystery") == "mystery"
        assert graph.resolve("not.a.module", "anything") == "anything"

    def test_cyclic_reexports_terminate(self):
        graph = graph_of(
            src__a="from b import thing\n",
            src__b="from a import thing\n",
        )
        # No defining module exists; resolution must stop, not recurse.
        assert graph.resolve("a", "thing") in ("a.thing", "b.thing", "thing")

    def test_syntax_errors_are_skipped_not_fatal(self):
        graph = graph_of(
            src__ok="x = 1\n",
            src__broken="def broken(:\n",
        )
        assert "ok" in graph.modules
        assert "broken" not in graph.modules


class TestFingerprint:
    def test_deterministic_and_order_independent(self):
        first = graph_of(src__a="x = 1\n", src__b="y = 2\n")
        second = build_symbol_graph(
            [("src/b.py", "y = 2\n"), ("src/a.py", "x = 1\n")]
        )
        assert first.fingerprint() == second.fingerprint()

    def test_changes_when_a_symbol_moves_modules(self):
        before = graph_of(
            src__a="def helper():\n    pass\n",
            src__b="from a import helper\n",
        )
        after = graph_of(
            src__a="from b import helper\n",
            src__b="def helper():\n    pass\n",
        )
        assert before.fingerprint() != after.fingerprint()

    def test_insensitive_to_function_bodies(self):
        """Only the symbol surface matters, not implementations."""
        before = graph_of(src__a="def helper():\n    return 1\n")
        after = graph_of(src__a="def helper():\n    return 2\n")
        assert before.fingerprint() == after.fingerprint()


class TestScan:
    def test_scan_records_defs_and_imports(self):
        tree = ast.parse(
            "import os\n"
            "from repro.dp import accountant as acct\n"
            "X, Y = 1, 2\n"
            "class C:\n    pass\n"
            "async def f():\n    pass\n"
        )
        symbols = ModuleSymbols.scan("m", "src/m.py", tree)
        assert symbols.defs == {
            "X": "assign",
            "Y": "assign",
            "C": "class",
            "f": "function",
        }
        assert symbols.imports == {
            "os": "os",
            "acct": "repro.dp.accountant",
        }

    def test_star_imports_are_ignored(self):
        tree = ast.parse("from numpy import *\n")
        symbols = ModuleSymbols.scan("m", "src/m.py", tree)
        assert symbols.imports == {}
