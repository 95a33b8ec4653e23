"""Flow-tier rules: good/bad fixtures for PRIV003, DET004, CONC001, ABI001.

The bad fixtures reproduce the historical bug shapes these rules were
built to pin — CONC001's is the pre-PR 8 racy ``PrivacyAccountant.spend``
(check-then-append off-lock) — and the good fixtures are the shapes the
tree actually uses today, which must stay clean.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_source
from repro.analysis.flow_rules import (
    ABI_MANIFEST,
    AnalysisContext,
    BudgetFlow,
    LockDiscipline,
    NativeAbiDrift,
    RngStreamDiscipline,
    is_budget_name,
    parse_c_abi_version,
    parse_c_exports,
)
from repro.analysis.symbols import build_symbol_graph

REPO_ROOT = Path(__file__).resolve().parents[2]


def findings_of(rule, snippet, path="fixture.py", context=None):
    tree = ast.parse(textwrap.dedent(snippet))
    return list(rule.check(tree, path, context))


def rules_hit(snippet, path="fixture.py"):
    return {
        f.rule for f in analyze_source(textwrap.dedent(snippet), path)
        if f.status == "open"
    }


# ---------------------------------------------------------------------------
# PRIV003 — budget flow


class TestBudgetFlow:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("epsilon", True),
            ("eps2", True),
            ("eps_child", True),
            ("total_epsilon", True),
            ("dataset_budget", True),
            ("eps_idx", False),
            ("epsilon_index", False),
            ("eps_count", False),
            ("epsilons", False),
            ("steps", False),
        ],
    )
    def test_is_budget_name(self, name, expected):
        """PRIV003 looks only at ε-bearing parameters; an ordinal over an
        ε grid (``eps_idx``) is not one."""
        assert is_budget_name(name) is expected

    def test_epsilon_index_parameter_does_not_activate(self):
        snippet = """
        def release(table, eps_idx, accountant):
            return table.counts()
        """
        assert findings_of(BudgetFlow(), snippet) == []
        as_epsilon = snippet.replace("eps_idx", "eps")
        assert len(findings_of(BudgetFlow(), as_epsilon)) == 1

    def test_access_before_charge_is_flagged(self):
        bad = """
        def release(table, epsilon, accountant):
            counts = table.counts()
            accountant.spend("release", epsilon)
            return counts
        """
        hits = findings_of(BudgetFlow(), bad)
        assert len(hits) == 1
        assert "table.counts" in hits[0][2]

    def test_dominating_charge_is_clean(self):
        good = """
        def release(table, epsilon, accountant):
            accountant.spend("release", epsilon)
            return table.counts()
        """
        assert findings_of(BudgetFlow(), good) == []

    def test_none_guarded_charge_still_dominates(self):
        """The PR 8 shape: PrivBayes.fit's optional external accountant."""
        good = """
        def fit(table, epsilon, accountant=None):
            if table.d == 0 or table.n == 0:
                raise ValueError("empty")
            if accountant is not None:
                accountant.spend("fit", epsilon)
            return table.counts()
        """
        assert findings_of(BudgetFlow(), good) == []

    def test_charge_on_one_branch_only_is_flagged(self):
        bad = """
        def release(table, epsilon, accountant, fast=False):
            if fast:
                accountant.spend("release", epsilon)
            return table.counts()
        """
        assert len(findings_of(BudgetFlow(), bad)) == 1

    def test_noise_call_without_charge_is_flagged(self):
        bad = """
        from repro.dp.mechanisms import laplace_noise

        def perturb(values, epsilon, accountant, rng):
            return values + laplace_noise(1.0 / epsilon, values.shape, rng)
        """
        hits = findings_of(BudgetFlow(), bad)
        assert len(hits) == 1
        assert "noise call" in hits[0][2]

    def test_charge_delegation_is_clean(self):
        """Passing the accountant into the callee hands over the duty."""
        good = """
        def serve_fit(table, epsilon, accountant):
            return fit_model(table, epsilon, accountant=accountant)
        """
        assert findings_of(BudgetFlow(), good) == []

    def test_schema_access_is_exempt(self):
        good = """
        def release(table, epsilon, accountant):
            if table.d == 0:
                raise ValueError
            names = list(table.attribute_names)
            accountant.spend("release", epsilon)
            return table.counts(), names
        """
        assert findings_of(BudgetFlow(), good) == []

    def test_inactive_without_epsilon_or_accountant(self):
        # No ε in scope: nothing to guard.
        assert (
            findings_of(
                BudgetFlow(),
                "def f(table, accountant):\n    return table.counts()\n",
            )
            == []
        )
        # No accountant in scope: PRIV003 stays out of plain helpers.
        assert (
            findings_of(
                BudgetFlow(),
                "def f(table, epsilon):\n    return table.counts()\n",
            )
            == []
        )

    def test_derived_none_alias_prunes_like_epsilon(self):
        """share = None if eps is None else ... joins the assumed set."""
        good = """
        def conditionals(table, epsilon2, accountant, pairs):
            share = None if epsilon2 is None else epsilon2
            for pair in pairs:
                if accountant is not None and share is not None:
                    accountant.charge("pair", share)
                joint = table.count_pair(pair)
        """
        assert findings_of(BudgetFlow(), good) == []

    def test_spend_without_unwind_on_failure_path_is_flagged(self):
        """The PR 8 ledger tripwire: burn-without-effect on failure."""
        bad = """
        def spend(self, label, epsilon, accountant):
            accountant.spend(label, epsilon)
            try:
                persist(label)
            except OSError:
                raise RuntimeError("persist failed")
        """
        hits = findings_of(BudgetFlow(), bad)
        assert len(hits) == 1
        assert "unwind" in hits[0][2]

    def test_spend_with_unwind_on_failure_path_is_clean(self):
        good = """
        def spend(self, label, epsilon, accountant):
            accountant.spend(label, epsilon)
            try:
                persist(label)
            except OSError:
                accountant.unwind(1)
                raise RuntimeError("persist failed")
        """
        assert findings_of(BudgetFlow(), good) == []

    def test_resolved_accountant_factory_counts(self):
        """Locals from ledger.accountant(...) are accountants too."""
        bad = """
        def serve(table, epsilon, ledger, dataset):
            acct = ledger.accountant(dataset)
            counts = table.counts()
            acct.spend("serve", epsilon)
            return counts
        """
        assert len(findings_of(BudgetFlow(), bad)) == 1


# ---------------------------------------------------------------------------
# DET004 — RNG stream discipline


class TestRngStreamDiscipline:
    def test_same_generator_in_sibling_loops_is_flagged(self):
        bad = """
        def series(rng, xs):
            first = [rng.random() for _ in xs]
            out_a = []
            for x in xs:
                out_a.append(rng.random())
            out_b = []
            for x in xs:
                out_b.append(rng.random())
            return out_a, out_b
        """
        hits = findings_of(RngStreamDiscipline(), bad)
        assert len(hits) == 1
        assert "sibling loop" in hits[0][2]

    def test_reseeded_per_loop_is_clean(self):
        good = """
        import numpy as np

        def series(xs):
            for x in xs:
                rng = np.random.default_rng(x)
                a = rng.random()
            for x in xs:
                rng = np.random.default_rng(x + 1)
                b = rng.random()
        """
        assert findings_of(RngStreamDiscipline(), good) == []

    def test_spawned_streams_are_clean(self):
        """The PR 7 sampler discipline: per-series spawn streams."""
        good = """
        def series(rng, xs):
            streams = rng.spawn(2)
            for x in xs:
                a = streams[0].random()
            for x in xs:
                b = streams[1].random()
        """
        assert findings_of(RngStreamDiscipline(), good) == []

    def test_zip_over_spawn_collection_is_clean(self):
        good = """
        def series(rng, groups):
            streams = rng.spawn(len(groups))
            for stream, group in zip(streams, groups):
                for item in group:
                    value = stream.random()
        """
        assert findings_of(RngStreamDiscipline(), good) == []

    def test_single_loop_is_clean(self):
        good = """
        def chunked(rng, chunks):
            out = []
            while chunks:
                out.append(rng.random(chunks.pop()))
            return out
        """
        assert findings_of(RngStreamDiscipline(), good) == []

    def test_generator_into_parallel_map_is_flagged(self):
        bad = """
        def parallel(rng, executor, tasks):
            return list(executor.map(run_task, tasks, [rng] * len(tasks)))
        """
        hits = findings_of(RngStreamDiscipline(), bad)
        assert len(hits) == 1
        assert "parallel" in hits[0][2]

    def test_run_in_executor_with_rng_is_flagged(self):
        bad = """
        async def draw(loop, pool, rng, counts):
            return await loop.run_in_executor(pool, sample, rng, counts)
        """
        assert len(findings_of(RngStreamDiscipline(), bad)) == 1

    def test_run_in_executor_without_rng_is_clean(self):
        """Only plain data crosses the pool: no stream to share."""
        good = """
        async def draw(loop, pool, counts):
            return await loop.run_in_executor(pool, sample, counts)
        """
        assert findings_of(RngStreamDiscipline(), good) == []

    def test_spawned_stream_into_parallel_map_is_clean(self):
        good = """
        def parallel(rng, executor, tasks):
            streams = rng.spawn(len(tasks))
            return list(executor.map(run_task, tasks, streams))
        """
        assert findings_of(RngStreamDiscipline(), good) == []


# ---------------------------------------------------------------------------
# CONC001 — lock discipline


#: The pre-PR 8 PrivacyAccountant.spend: budget check and ledger append
#: race off-lock (two threads both pass the check, the budget overdraws).
RACY_ACCOUNTANT = """
import threading


class RacyAccountant:
    def __init__(self, total):
        self.total = total
        self._ledger = []
        self._lock = threading.Lock()

    def spend(self, label, epsilon):
        if sum(e for _, e in self._ledger) + epsilon > self.total:
            raise RuntimeError("over budget")
        self._ledger.append((label, epsilon))

    def unwind(self, count):
        with self._lock:
            for _ in range(count):
                self._ledger.pop()
"""

#: Today's shape: check-then-append atomically under the lock.
FIXED_ACCOUNTANT = """
import threading


class FixedAccountant:
    def __init__(self, total):
        self.total = total
        self._ledger = []
        self._lock = threading.Lock()

    def spend(self, label, epsilon):
        with self._lock:
            if sum(e for _, e in self._ledger) + epsilon > self.total:
                raise RuntimeError("over budget")
            self._ledger.append((label, epsilon))

    def unwind(self, count):
        with self._lock:
            for _ in range(count):
                self._ledger.pop()
"""


class TestLockDiscipline:
    def test_pre_pr8_racy_accountant_is_flagged(self):
        hits = findings_of(LockDiscipline(), RACY_ACCOUNTANT)
        messages = [message for _, _, message in hits]
        # Both halves of the race: the off-lock read (check) and the
        # off-lock append (act).
        assert any("read here" in m for m in messages)
        assert any("write here" in m for m in messages)

    def test_fixed_accountant_is_clean(self):
        assert findings_of(LockDiscipline(), FIXED_ACCOUNTANT) == []

    def test_init_writes_are_exempt(self):
        # RACY's __init__ also writes _ledger off-lock; none of the
        # reported lines may point there.
        hits = findings_of(LockDiscipline(), RACY_ACCOUNTANT)
        init_lines = range(6, 10)
        assert all(line not in init_lines for line, _, _ in hits)

    def test_locked_suffix_methods_are_exempt(self):
        good = """
        import threading


        class Ledger:
            def __init__(self):
                self._entries = []
                self._lock = threading.Lock()

            def add(self, entry):
                with self._lock:
                    self._entries.append(entry)
                    self._persist_locked()

            def _persist_locked(self):
                dump(self._entries)
        """
        assert findings_of(LockDiscipline(), good) == []

    def test_helper_called_only_from_init_is_exempt(self):
        good = """
        import threading


        class Registry:
            def __init__(self, path):
                self._models = {}
                self._lock = threading.Lock()
                self._load(path)

            def _load(self, path):
                self._models = read(path)

            def put(self, key, model):
                with self._lock:
                    self._models[key] = model
        """
        assert findings_of(LockDiscipline(), good) == []

    def test_lone_snapshot_read_is_tolerated(self):
        """A read-only monitor method is a benign race, not check-then-act."""
        good = """
        import threading


        class Counter:
            def __init__(self):
                self._n = 0
                self._lock = threading.Lock()

            def bump(self):
                with self._lock:
                    self._n += 1

            @property
            def value(self):
                return self._n
        """
        assert findings_of(LockDiscipline(), good) == []

    def test_local_lock_alias_counts_as_held(self):
        good = """
        import threading


        class Holder:
            def __init__(self):
                self._state = {}
                self._lock = threading.Lock()

            def update(self, key, value):
                lock = self._lock
                with lock:
                    self._state[key] = value

            def drop(self, key):
                with self._lock:
                    self._state.pop(key, None)
        """
        assert findings_of(LockDiscipline(), good) == []

    def test_classes_without_locks_are_ignored(self):
        assert (
            findings_of(
                LockDiscipline(),
                "class Plain:\n    def f(self):\n        self.x = 1\n",
            )
            == []
        )

    def test_todays_concurrency_sensitive_modules_are_clean(self):
        """Regression pin for the ISSUE's named files: the analyzer must
        pass on today's lock usage in serve/ and dp/."""
        for rel in (
            "src/repro/serve/ledger.py",
            "src/repro/serve/registry.py",
            "src/repro/serve/coalescer.py",
            "src/repro/dp/accountant.py",
        ):
            source = (REPO_ROOT / rel).read_text()
            hits = findings_of(LockDiscipline(), source, rel)
            assert hits == [], f"{rel}: {hits}"


# ---------------------------------------------------------------------------
# ABI001 — native ABI drift


GOOD_C = """
#define REPRO_SCOREF_ABI 1

int64_t repro_scoref_abi_version(void) { return REPRO_SCOREF_ABI; }

int repro_score_f_batch(const int64_t *c0, const int64_t *c1,
                        int64_t count, int64_t m, int64_t n,
                        double *out) {
    return 0;
}
"""

GOOD_PY = """
import ctypes

ABI_VERSION = 1


class Backend:
    def __init__(self, library):
        version = library.repro_scoref_abi_version
        version.restype = ctypes.c_int64
        version.argtypes = []
        score = library.repro_score_f_batch
        score.restype = ctypes.c_int
        score.argtypes = [
            ctypes.POINTER(ctypes.c_int64),
            ctypes.POINTER(ctypes.c_int64),
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_double),
        ]
"""

KERNEL_PATH = "src/repro/core/kernel_backend.py"


def abi_context(c_source):
    return AnalysisContext(
        symbols=build_symbol_graph([]),
        native_sources={"src/repro/core/_native/scoref.c": c_source},
    )


class TestNativeAbiDrift:
    def test_parse_c_exports(self):
        exports = parse_c_exports(GOOD_C)
        assert exports["repro_scoref_abi_version"] == ("int64_t", ())
        assert exports["repro_score_f_batch"] == (
            "int",
            ("int64_t*", "int64_t*", "int64_t", "int64_t", "int64_t", "double*"),
        )
        assert parse_c_abi_version(GOOD_C) == 1

    def test_matching_declarations_are_clean(self):
        hits = findings_of(
            NativeAbiDrift(), GOOD_PY, KERNEL_PATH, abi_context(GOOD_C)
        )
        assert hits == []

    def test_signature_drift_is_flagged(self):
        drifted = GOOD_C.replace("int64_t m, int64_t n", "int64_t m")
        hits = findings_of(
            NativeAbiDrift(), GOOD_PY, KERNEL_PATH, abi_context(drifted)
        )
        assert any("signature drift" in message for _, _, message in hits)

    def test_version_disagreement_is_flagged(self):
        bumped_c_only = GOOD_C.replace(
            "#define REPRO_SCOREF_ABI 1", "#define REPRO_SCOREF_ABI 2"
        )
        hits = findings_of(
            NativeAbiDrift(), GOOD_PY, KERNEL_PATH, abi_context(bumped_c_only)
        )
        assert any("disagrees" in message for _, _, message in hits)

    def test_new_export_without_declaration_is_flagged(self):
        grown = GOOD_C + "\nint repro_new_kernel(int64_t n) { return 0; }\n"
        hits = findings_of(
            NativeAbiDrift(), GOOD_PY, KERNEL_PATH, abi_context(grown)
        )
        assert any("no ctypes declaration" in message for _, _, message in hits)

    def test_surface_change_without_bump_hits_the_manifest(self):
        """A C-side change that keeps the declarations in sync but skips
        the version bump still trips the recorded manifest."""
        renamed = GOOD_C.replace("double *out", "float *out")
        synced_py = GOOD_PY.replace("c_double", "c_float")
        hits = findings_of(
            NativeAbiDrift(), synced_py, KERNEL_PATH, abi_context(renamed)
        )
        assert any("manifest" in message for _, _, message in hits)

    def test_unrecorded_version_is_flagged(self):
        bumped_everywhere = GOOD_C.replace(
            "#define REPRO_SCOREF_ABI 1", "#define REPRO_SCOREF_ABI 99"
        )
        bumped_py = GOOD_PY.replace("ABI_VERSION = 1", "ABI_VERSION = 99")
        hits = findings_of(
            NativeAbiDrift(),
            bumped_py,
            KERNEL_PATH,
            abi_context(bumped_everywhere),
        )
        assert any("not recorded" in message for _, _, message in hits)

    def test_silent_without_context(self):
        assert findings_of(NativeAbiDrift(), GOOD_PY, KERNEL_PATH, None) == []

    def test_only_applies_to_kernel_backend(self):
        rule = NativeAbiDrift()
        assert rule.applies_to(KERNEL_PATH)
        assert not rule.applies_to("src/repro/core/privbayes.py")

    def test_byte_buffer_declared_as_int64_is_flagged(self):
        """A ``const uint8_t *`` parameter driven as ``POINTER(c_int64)``
        is drift: ctypes would pass eight-byte strides over a byte block."""
        c_source = GOOD_C + """
int repro_csv_tokenize(const uint8_t *data, int64_t nbytes) {
    return 0;
}
"""
        declared = GOOD_PY + """
        tokenize = library.repro_csv_tokenize
        tokenize.restype = ctypes.c_int
        tokenize.argtypes = [
            ctypes.POINTER(ctypes.c_int64),
            ctypes.c_int64,
        ]
"""
        hits = findings_of(
            NativeAbiDrift(), declared, KERNEL_PATH, abi_context(c_source)
        )
        assert any(
            "signature drift" in message and "uint8_t*" in message
            for _, _, message in hits
        )
        matched = declared.replace(
            "ctypes.POINTER(ctypes.c_int64),\n            ctypes.c_int64,\n        ]",
            "ctypes.POINTER(ctypes.c_uint8),\n            ctypes.c_int64,\n        ]",
        )
        hits = findings_of(
            NativeAbiDrift(), matched, KERNEL_PATH, abi_context(c_source)
        )
        assert not any("signature drift" in message for _, _, message in hits)

    def test_recorded_manifest_matches_the_tree(self):
        """ABI_MANIFEST v4 is exactly today's scoref.c exported surface."""
        c_source = (
            REPO_ROOT / "src/repro/core/_native/scoref.c"
        ).read_text()
        assert parse_c_abi_version(c_source) == 4
        assert parse_c_exports(c_source) == ABI_MANIFEST[4]


# ---------------------------------------------------------------------------
# engine integration: tier tagging and pragma machinery for flow rules


class TestFlowTierIntegration:
    def test_flow_findings_carry_the_flow_tier(self):
        bad = """
        def release(table, epsilon, accountant):
            counts = table.counts()
            accountant.spend("release", epsilon)
            return counts
        """
        findings = analyze_source(textwrap.dedent(bad), "fixture.py")
        priv = [f for f in findings if f.rule == "PRIV003"]
        assert len(priv) == 1
        assert priv[0].tier == "flow"
        assert all(
            f.tier == "ast" for f in findings if f.rule != "PRIV003"
        )

    def test_pragmas_suppress_flow_rules_too(self):
        suppressed = """
        def release(table, epsilon, accountant):
            # repro: allow[PRIV003] -- fixture: charge happens in the caller
            counts = table.counts()
            accountant.spend("release", epsilon)
            return counts
        """
        findings = analyze_source(textwrap.dedent(suppressed), "fixture.py")
        (priv,) = [f for f in findings if f.rule == "PRIV003"]
        assert priv.status == "suppressed"
        assert priv.justification == "fixture: charge happens in the caller"

    def test_racy_accountant_hits_conc001_via_the_engine(self):
        assert "CONC001" in rules_hit(RACY_ACCOUNTANT)

    def test_sibling_loop_draw_hits_det004_via_the_engine(self):
        assert "DET004" in rules_hit(
            """
            def series(rng, xs):
                for x in xs:
                    a = rng.random()
                for x in xs:
                    b = rng.random()
            """
        )
