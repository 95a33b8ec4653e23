"""Good/bad fixture snippets for every analyzer rule.

Fixtures live in string literals so the analyzer (which scans this test
tree in CI) sees only the test code, never the violations themselves.
"""

import textwrap

import pytest

from repro.analysis import analyze_source


def findings_for(snippet, rule=None, path="fixture.py"):
    found = analyze_source(textwrap.dedent(snippet), path)
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


def open_rules(snippet, path="fixture.py"):
    return sorted(
        {f.rule for f in findings_for(snippet, path=path) if f.status == "open"}
    )


class TestDET001:
    def test_unseeded_default_rng_flagged(self):
        bad = """
        import numpy as np
        rng = np.random.default_rng()
        """
        assert [f.rule for f in findings_for(bad, "DET001")] == ["DET001"]

    def test_seeded_default_rng_clean(self):
        good = """
        import numpy as np
        rng = np.random.default_rng(42)
        """
        assert findings_for(good, "DET001") == []

    def test_global_numpy_state_flagged_even_with_args(self):
        bad = """
        import numpy as np
        np.random.seed(0)
        x = np.random.normal(0.0, 1.0, 10)
        """
        assert len(findings_for(bad, "DET001")) == 2

    def test_numpy_alias_and_from_import_resolved(self):
        bad = """
        import numpy
        from numpy.random import default_rng
        a = numpy.random.default_rng()
        b = default_rng()
        """
        assert len(findings_for(bad, "DET001")) == 2

    def test_stdlib_random_module_functions_flagged(self):
        bad = """
        import random
        random.shuffle(items)
        x = random.random()
        """
        assert len(findings_for(bad, "DET001")) == 2

    def test_seeded_stdlib_random_instance_clean(self):
        good = """
        import random
        r = random.Random(5)
        r.shuffle(items)
        """
        assert findings_for(good, "DET001") == []

    def test_generator_construction_clean(self):
        good = """
        import numpy as np
        rng = np.random.Generator(np.random.PCG64(7))
        """
        assert findings_for(good, "DET001") == []


class TestDET002:
    def test_pr2_seeding_regression_fixture_flagged(self):
        # The exact PR 2 bug class: a PYTHONHASHSEED-salted per-series seed.
        bad = """
        import numpy as np

        def series_rng(name, base):
            return np.random.default_rng(base + hash(name) % 1000)
        """
        flagged = findings_for(bad, "DET002")
        assert len(flagged) == 1 and flagged[0].status == "open"

    def test_hash_inside_dunder_hash_clean(self):
        good = """
        class Network:
            def __hash__(self):
                return hash(self._pairs)
        """
        assert findings_for(good, "DET002") == []

    def test_hash_in_other_method_flagged(self):
        bad = """
        class Network:
            def fingerprint(self):
                return hash(self._pairs)
        """
        assert len(findings_for(bad, "DET002")) == 1

    def test_nested_function_inside_dunder_hash_still_exempt(self):
        good = """
        class Network:
            def __hash__(self):
                def inner():
                    return hash(self._pairs)
                return inner()
        """
        assert findings_for(good, "DET002") == []


class TestDET003:
    def test_set_iteration_with_accumulation_flagged(self):
        bad = """
        total = 0.0
        for name in set(names):
            total += weights[name]
        """
        assert len(findings_for(bad, "DET003")) == 1

    def test_sorted_set_iteration_clean(self):
        good = """
        total = 0.0
        for name in sorted(set(names)):
            total += weights[name]
        """
        assert findings_for(good, "DET003") == []

    def test_set_iteration_without_accumulation_clean(self):
        good = """
        for name in set(names):
            print(name)
        """
        assert findings_for(good, "DET003") == []

    def test_set_iteration_feeding_rng_flagged(self):
        bad = """
        for name in {"a", "b"}:
            draws[name] = rng.integers(10)
        """
        assert len(findings_for(bad, "DET003")) == 1

    def test_listdir_iteration_flagged_unconditionally(self):
        bad = """
        import os
        for entry in os.listdir(path):
            load(entry)
        """
        flagged = findings_for(bad, "DET003")
        assert len(flagged) == 1 and "sorted" in flagged[0].message

    def test_sum_over_set_flagged(self):
        bad = """
        total = sum(set(values))
        """
        assert len(findings_for(bad, "DET003")) == 1

    def test_sum_over_comprehension_of_set_flagged(self):
        bad = """
        total = sum(w[k] for k in set(keys))
        """
        assert len(findings_for(bad, "DET003")) == 1


class TestPRIV002:
    def test_inline_scale_expression_flagged(self):
        bad = """
        from repro.dp.mechanisms import laplace_noise
        noise = laplace_noise(2.0 / epsilon, 10, rng)
        """
        assert len(findings_for(bad, "PRIV002")) == 1

    def test_scale_helper_clean(self):
        good = """
        from repro.dp.mechanisms import laplace_noise, laplace_scale
        noise = laplace_noise(laplace_scale(2.0, epsilon), 10, rng)
        """
        assert findings_for(good, "PRIV002") == []

    def test_named_precomputed_scale_clean(self):
        good = """
        noise = laplace_noise(scale, 10, rng)
        """
        assert findings_for(good, "PRIV002") == []

    def test_rng_laplace_kwarg_flagged(self):
        bad = """
        noise = rng.laplace(loc=0.0, scale=sensitivity / epsilon, size=4)
        """
        assert len(findings_for(bad, "PRIV002")) == 1

    def test_negative_constant_scale_clean(self):
        good = """
        laplace_noise(-1.0, 10, rng)
        """
        assert findings_for(good, "PRIV002") == []


class TestNUM001:
    def test_bare_np_prod_flagged(self):
        bad = """
        import numpy as np
        total = int(np.prod(sizes))
        """
        assert len(findings_for(bad, "NUM001")) == 1

    def test_object_dtype_clean(self):
        good = """
        import numpy as np
        total = int(np.prod(sizes, dtype=object))
        """
        assert findings_for(good, "NUM001") == []

    def test_int64_dtype_still_flagged(self):
        bad = """
        import numpy as np
        total = int(np.prod(sizes, dtype=np.int64))
        """
        assert len(findings_for(bad, "NUM001")) == 1

    def test_math_prod_flagged(self):
        bad = """
        import math
        total = math.prod(sizes)
        """
        assert len(findings_for(bad, "NUM001")) == 1

    def test_domain_size_helper_clean(self):
        good = """
        from repro.data.marginals import domain_size
        total = domain_size(sizes)
        """
        assert findings_for(good, "NUM001") == []


class TestEngineBasics:
    def test_syntax_error_reported_as_parse_finding(self):
        found = findings_for("def broken(:\n    pass\n")
        assert [f.rule for f in found] == ["ANA000"]
        assert found[0].status == "open"

    def test_clean_module_has_no_findings(self):
        assert (
            findings_for(
                """
                import numpy as np

                def sample(rng: np.random.Generator) -> float:
                    return float(rng.random())
                """
            )
            == []
        )

    def test_findings_sorted_with_snippets(self):
        found = findings_for(
            """
            import numpy as np
            b = np.random.default_rng()
            a = int(np.prod(sizes))
            """
        )
        assert [f.line for f in found] == sorted(f.line for f in found)
        assert [f.snippet for f in found] == [
            "b = np.random.default_rng()",
            "a = int(np.prod(sizes))",
        ]
