"""ModelRegistry: resident models, warm restarts, validated loads."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.privbayes import PrivBayes, PrivBayesConfig, PrivBayesModel
from repro.datasets.synthetic import random_binary_table
from repro.serve.registry import ModelRegistry, registry_key


@pytest.fixture
def table():
    return random_binary_table(n=500, d=4, seed=5)


@pytest.fixture
def fitted(table):
    return PrivBayes(epsilon=1.0).fit(table, np.random.default_rng(3))


class TestResident:
    def test_put_get_roundtrip(self, fitted):
        registry = ModelRegistry(None)
        registry.put("demo", fitted)
        assert registry.get("demo", fitted.config) is fitted
        assert len(registry) == 1

    def test_get_miss_on_different_config(self, fitted):
        registry = ModelRegistry(None)
        registry.put("demo", fitted)
        other = PrivBayesConfig(epsilon=2.0)
        assert registry.get("demo", other) is None
        assert registry.get("elsewhere", fitted.config) is None

    def test_put_warms_sampling_caches(self, fitted):
        registry = ModelRegistry(None)
        registry.put("demo", fitted)
        for conditional in fitted.noisy.conditionals:
            assert getattr(conditional, "_row_cdfs", None) is not None

    def test_registry_key_is_stable(self, fitted):
        key = registry_key("demo", fitted.config)
        assert key == registry_key("demo", fitted.config)
        assert key != registry_key("demo2", fitted.config)
        assert key != registry_key("demo", PrivBayesConfig(epsilon=2.0))


class TestWarmRestart:
    def test_restart_roundtrip_samples_bit_identically(self, tmp_path, fitted):
        registry = ModelRegistry(tmp_path)
        registry.put("demo", fitted)

        reloaded = ModelRegistry(tmp_path)  # a fresh "process"
        model = reloaded.get("demo", fitted.config)
        assert model is not None
        assert model.source_n == fitted.source_n
        assert model.k == fitted.k
        assert model.config == fitted.config
        assert model.accountant.ledger == fitted.accountant.ledger
        before = fitted.sample(256, np.random.default_rng(9))
        after = model.sample(256, np.random.default_rng(9))
        for name in before.attribute_names:
            np.testing.assert_array_equal(
                before.column(name), after.column(name)
            )

    def test_restart_holds_multiple_entries(self, tmp_path, table, fitted):
        registry = ModelRegistry(tmp_path)
        registry.put("demo", fitted)
        second = PrivBayes(epsilon=2.0).fit(table, np.random.default_rng(4))
        registry.put("demo", second)
        reloaded = ModelRegistry(tmp_path)
        assert len(reloaded) == 2
        assert [dataset for dataset, _ in reloaded.entries()] == ["demo", "demo"]

    def test_corrupt_entry_refused_naming_file(self, tmp_path, fitted):
        registry = ModelRegistry(tmp_path)
        registry.put("demo", fitted)
        entry = next(tmp_path.glob("*.json"))
        text = entry.read_text()
        entry.write_text(text[: len(text) // 2])  # truncated write
        with pytest.raises(ValueError, match=entry.name):
            ModelRegistry(tmp_path)

    def test_damaged_conditional_refused(self, tmp_path, fitted):
        registry = ModelRegistry(tmp_path)
        registry.put("demo", fitted)
        entry = next(tmp_path.glob("*.json"))
        doc = json.loads(entry.read_text())
        doc["model"]["conditionals"][0]["matrix"][0][0] = -1.0
        entry.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="negative"):
            ModelRegistry(tmp_path)

    @pytest.mark.parametrize(
        "field, message",
        [("ledger", "replayed charge"), ("epsilon", "epsilon must be a finite")],
    )
    def test_nan_epsilon_refused_naming_file(
        self, tmp_path, fitted, field, message
    ):
        registry = ModelRegistry(tmp_path)
        registry.put("demo", fitted)
        entry = next(tmp_path.glob("*.json"))
        doc = json.loads(entry.read_text())
        if field == "ledger":
            doc["ledger"][0][1] = float("nan")
        else:
            doc["config"]["epsilon"] = float("nan")
        entry.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{entry.name}.*{message}"):
            ModelRegistry(tmp_path)

    def test_entry_without_network_child_refused_naming_file(
        self, tmp_path, fitted
    ):
        registry = ModelRegistry(tmp_path)
        registry.put("demo", fitted)
        entry = next(tmp_path.glob("*.json"))
        doc = json.loads(entry.read_text())
        del doc["model"]["network"][0]["child"]
        entry.write_text(json.dumps(doc))
        with pytest.raises(
            ValueError,
            match=rf"{entry.name}: model\.network\[0\]: missing key 'child'",
        ):
            ModelRegistry(tmp_path)

    def test_entry_that_is_not_an_object_refused_naming_file(
        self, tmp_path, fitted
    ):
        registry = ModelRegistry(tmp_path)
        registry.put("demo", fitted)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text(json.dumps([json.loads(entry.read_text())]))
        with pytest.raises(
            ValueError, match=f"{entry.name}: expected an object; got a list"
        ):
            ModelRegistry(tmp_path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (
                lambda d: d["model"]["attributes"].append(
                    dict(d["model"]["attributes"][0], name="extra_col")
                ),
                r"model's network does not place schema attribute\(s\) "
                r"\['extra_col'\]",
            ),
            (
                lambda d: d["model"]["attributes"].append(
                    d["model"]["attributes"][0]
                ),
                r"schema repeats attribute name\(s\) \['x0'\]",
            ),
            (
                lambda d: d["config"].__setitem__("first_attribute", {}),
                "first_attribute must be an attribute name; got {}",
            ),
            (
                lambda d: d["config"].__setitem__("generalize", []),
                r"generalize must be True or False; got \[\]",
            ),
            (
                lambda d: d["config"].__setitem__("epsilon", True),
                "epsilon must be a finite positive number; got True",
            ),
            (
                lambda d: d["ledger"][0].__setitem__(1, "0.3"),
                r"ledger\[0\]\[1\]: expected a number; got '0.3'",
            ),
            (
                lambda d: d.__setitem__("registry_version", True),
                "registry_version: unsupported version True",
            ),
            (
                lambda d: d["model"].__setitem__("format_version", True),
                r"model\.format_version: unsupported version True",
            ),
            (
                lambda d: d.__setitem__("k", []),
                "k: expected an integer; got a list",
            ),
            (
                lambda d: d.__setitem__("source_n", float("inf")),
                "source_n: expected an integer; got inf",
            ),
            (
                lambda d: d.__setitem__("source_n", True),
                "source_n: expected an integer; got True",
            ),
            (
                lambda d: d.__setitem__("k", "3"),
                "k: expected an integer; got '3'",
            ),
            (
                lambda d: d.__setitem__("dataset", 5),
                "dataset: expected a string; got 5",
            ),
            (
                lambda d: d["ledger"][0].__setitem__(0, 5),
                r"ledger\[0\]\[0\]: expected a string; got 5",
            ),
            (
                lambda d: d["config"].__setitem__("k", "3"),
                "config: k must be an integer; got '3'",
            ),
        ],
        ids=[
            "unplaced-attribute", "repeated-attribute", "object-first",
            "list-switch", "bool-epsilon", "string-charge", "bool-version",
            "bool-model-version", "list-k", "infinite-source-n",
            "bool-source-n", "string-k", "integer-dataset", "integer-label",
            "string-config-k",
        ],
    )
    def test_entry_refused_naming_file(
        self, tmp_path, fitted, damage, message
    ):
        """Each of these used to load (the first two then failed at every
        draw; the last five loaded converted by ``int()`` or ``str()``), or
        raised a bare TypeError."""
        ModelRegistry(tmp_path).put("demo", fitted)
        entry = next(tmp_path.glob("*.json"))
        doc = json.loads(entry.read_text())
        damage(doc)
        entry.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{entry.name}.*{message}"):
            ModelRegistry(tmp_path)

    def test_taxonomy_index_too_large_refused_naming_file(
        self, tmp_path, mixed_table
    ):
        """A taxonomy parent index of 1e308 raised a bare OverflowError."""
        fitted = PrivBayes(epsilon=1.0, generalize=True).fit(
            mixed_table, np.random.default_rng(3)
        )
        ModelRegistry(tmp_path).put("mixed", fitted)
        entry = next(tmp_path.glob("*.json"))
        doc = json.loads(entry.read_text())
        index, attribute = next(
            (i, a)
            for i, a in enumerate(doc["model"]["attributes"])
            if "taxonomy" in a
        )
        attribute["taxonomy"]["levels"][0]["parents"][0] = 1e308
        entry.write_text(json.dumps(doc))
        with pytest.raises(
            ValueError,
            match=rf"{entry.name}: model\.attributes\[{index}\]\.taxonomy"
            r"\.levels\[0\]\.parents\[0\]: expected an integer",
        ):
            ModelRegistry(tmp_path)

    def test_unsupported_version_refused(self, tmp_path, fitted):
        registry = ModelRegistry(tmp_path)
        registry.put("demo", fitted)
        entry = next(tmp_path.glob("*.json"))
        doc = json.loads(entry.read_text())
        doc["registry_version"] = 99
        entry.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            ModelRegistry(tmp_path)


GOLDEN_ENTRY = (
    Path(__file__).resolve().parent.parent / "golden_documents" / "adult__cb5d986b.json"
)


def _golden_root(tmp_path, edit=None, name=GOLDEN_ENTRY.name):
    """A registry root holding the golden Adult entry as ``name``, after
    ``edit`` changed its document."""
    doc = json.loads(GOLDEN_ENTRY.read_text())
    if edit is not None:
        edit(doc)
    (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path / name


class TestEntryIdentity:
    """Each of these loaded before the registry checked them."""

    def test_golden_entry_loads(self, tmp_path):
        _golden_root(tmp_path)
        assert len(ModelRegistry(tmp_path)) == 1

    def test_charges_past_the_entry_epsilon_refused(self, tmp_path):
        """ε 1.0 with one 5.0 charge loaded with ``remaining`` -4.0."""
        entry = _golden_root(
            tmp_path,
            lambda doc: doc.__setitem__("ledger", [["network-learning", 5.0]]),
        )
        with pytest.raises(
            ValueError,
            match=rf"{entry.name}: ledger: records ε spend 5 exceeding its "
            "total budget 1",
        ):
            ModelRegistry(tmp_path)

    def test_copy_under_another_name_refused(self, tmp_path):
        """A copy named ``zzz.json`` replaced the golden entry without a
        word: one entry loaded, with the copy's charges."""
        _golden_root(tmp_path)
        copy = _golden_root(
            tmp_path,
            lambda doc: doc.__setitem__("ledger", [["network-learning", 0.3]]),
            name="zzz.json",
        )
        with pytest.raises(
            ValueError,
            match=rf"{copy.name}: an entry for its dataset and config is "
            rf"stored as '{GOLDEN_ENTRY.name}', not 'zzz.json'",
        ):
            ModelRegistry(tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.__setitem__("dataset", "census"),
            lambda doc: doc["config"].__setitem__("epsilon", 2.0),
            lambda doc: doc["config"].__setitem__("first_attribute", "age"),
        ],
        ids=["dataset", "epsilon", "first-attribute"],
    )
    def test_edited_key_refused(self, tmp_path, edit):
        """An entry whose dataset or config was edited loaded under a key
        its file name does not match."""
        entry = _golden_root(tmp_path, edit)
        with pytest.raises(
            ValueError, match=rf"{entry.name}: an entry .* is stored as"
        ):
            ModelRegistry(tmp_path)

    @pytest.mark.parametrize("source_n", [-1, 0])
    def test_source_n_below_one_refused(self, tmp_path, source_n):
        """``source_n`` -1 loaded, and every default-size draw then failed
        with an error naming no file."""
        entry = _golden_root(
            tmp_path, lambda doc: doc.__setitem__("source_n", source_n)
        )
        with pytest.raises(
            ValueError,
            match=rf"{entry.name}: source_n: source_n must be a positive "
            rf"integer; got {source_n}",
        ):
            ModelRegistry(tmp_path)


def test_model_refuses_source_n_below_one(fitted):
    with pytest.raises(ValueError, match="source_n must be a positive integer"):
        PrivBayesModel(
            noisy=fitted.noisy,
            table_attributes=fitted.table_attributes,
            source_n=0,
            config=fitted.config,
            accountant=fitted.accountant,
        )
