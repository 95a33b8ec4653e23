"""Model serialization: JSON round trips, resampling equivalence."""

import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from repro.core.privbayes import PrivBayes
from repro.core.sampler import sample_synthetic
from repro.core.serialize import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.data.marginals import domain_size, joint_distribution


@pytest.fixture
def fitted(mixed_table, rng):
    model = PrivBayes(epsilon=1.0, generalize=True).fit(mixed_table, rng=rng)
    return model, mixed_table


class TestRoundTrip:
    def test_dict_roundtrip_preserves_structure(self, fitted):
        model, table = fitted
        data = model_to_dict(model.noisy, table.attributes)
        restored, attributes = model_from_dict(data)
        assert restored.network == model.noisy.network
        assert [a.name for a in attributes] == list(table.attribute_names)

    def test_dict_roundtrip_preserves_conditionals(self, fitted):
        model, table = fitted
        restored, _ = model_from_dict(model_to_dict(model.noisy, table.attributes))
        for original, loaded in zip(model.noisy.conditionals, restored.conditionals):
            assert original.child == loaded.child
            assert original.parents == loaded.parents
            assert np.allclose(original.matrix, loaded.matrix)

    def test_file_roundtrip(self, fitted, tmp_path):
        model, table = fitted
        path = tmp_path / "model.json"
        save_model(model.noisy, table.attributes, path)
        restored, attributes = load_model(path)
        assert restored.network == model.noisy.network

    def test_taxonomies_survive(self, fitted, tmp_path):
        model, table = fitted
        path = tmp_path / "model.json"
        save_model(model.noisy, table.attributes, path)
        _, attributes = load_model(path)
        color = next(a for a in attributes if a.name == "color")
        assert color.taxonomy is not None
        assert color.taxonomy.height == table.attribute("color").taxonomy.height
        assert (
            color.taxonomy.leaf_to_level(1).tolist()
            == table.attribute("color").taxonomy.leaf_to_level(1).tolist()
        )

    def test_json_is_plain(self, fitted):
        model, table = fitted
        text = json.dumps(model_to_dict(model.noisy, table.attributes))
        assert isinstance(text, str)  # no numpy leakage

    def test_resampling_from_restored_model(self, fitted, tmp_path):
        """A reloaded model samples from the same distribution."""
        model, table = fitted
        path = tmp_path / "model.json"
        save_model(model.noisy, table.attributes, path)
        restored, attributes = load_model(path)
        s1 = sample_synthetic(
            model.noisy, table.attributes, 40_000, np.random.default_rng(5)
        )
        s2 = sample_synthetic(restored, attributes, 40_000, np.random.default_rng(6))
        for name in table.attribute_names:
            m1 = joint_distribution(s1, [name])
            m2 = joint_distribution(s2, [name])
            assert np.abs(m1 - m2).max() < 0.02

    def test_version_check(self, fitted):
        model, table = fitted
        data = model_to_dict(model.noisy, table.attributes)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            model_from_dict(data)

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_an_int(self, fitted, version):
        """``True == 1`` and ``1.0 == 1``: neither is format 1."""
        model, table = fitted
        data = model_to_dict(model.noisy, table.attributes)
        data["format_version"] = version
        with pytest.raises(
            ValueError,
            match=f"model document: format_version: unsupported version "
            f"{version!r}",
        ):
            model_from_dict(data)

    def test_load_leaves_the_checked_plan_cached(self, fitted):
        """Loading builds the sampling plan the first draw uses."""
        model, table = fitted
        restored, attributes = model_from_dict(
            model_to_dict(model.noisy, table.attributes)
        )
        plan = restored._sampling_plan
        sample_synthetic(restored, attributes, 10, np.random.default_rng(0))
        assert restored._sampling_plan is plan


class TestAtomicSave:
    def test_truncated_file_raises_valueerror_naming_path(self, fitted, tmp_path):
        """Regression fixture for the historical non-atomic write path.

        A crash mid-write used to leave a JSON prefix on disk; loading it
        must fail loudly as a ValueError naming the file, not as opaque
        downstream garbage.
        """
        model, table = fitted
        path = tmp_path / "model.json"
        save_model(model.noisy, table.attributes, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # simulate the old crash
        with pytest.raises(ValueError, match="model.json"):
            load_model(path)

    def test_crash_mid_write_preserves_previous_model(
        self, fitted, tmp_path, monkeypatch
    ):
        """If the replace step dies, the old complete document survives."""
        import os as os_module

        model, table = fitted
        path = tmp_path / "model.json"
        save_model(model.noisy, table.attributes, path)
        before = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(os_module, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            save_model(model.noisy, table.attributes, path)
        monkeypatch.undo()
        assert path.read_text() == before
        load_model(path)  # still a complete, valid document
        # ... and the aborted temp file was cleaned up.
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_save_leaves_only_the_target(self, fitted, tmp_path):
        model, table = fitted
        path = tmp_path / "model.json"
        save_model(model.noisy, table.attributes, path)
        save_model(model.noisy, table.attributes, path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_directory_is_fsynced_after_the_replace(
        self, fitted, tmp_path, monkeypatch
    ):
        """The file is synced before the rename and its directory after
        it: only the directory sync makes the rename survive a power
        loss."""
        model, table = fitted
        path = tmp_path / "model.json"
        calls = []
        replace, fsync = os.replace, os.fsync

        def recording_replace(source, target):
            calls.append(("replace", Path(target)))
            replace(source, target)

        def recording_fsync(fd):
            mode = os.fstat(fd).st_mode
            calls.append(("fsync", os.fstat(fd).st_ino, stat.S_ISDIR(mode)))
            fsync(fd)

        monkeypatch.setattr(os, "replace", recording_replace)
        monkeypatch.setattr(os, "fsync", recording_fsync)
        save_model(model.noisy, table.attributes, path)
        assert calls == [
            ("fsync", path.stat().st_ino, False),
            ("replace", path),
            ("fsync", tmp_path.stat().st_ino, True),
        ]


class TestLoadValidation:
    """model_from_dict refuses malformed documents, naming the conditional."""

    @pytest.fixture
    def doc(self, fitted):
        model, table = fitted
        return model_to_dict(model.noisy, table.attributes)

    def test_wrong_matrix_shape(self, doc):
        entry = doc["conditionals"][-1]
        entry["matrix"] = entry["matrix"][:-1]  # drop a row
        with pytest.raises(ValueError, match=rf"{entry['child']}.*shape"):
            model_from_dict(doc)

    def test_ragged_matrix(self, doc):
        entry = doc["conditionals"][-1]
        entry["matrix"] = [row[:-1] for row in entry["matrix"][:1]] + entry[
            "matrix"
        ][1:]
        last = len(doc["conditionals"]) - 1
        with pytest.raises(ValueError, match=rf"conditionals\[{last}\]: "):
            model_from_dict(doc)

    def test_non_finite_entries(self, doc):
        entry = doc["conditionals"][0]
        entry["matrix"][0][0] = float("nan")
        with pytest.raises(ValueError, match=f"{entry['child']}.*non-finite"):
            model_from_dict(doc)

    def test_negative_probability(self, doc):
        entry = doc["conditionals"][0]
        entry["matrix"][0][0] = -0.25
        with pytest.raises(ValueError, match=f"{entry['child']}.*negative"):
            model_from_dict(doc)

    def test_rows_must_sum_to_one(self, doc):
        entry = doc["conditionals"][0]
        entry["matrix"][0] = [value * 0.5 for value in entry["matrix"][0]]
        with pytest.raises(ValueError, match=f"{entry['child']}.*row 0 sums"):
            model_from_dict(doc)

    def test_network_child_without_conditional(self, doc):
        dropped = doc["conditionals"].pop()
        with pytest.raises(
            ValueError, match=f"missing conditionals.*{dropped['child']}"
        ):
            model_from_dict(doc)

    def test_duplicate_conditional(self, doc):
        doc["conditionals"].append(doc["conditionals"][0])
        with pytest.raises(ValueError, match="duplicate conditional"):
            model_from_dict(doc)

    def test_conditional_parents_must_match_network(self, doc):
        entry = doc["network"][-1]
        if not entry["parents"]:
            pytest.skip("last pair has no parents in this fit")
        bad = dict(doc)
        bad["network"] = doc["network"][:-1] + [
            {"child": entry["child"], "parents": []}
        ]
        with pytest.raises(ValueError, match="parents"):
            model_from_dict(bad)

    def test_child_size_must_match_schema(self, doc):
        entry = doc["conditionals"][0]
        entry["child_size"] = entry["child_size"] + 1
        with pytest.raises(ValueError, match=entry["child"]):
            model_from_dict(doc)

    def test_missing_section(self, doc):
        del doc["conditionals"]
        with pytest.raises(ValueError, match="missing key 'conditionals'"):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (
                lambda d: d["attributes"][1].pop("kind"),
                r"attributes\[1\]: missing key 'kind'",
            ),
            (
                lambda d: d["network"][0].pop("child"),
                r"network\[0\]: missing key 'child'",
            ),
            (
                lambda d: d["attributes"][0].__setitem__("values", 5),
                r"attributes\[0\]\.values: expected a list; got 5",
            ),
            (
                lambda d: d.__setitem__("network", [None]),
                r"network\[0\]: expected an object; got None",
            ),
            (
                lambda d: d["attributes"][0].__setitem__(
                    "taxonomy", {"leaves": 1}
                ),
                r"attributes\[0\]\.taxonomy: missing key 'levels'",
            ),
            (
                lambda d: d.__setitem__("network", 5),
                r"network: expected a list; got 5",
            ),
            (
                lambda d: d["attributes"][0].__setitem__("name", [1, 2]),
                r"attributes\[0\]\.name: expected a string; got a list",
            ),
            (
                lambda d: d["network"][0].__setitem__("child", 2.5),
                r"network\[0\]\.child: expected a string; got 2\.5",
            ),
        ],
        ids=[
            "no-kind",
            "no-child",
            "values-not-a-list",
            "null-pair",
            "bad-taxonomy",
            "network-not-a-list",
            "name-not-a-string",
            "child-not-a-string",
        ],
    )
    def test_damaged_entry_is_named(self, doc, damage, message):
        """Attributes (with their taxonomies) and network pairs fail as a
        ValueError naming the entry, as conditionals do."""
        damage(doc)
        with pytest.raises(ValueError, match=message):
            model_from_dict(doc)

    def test_document_must_be_an_object(self, doc, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps([doc]))
        with pytest.raises(
            ValueError, match="model.json: expected an object; got a list"
        ):
            load_model(path)

    def _load_file(self, doc, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return load_model(path)

    def test_unplaced_attribute_refused_naming_file(self, doc, tmp_path):
        """A schema attribute the network does not place: such a model
        used to load, and then every draw from it failed."""
        doc["attributes"].append(dict(doc["attributes"][0], name="extra_col"))
        with pytest.raises(
            ValueError,
            match=r"model.json: model's network does not place schema "
            r"attribute\(s\) \['extra_col'\]",
        ):
            self._load_file(doc, tmp_path)

    def test_repeated_attribute_refused_naming_file(self, doc, tmp_path):
        """A schema that names one attribute twice used to load, and then
        every draw failed with "duplicate attribute names"."""
        doc["attributes"].append(doc["attributes"][0])
        name = doc["attributes"][0]["name"]
        with pytest.raises(
            ValueError,
            match=rf"model.json: schema repeats attribute name\(s\) "
            rf"\['{name}'\]",
        ):
            self._load_file(doc, tmp_path)

    def test_taxonomy_index_too_large_refused_naming_file(self, doc, tmp_path):
        """A taxonomy parent index of 1e308 raised a bare OverflowError."""
        index, entry = next(
            (i, a) for i, a in enumerate(doc["attributes"]) if "taxonomy" in a
        )
        entry["taxonomy"]["levels"][0]["parents"][0] = 1e308
        with pytest.raises(
            ValueError,
            match=rf"model.json: attributes\[{index}\]\.taxonomy\.levels"
            r"\[0\]\.parents\[0\]: expected an integer; got 1e\+308",
        ):
            self._load_file(doc, tmp_path)

    def test_taxonomy_index_past_int64_refused_naming_file(self, doc, tmp_path):
        """An integer index no int64 holds is refused before the taxonomy
        converts its parent arrays, not raised as an OverflowError."""
        index, entry = next(
            (i, a) for i, a in enumerate(doc["attributes"]) if "taxonomy" in a
        )
        entry["taxonomy"]["levels"][0]["parents"][0] = 10**30
        with pytest.raises(
            ValueError,
            match=rf"model.json: attributes\[{index}\]\.taxonomy: parent "
            "assignment must cover every group",
        ):
            self._load_file(doc, tmp_path)

    def test_parent_radix_above_its_codes_refused(self, doc):
        """A parent radix must equal the codes the parent can take; one
        more gives the conditional rows no parent code reaches."""
        entry = next(c for c in doc["conditionals"] if c["parents"])
        entry["parent_sizes"][0] += 1
        rows = domain_size(entry["parent_sizes"])
        entry["matrix"] += [entry["matrix"][0]] * (rows - len(entry["matrix"]))
        with pytest.raises(ValueError, match=f"{entry['child']}.*codes reach"):
            model_from_dict(doc)

    def test_non_positive_domain_size_refused(self, doc):
        entry = next(c for c in doc["conditionals"] if len(c["parents"]) >= 2)
        entry["parent_sizes"][0] *= -1
        entry["parent_sizes"][1] *= -1
        with pytest.raises(
            ValueError, match=f"{entry['child']}.*sizes must be positive"
        ):
            model_from_dict(doc)

    def test_good_document_still_loads(self, doc):
        model, attributes = model_from_dict(doc)
        assert len(model.conditionals) == len(attributes)


GOLDEN_MODEL = Path(__file__).parents[1] / "golden_documents" / "model.json"


def _by(entries, key, name):
    """The entry of ``entries`` whose ``key`` is ``name``, and its index."""
    return next((i, e) for i, e in enumerate(entries) if e[key] == name)


def _conditional(doc, child):
    index, entry = _by(doc["conditionals"], "child", child)
    return f"conditionals\\[{index}\\]", entry


def _attribute(doc, name):
    index, entry = _by(doc["attributes"], "name", name)
    return f"attributes\\[{index}\\]", entry


def _child_size(doc):
    where, entry = _conditional(doc, "salary")
    entry["child_size"] = 2.5
    return rf"{where}\.child_size: expected an integer; got 2\.5"


def _parent_size(doc):
    where, entry = _conditional(doc, "sex")
    entry["parent_sizes"][0] = 2.0
    return rf"{where}\.parent_sizes\[0\]: expected an integer; got 2\.0"


def _string_entry(doc):
    where, entry = _conditional(doc, "race")
    entry["matrix"][0][1] = repr(entry["matrix"][0][1])
    return rf"{where}\.matrix\[0\]\[1\]: expected a number; got '0\."


def _boolean_row(doc):
    where, entry = _conditional(doc, "salary")
    entry["matrix"][0] = [True, False]
    return rf"{where}\.matrix\[0\]\[0\]: expected a number; got True"


def _list_label(doc):
    where, entry = _attribute(doc, "workclass")
    entry["taxonomy"]["levels"][0]["labels"][0] = ["x"]
    return (
        rf"{where}\.taxonomy\.levels\[0\]\.labels\[0\]: expected a string; "
        "got a list"
    )


def _string_parent(doc):
    where, entry = _attribute(doc, "workclass")
    parents = entry["taxonomy"]["levels"][0]["parents"]
    parents[0] = str(parents[0])
    return (
        rf"{where}\.taxonomy\.levels\[0\]\.parents\[0\]: expected an "
        f"integer; got '{parents[0]}'"
    )


def _fractional_parent(doc):
    where, entry = _attribute(doc, "workclass")
    parents = entry["taxonomy"]["levels"][0]["parents"]
    parents[0] += 0.5
    return (
        rf"{where}\.taxonomy\.levels\[0\]\.parents\[0\]: expected an "
        rf"integer; got {int(parents[0])}\.5"
    )


def _string_levels(doc):
    where, entry = _attribute(doc, "age")
    entry["taxonomy"]["levels"] = ""
    return rf"{where}\.taxonomy\.levels: expected a list; got ''"


def _integer_value(doc):
    where, entry = _attribute(doc, "race")
    entry["values"][0] = 7
    return rf"{where}\.values\[0\]: expected a string; got 7"


class TestNoCoercion:
    """Each of these damaged model files used to load as something else
    (an ``int()`` of 2.5 or of ``"1"``, a float of ``"0.3"`` or of
    ``true``, no taxonomy levels for ``""``); each is now refused naming
    the file and the JSON path."""

    @pytest.mark.parametrize(
        "damage",
        [
            _child_size, _parent_size, _string_entry, _boolean_row,
            _list_label, _string_parent, _fractional_parent, _string_levels,
            _integer_value,
        ],
        ids=[
            "child-size", "parent-size", "string-entry", "boolean-row",
            "list-label", "string-parent", "fractional-parent",
            "string-levels", "integer-value",
        ],
    )
    def test_refused_naming_file_and_path(self, tmp_path, damage):
        doc = json.loads(GOLDEN_MODEL.read_text())
        where = damage(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"model file .*model.json: {where}"):
            load_model(path)


class TestParentLevels:
    """A parent level the parent does not have is named by the
    conditional and the parent, as a parent radix is (it was the
    taxonomy's bare ``level 9 out of range [0, 4)``, or ``attribute
    'relationship' has no taxonomy``)."""

    @pytest.mark.parametrize(
        "parent, levels",
        [(["education_num", 9], r"\[0, 4\)"), (["relationship", 1], r"\[0, 1\)")],
        ids=["above-the-taxonomy", "without-a-taxonomy"],
    )
    def test_refused_naming_conditional_and_parent(self, tmp_path, parent, levels):
        doc = json.loads(GOLDEN_MODEL.read_text())
        _, pair = _by(doc["network"], "child", "sex")
        _, conditional = _by(doc["conditionals"], "child", "sex")
        pair["parents"] = conditional["parents"] = [parent]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        name, level = parent
        with pytest.raises(
            ValueError,
            match=f"model.json: conditional for 'sex' gives parent '{name}' "
            f"level {level}, but its levels are {levels}",
        ):
            load_model(path)
