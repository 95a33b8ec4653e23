"""The ``python -m repro`` command-line release tool."""

import hashlib
import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.privbayes import PrivBayes
from repro.core.serialize import save_model
from repro.data.io import read_csv, write_csv
from repro.datasets import load_adult


@pytest.fixture
def csv_path(tmp_path):
    table = load_adult(n=400, seed=0)
    path = tmp_path / "input.csv"
    write_csv(table, path)
    return path


class TestRelease:
    def test_basic_release(self, csv_path, tmp_path, capsys):
        out = tmp_path / "synthetic.csv"
        rc = main(
            [
                "--input", str(csv_path), "--output", str(out),
                "--epsilon", "1.0", "--seed", "3",
            ]
        )
        assert rc == 0
        synthetic = read_csv(out)
        assert synthetic.n == 400
        assert synthetic.d == 15

    def test_rows_override(self, csv_path, tmp_path):
        out = tmp_path / "synthetic.csv"
        rc = main(
            [
                "--input", str(csv_path), "--output", str(out),
                "--rows", "77", "--seed", "3",
            ]
        )
        assert rc == 0
        assert read_csv(out).n == 77

    def test_report_flag(self, csv_path, tmp_path, capsys):
        out = tmp_path / "synthetic.csv"
        rc = main(
            [
                "--input", str(csv_path), "--output", str(out),
                "--seed", "3", "--report",
            ]
        )
        assert rc == 0
        assert "utility report" in capsys.readouterr().out

    def test_method_choice(self, csv_path, tmp_path):
        out = tmp_path / "synthetic.csv"
        rc = main(
            [
                "--input", str(csv_path), "--output", str(out),
                "--method", "vanilla-R", "--seed", "3",
            ]
        )
        assert rc == 0

    def test_missing_arguments(self, capsys):
        assert main([]) == 2
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--epsilon", "nan", "epsilon must be a finite positive number; got nan"),
            ("--beta", "0", "beta must be in (0, 1); got 0.0"),
        ],
    )
    def test_refused_config_is_one_line(
        self, tmp_path, capsys, flag, value, message
    ):
        """The config is checked before the input is read: a missing
        input never gets opened, one line is printed, nothing written."""
        out = tmp_path / "synthetic.csv"
        rc = main(
            [
                "--input", str(tmp_path / "missing.csv"),
                "--output", str(out), flag, value,
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not out.exists()

    def test_ragged_csv_is_one_line(self, tmp_path, capsys):
        source = tmp_path / "ragged.csv"
        source.write_text("a,b\n1,2\n3\n")
        out = tmp_path / "synthetic.csv"
        rc = main(["--input", str(source), "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {source}: the row on line 3 has 1 fields, expected 2"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "probe",
        ["missing-input", "directory-input", "missing-model",
         "missing-output-directory"],
    )
    def test_unusable_path_is_one_line(
        self, csv_path, tmp_path, capsys, probe
    ):
        """A path that cannot be opened prints one ``error:`` line naming
        it and exits 2, as a refused config does."""
        out = tmp_path / "o.csv"
        path, arguments = {
            "missing-input": (
                tmp_path / "nope.csv",
                ["--input", "{path}", "--output", str(out)],
            ),
            "directory-input": (
                tmp_path, ["--input", "{path}", "--output", str(out)]
            ),
            "missing-model": (
                tmp_path / "nope.json",
                ["--from-model", "{path}", "--output", str(out)],
            ),
            "missing-output-directory": (
                tmp_path / "nonexistent" / "o.csv",
                ["--input", str(csv_path), "--output", "{path}"],
            ),
        }[probe]
        capsys.readouterr()
        arguments = [a.format(path=path) for a in arguments]
        assert main([*arguments, "--seed", "3"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert str(path) in err[0]
        assert not out.exists()

    def test_release_bytes_golden(self, tmp_path, capsys):
        """A fixed input, method and seed release these exact bytes, under
        any hash seed and kernel backend."""
        source = tmp_path / "adult.csv"
        write_csv(load_adult(n=2000, seed=0), source)
        out = tmp_path / "synthetic.csv"
        rc = main(
            [
                "--input", str(source), "--output", str(out),
                "--epsilon", "0.8", "--method", "hierarchical-R",
                "--seed", "11",
            ]
        )
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "07eb7c7090d3853f3e9ff3830e801fc66a88279d6bf4b1134dafb111239f2eee"
        )


class TestModelPersistence:
    @pytest.mark.parametrize("method", ["vanilla-R", "hierarchical-R"])
    def test_save_then_resample(self, csv_path, tmp_path, capsys, method):
        out = tmp_path / "synthetic.csv"
        model_path = tmp_path / "model.json"
        rc = main(
            [
                "--input", str(csv_path), "--output", str(out),
                "--method", method, "--seed", "3",
                "--save-model", str(model_path),
            ]
        )
        assert rc == 0
        assert model_path.exists()
        out2 = tmp_path / "resampled.csv"
        rc2 = main(
            [
                "--from-model", str(model_path), "--output", str(out2),
                "--rows", "25", "--seed", "4",
            ]
        )
        assert rc2 == 0
        assert read_csv(out2).n == 25
        # The resample is in the release's schema, column for column.
        header = out.read_text().splitlines()[0]
        assert out2.read_text().splitlines()[0] == header

    def test_from_model_requires_output(self, tmp_path, capsys):
        assert main(["--from-model", str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("method", ["binary-F", "gray-F"])
    def test_bitwise_save_model_refused(self, tmp_path, capsys, method):
        """A bitwise model covers bit columns, which --from-model cannot
        turn back into the release's schema: refused before the input is
        read, and nothing is written."""
        out = tmp_path / "synthetic.csv"
        model_path = tmp_path / "model.json"
        rc = main(
            [
                "--input", str(tmp_path / "missing.csv"),
                "--output", str(out), "--method", method,
                "--save-model", str(model_path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: --save-model cannot store a {method}")
        assert not out.exists() and not model_path.exists()

    @pytest.mark.parametrize("damage", ["no-kind", "truncated"])
    def test_bad_model_file_is_one_line(
        self, csv_path, tmp_path, capsys, damage
    ):
        model_path = tmp_path / "model.json"
        assert main(
            [
                "--input", str(csv_path), "--output", str(tmp_path / "r.csv"),
                "--seed", "3", "--save-model", str(model_path),
            ]
        ) == 0
        text = model_path.read_text()
        if damage == "no-kind":
            doc = json.loads(text)
            del doc["attributes"][1]["kind"]
            text = json.dumps(doc)
        else:
            text = text[: len(text) // 2]
        model_path.write_text(text)
        capsys.readouterr()
        out = tmp_path / "resampled.csv"
        rc = main(["--from-model", str(model_path), "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: model file {model_path}")
        assert not out.exists()

    def test_taxonomy_index_too_large_is_one_line(
        self, mixed_table, tmp_path, capsys
    ):
        """A taxonomy parent index of 1e308 ended in a bare OverflowError."""
        model = PrivBayes(epsilon=1.0, generalize=True).fit(
            mixed_table, np.random.default_rng(3)
        )
        model_path = tmp_path / "model.json"
        save_model(model.noisy, mixed_table.attributes, model_path)
        doc = json.loads(model_path.read_text())
        index, attribute = next(
            (i, a) for i, a in enumerate(doc["attributes"]) if "taxonomy" in a
        )
        attribute["taxonomy"]["levels"][0]["parents"][0] = 1e308
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "resampled.csv"
        rc = main(["--from-model", str(model_path), "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"error: model file {model_path}: attributes[{index}].taxonomy"
            ".levels[0].parents[0]: expected an integer"
        )
        assert not out.exists()
