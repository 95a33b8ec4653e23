"""Seeded mutations of the three persisted documents.

Each mutation replaces one value of a saved document, at a JSON path
drawn from all of them (the document itself included), by a value drawn
from ``VALUES``.  Loading the damaged file must either raise a
``ValueError`` that names the file, or load what the file says: written
back (``model_to_dict``, the registry's entry document, the ledger's
persisted document), it gives the mutated document again.  No other
exception may escape, since both CLIs print a ``ValueError`` as one
``error:`` line.  A model that loads must also draw rows: a stored model
is valid exactly when it can be sampled over its schema.
"""

import json

import numpy as np
import pytest

from repro.core.privbayes import PrivBayes
from repro.core.sampler import sample_synthetic
from repro.core.serialize import load_model, model_to_dict, save_model
from repro.datasets import load_adult
from repro.serve.ledger import DatasetLedger
from repro.serve.registry import ModelRegistry

VALUES = (
    None, True, False, 0, 1, -1, 2, 2.5, 1e308,
    "x", "", "0.5", [], {}, [1], {"a": 1},
)

MUTATIONS = 1000


def _paths(node, path=()):
    """Every JSON path in ``node``, the empty path (the node) first."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


def _mutations(text):
    """``MUTATIONS`` copies of the JSON ``text``, each with one value
    replaced, as ``(path, value, mutated text)``; seed 0."""
    rng = np.random.default_rng(0)
    paths = list(_paths(json.loads(text)))
    for _ in range(MUTATIONS):
        path = paths[rng.integers(len(paths))]
        value = VALUES[rng.integers(len(VALUES))]
        doc = json.loads(text)  # a fresh copy of the document
        if path:
            parent = doc
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = value
        else:
            doc = value
        yield path, value, json.dumps(doc)


def _same(left, right):
    """JSON equality that tells ``true`` from ``1`` and ``"5"`` from ``5``,
    but not ``1`` from ``1.0``."""
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _same(left[key], right[key]) for key in left
        )
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(map(_same, left, right))
    numbers = (int, float)
    if (
        isinstance(left, numbers) and isinstance(right, numbers)
        and not isinstance(left, bool) and not isinstance(right, bool)
    ):
        return left == right
    return type(left) is type(right) and left == right


def _sweep(text, path, load):
    """Write each mutation of ``text`` to ``path`` and ``load`` it; return
    how many loaded.  A refusal must be a ValueError naming the file, and
    a load must write back the mutated document."""
    loaded = 0
    for where, value, mutated in _mutations(text):
        path.write_text(mutated)
        try:
            written = load()
        except ValueError as error:
            assert str(path) in str(error), (where, value, error)
        except Exception as error:
            pytest.fail(f"{where} = {value!r}: {type(error).__name__}: {error}")
        else:
            assert _same(written, json.loads(mutated)), (where, value)
            loaded += 1
    return loaded


@pytest.fixture(scope="module")
def fitted():
    table = load_adult(n=2000, seed=0)
    return PrivBayes(epsilon=1.0, generalize=True).fit(
        table, np.random.default_rng(1)
    )


def test_model_file_mutations(fitted, tmp_path):
    path = tmp_path / "model.json"
    save_model(fitted.noisy, fitted.table_attributes, path)
    text = path.read_text()

    def load():
        model, attributes = load_model(path)
        sample = sample_synthetic(
            model, attributes, 50, np.random.default_rng(2)
        )
        assert sample.n == 50
        return model_to_dict(model, attributes)

    assert 0 < _sweep(text, path, load) < MUTATIONS


def test_registry_entry_mutations(fitted, tmp_path):
    ModelRegistry(tmp_path).put("adult", fitted)
    (path,) = tmp_path.glob("*.json")
    text = path.read_text()

    def load():
        registry = ModelRegistry(tmp_path)
        ((dataset, config),) = registry.entries()
        model = registry.get(dataset, config)
        assert model.sample(50, np.random.default_rng(2)).n == 50
        return ModelRegistry._entry_doc(dataset, model)

    assert 0 < _sweep(text, path, load) < MUTATIONS


def test_ledger_mutations(tmp_path):
    path = tmp_path / "ledger.json"
    ledger = DatasetLedger(path)
    adult = ledger.accountant("adult", 2.0)
    adult.spend("fit-1", 0.5)
    adult.spend("fit-2", 0.25)
    ledger.accountant("nltcs", 1.0).spend("fit-1", 0.4)
    text = path.read_text()

    def load():
        ledger = DatasetLedger(path)
        for account in ledger.report().values():
            assert isinstance(account["total_epsilon"], float)
            assert all(isinstance(e, float) for _, e in account["charges"])
        path.unlink()  # the persist writes the whole document again
        with ledger._transaction():
            ledger._persist_locked()
        return json.loads(path.read_text())

    assert 0 < _sweep(text, path, load) < MUTATIONS
