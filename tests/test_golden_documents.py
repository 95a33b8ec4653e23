"""Stored documents load and write back byte for byte.

``tests/golden_documents/`` holds one of each persisted document, as
the program wrote it: a model file (an Adult fit with taxonomies and a
generalized parent), the registry entry of that model, and a ledger of
two datasets and three charges.  Each must load and be written back,
through the program's own writers, to the same bytes, so a change to a
reader or a writer cannot silently drop or reshape a stored document.
"""

import shutil
from pathlib import Path

from repro.core.serialize import load_model, save_model
from repro.serve.ledger import DatasetLedger
from repro.serve.registry import ModelRegistry

GOLDEN = Path(__file__).parent / "golden_documents"
ENTRY = GOLDEN / "adult__cb5d986b.json"


def test_model_file_writes_back_byte_for_byte(tmp_path):
    model, attributes = load_model(GOLDEN / "model.json")
    save_model(model, attributes, tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == (
        GOLDEN / "model.json"
    ).read_bytes()


def test_registry_entry_writes_back_byte_for_byte(tmp_path):
    shutil.copy(ENTRY, tmp_path / ENTRY.name)
    loaded = ModelRegistry(tmp_path)
    ((dataset, config),) = loaded.entries()
    assert dataset == "adult"
    again = tmp_path / "again"
    ModelRegistry(again).put(dataset, loaded.get(dataset, config))
    assert [path.name for path in again.iterdir()] == [ENTRY.name]
    assert (again / ENTRY.name).read_bytes() == ENTRY.read_bytes()


def test_ledger_writes_back_byte_for_byte(tmp_path):
    path = tmp_path / "ledger.json"
    shutil.copy(GOLDEN / "ledger.json", path)
    ledger = DatasetLedger(path)
    assert ledger.report()["nltcs"]["charges"] == [("fit-1", 0.4)]
    path.unlink()  # the persist below must write every byte again
    with ledger._transaction():
        ledger._persist_locked()
    assert path.read_bytes() == (GOLDEN / "ledger.json").read_bytes()
