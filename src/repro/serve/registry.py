"""Resident model registry keyed on ``(dataset, config)``.

Fitting is the expensive, ε-charged step; sampling and inference from a
fitted model are free post-processing.  The registry therefore keeps
every fitted :class:`~repro.core.privbayes.PrivBayesModel` resident —
with its cached row CDFs warmed, so the first request pays no
``np.cumsum`` — and mirrors each model to disk through the atomic
:func:`~repro.core.serialize.save_model` document format, extended with
the fit's config, source cardinality and per-phase ε ledger.  A fresh
process pointed at the same root reloads (and re-validates) every entry:
warm restarts resume serving bit-identically.
"""

from __future__ import annotations

import json
import re
import threading
import zlib
from dataclasses import asdict, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.privbayes import PrivBayesConfig, PrivBayesModel
from repro.core.serialize import (
    PathLike,
    atomic_write_text,
    model_to_dict,
    read_charges,
    read_document,
    read_model,
)
from repro.dp.accountant import PrivacyAccountant

REGISTRY_FORMAT_VERSION = 1

#: An entry's ``config`` holds every field, as ``asdict`` writes it.
_CONFIG_FIELDS = tuple(field.name for field in fields(PrivBayesConfig))

_SLUG = re.compile(r"[^A-Za-z0-9._-]+")


def registry_key(dataset: str, config: PrivBayesConfig) -> str:
    """Deterministic key for a ``(dataset, config)`` pair.

    CRC32 over the canonical JSON of the pair — a pure function of the
    values (PYTHONHASHSEED-proof), stable across processes, so on-disk
    entry names never drift between runs.
    """
    payload = json.dumps(
        {"dataset": dataset, "config": asdict(config)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return f"{zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _entry_filename(dataset: str, config: PrivBayesConfig) -> str:
    slug = _SLUG.sub("-", dataset).strip("-") or "dataset"
    return f"{slug}__{registry_key(dataset, config)}.json"


def _warm(model: PrivBayesModel) -> PrivBayesModel:
    """Materialize the sampling caches so first requests are memory-speed."""
    for conditional in model.noisy.conditionals:
        conditional.row_cdfs
        if conditional.child_size == 2:
            conditional.binary_thresholds
    return model


class ModelRegistry:
    """Fitted models resident in memory, persisted for warm restarts.

    Parameters
    ----------
    root:
        Directory for the persisted entries.  ``None`` keeps the registry
        purely in-memory; otherwise every ``put`` writes one atomic JSON
        document per ``(dataset, config)`` and construction reloads —
        and re-validates, through :func:`~repro.core.serialize.read_document`
        — every ``*.json`` under the root.
    """

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self._root = Path(root) if root is not None else None
        self._lock = threading.Lock()
        self._models: Dict[Tuple[str, PrivBayesConfig], PrivBayesModel] = {}
        if self._root is not None:
            self._root.mkdir(parents=True, exist_ok=True)
            for path in sorted(self._root.glob("*.json")):
                dataset, model = self._load_entry(path)
                self._models[(dataset, model.config)] = _warm(model)

    # ------------------------------------------------------------------
    def put(self, dataset: str, model: PrivBayesModel) -> PrivBayesModel:
        """Register a fitted model (resident + persisted); returns it."""
        _warm(model)
        with self._lock:
            self._models[(dataset, model.config)] = model
            if self._root is not None:
                path = self._root / _entry_filename(dataset, model.config)
                atomic_write_text(path, json.dumps(self._entry_doc(dataset, model)))
        return model

    def get(
        self, dataset: str, config: PrivBayesConfig
    ) -> Optional[PrivBayesModel]:
        """The resident model for ``(dataset, config)``, or ``None``."""
        with self._lock:
            return self._models.get((dataset, config))

    def entries(self) -> List[Tuple[str, PrivBayesConfig]]:
        """Registered ``(dataset, config)`` pairs, deterministically sorted."""
        with self._lock:
            keys = list(self._models)
        return sorted(keys, key=lambda item: (item[0], registry_key(*item)))

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    # ------------------------------------------------------------------
    @staticmethod
    def _entry_doc(dataset: str, model: PrivBayesModel) -> dict:
        return {
            "registry_version": REGISTRY_FORMAT_VERSION,
            "dataset": dataset,
            "config": asdict(model.config),
            "source_n": model.source_n,
            "k": model.k,
            "ledger": [
                [label, amount] for label, amount in model.accountant.ledger
            ],
            "model": model_to_dict(model.noisy, model.table_attributes),
        }

    @staticmethod
    def _load_entry(path: Path) -> Tuple[str, PrivBayesModel]:
        """The entry at ``path``, which must be the file ``put`` writes
        for its ``(dataset, config)``: a copy under another name, or an
        entry whose dataset or config was edited, would load under a key
        its file name does not match."""
        root = read_document(path, "registry entry")
        entry = root.document(
            "registry_version", REGISTRY_FORMAT_VERSION,
            "dataset", "config", "source_n", "k", "ledger", "model",
        )
        settings, k, ledger = entry["config"], entry["k"], entry["ledger"]
        dataset = entry["dataset"].string()
        config = settings.call(
            PrivBayesConfig,
            **{
                name: field.value
                for name, field in settings.fields(*_CONFIG_FIELDS).items()
            },
        )
        expected = _entry_filename(dataset, config)
        if path.name != expected:
            raise root.error(
                f"an entry for its dataset and config is stored as "
                f"{expected!r}, not {path.name!r}"
            )
        noisy, attributes = read_model(entry["model"])
        source_n = entry["source_n"]
        return dataset, source_n.call(
            PrivBayesModel,
            noisy=noisy,
            table_attributes=tuple(attributes),
            source_n=source_n.integer(),
            config=config,
            accountant=ledger.call(
                PrivacyAccountant, config.epsilon, read_charges(ledger)
            ),
            k=None if k.value is None else k.integer(),
        )
