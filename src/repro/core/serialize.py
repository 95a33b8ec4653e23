"""Serialization of fitted PrivBayes models.

A release consists of the network structure plus the noisy conditionals —
everything needed to sample more synthetic data later (sampling is free
post-processing, so resampling from a stored model costs no extra ε).
Models round-trip through a plain-JSON document; the schema (attribute
domains and taxonomies) is embedded so a stored model is self-contained.

A stored model is valid exactly when it can be sampled over its schema.
A load checks each rule where it lives: the network rules in
:class:`~repro.core.noisy_conditionals.NoisyModel`, the schema rules in
the sampling plan (:func:`repro.core.sampler.check_model`), and here
only the one no fit needs, that every conditional row sums to 1.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.bn.network import APPair, BayesianNetwork
from repro.core.noisy_conditionals import ConditionalTable, NoisyModel
from repro.core.sampler import check_model
from repro.data.attribute import Attribute, AttributeKind
from repro.data.taxonomy import TaxonomyTree

PathLike = Union[str, Path]

FORMAT_VERSION = 1

#: Loaded conditionals must have rows summing to 1 within this tolerance
#: (distribution learning normalizes exactly; JSON round-trips floats
#: bit-exactly, so real drift here means the file was edited or damaged).
ROW_SUM_TOLERANCE = 1e-6

#: What parsing a damaged JSON entry raises: a missing key, a value of the
#: wrong JSON type, a number too large for an int64 array, or a value a
#: constructor refuses.
_MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def atomic_write_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file lives in the destination's own directory so the
    final rename never crosses a filesystem; a crash mid-write leaves the
    previous contents of ``path`` untouched instead of a truncated file —
    readers see either the old document or the new one, never a prefix.
    The file is fsync'd before the rename and the directory after it,
    because only the directory sync makes the rename survive a power loss.
    Used by :func:`save_model`, the serving layer's model registry and its
    dataset ledger.
    """
    path = Path(path)
    handle, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as tmp_file:
            tmp_file.write(text)
            tmp_file.flush()
            os.fsync(tmp_file.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _taxonomy_to_dict(taxonomy: TaxonomyTree) -> dict:
    levels = []
    for level in range(1, taxonomy.height):
        # Recover the per-level parent arrays from the leaf maps.
        below = taxonomy.leaf_to_level(level - 1)
        here = taxonomy.leaf_to_level(level)
        size_below = taxonomy.level_size(level - 1)
        parents = [0] * size_below
        for leaf in range(taxonomy.leaf_count):
            parents[int(below[leaf])] = int(here[leaf])
        levels.append(
            {"parents": parents, "labels": list(taxonomy.level_labels(level))}
        )
    return {"leaves": list(taxonomy.level_labels(0)), "levels": levels}


def _taxonomy_from_dict(data: dict) -> TaxonomyTree:
    return TaxonomyTree(
        data["leaves"],
        [(lvl["parents"], lvl["labels"]) for lvl in data["levels"]],
    )


def _attribute_to_dict(attr: Attribute) -> dict:
    out = {
        "name": attr.name,
        "values": list(attr.values),
        "kind": attr.kind.value,
    }
    if attr.taxonomy is not None:
        out["taxonomy"] = _taxonomy_to_dict(attr.taxonomy)
    return out


def _malformed(section: str, key: str, entry, index: int, exc) -> ValueError:
    """A ValueError naming the entry (by its ``key`` field, else its index)
    and what was wrong with it."""
    name = entry.get(key) if isinstance(entry, dict) else None
    label = repr(name) if isinstance(name, str) else f"#{index}"
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"{section} {label}: malformed entry ({detail})")


def _attribute_from_entry(entry: dict, index: int) -> Attribute:
    try:
        if not isinstance(entry["name"], str):
            raise TypeError(f"name {entry['name']!r} is not a string")
        taxonomy = (
            _taxonomy_from_dict(entry["taxonomy"])
            if "taxonomy" in entry
            else None
        )
        return Attribute(
            name=entry["name"],
            values=tuple(entry["values"]),
            kind=AttributeKind(entry["kind"]),
            taxonomy=taxonomy,
        )
    except _MALFORMED as exc:
        raise _malformed("attribute", "name", entry, index, exc) from exc


def _pair_from_entry(entry: dict, index: int) -> APPair:
    try:
        if not isinstance(entry["child"], str):
            raise TypeError(f"child {entry['child']!r} is not a string")
        return APPair.make(entry["child"], [tuple(p) for p in entry["parents"]])
    except _MALFORMED as exc:
        raise _malformed("network pair", "child", entry, index, exc) from exc


def model_to_dict(model: NoisyModel, attributes) -> dict:
    """Serialize a noisy model (+ schema) to a JSON-compatible dict."""
    return {
        "format_version": FORMAT_VERSION,
        "attributes": [_attribute_to_dict(a) for a in attributes],
        "network": [
            {"child": pair.child, "parents": [list(p) for p in pair.parents]}
            for pair in model.network
        ],
        "conditionals": [
            {
                "child": cond.child,
                "parents": [list(p) for p in cond.parents],
                "parent_sizes": list(cond.parent_sizes),
                "child_size": cond.child_size,
                "matrix": cond.matrix.tolist(),
            }
            for cond in model.conditionals
        ],
    }


def _conditional_from_entry(entry: dict, index: int) -> ConditionalTable:
    """Deserialize one conditional, naming it in every error."""
    try:
        child = str(entry["child"])
        parents = tuple(
            (str(pname), int(level)) for pname, level in entry["parents"]
        )
        parent_sizes = tuple(int(s) for s in entry["parent_sizes"])
        child_size = int(entry["child_size"])
        matrix = np.asarray(entry["matrix"], dtype=float)
    except _MALFORMED as exc:
        raise _malformed("conditional", "child", entry, index, exc) from exc
    return ConditionalTable(
        child=child,
        parents=parents,
        parent_sizes=parent_sizes,
        child_size=child_size,
        matrix=matrix,
    )


def model_from_dict(data: dict):
    """Inverse of :func:`model_to_dict`; returns (model, attributes).

    Refuses a document whose model could not be sampled over its schema
    with a :class:`ValueError` naming the bad entry, so a damaged registry
    entry fails at load, not at its first draw.  Each rule has one owner:
    parsing is checked here; a conditional's shape, sizes and entries by
    ``ConditionalTable``; one conditional per network pair, with its
    parents, by :class:`NoisyModel`; the schema (attributes placed once
    each, child and parent domain sizes) by the sampling plan, which
    :func:`~repro.core.sampler.check_model` leaves cached on the model;
    and last, here, that every row sums to 1, which no fit needs.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"model document must be a JSON object; got {type(data).__name__}"
        )
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    for section in ("attributes", "network", "conditionals"):
        if section not in data:
            raise ValueError(f"model document is missing section {section!r}")
        if not isinstance(data[section], list):
            raise ValueError(f"model document section {section!r} is not a list")
    attributes = [
        _attribute_from_entry(entry, index)
        for index, entry in enumerate(data["attributes"])
    ]
    network = BayesianNetwork(
        [
            _pair_from_entry(entry, index)
            for index, entry in enumerate(data["network"])
        ]
    )
    conditionals = tuple(
        _conditional_from_entry(entry, index)
        for index, entry in enumerate(data["conditionals"])
    )
    model = NoisyModel(network=network, conditionals=conditionals)
    check_model(model, attributes)
    for conditional in conditionals:
        row_sums = conditional.matrix.sum(axis=1)
        off = np.abs(row_sums - 1.0) > ROW_SUM_TOLERANCE
        if off.any():
            row = int(np.argmax(off))
            raise ValueError(
                f"conditional {conditional.child!r}: row {row} sums to "
                f"{row_sums[row]:.6g}, not 1 — not a probability distribution"
            )
    return model, attributes


def save_model(model: NoisyModel, attributes, path: PathLike) -> None:
    """Write a model (+ schema) to a JSON file, atomically.

    The document lands via :func:`atomic_write_text`: a crash mid-write
    cannot leave a truncated registry entry — ``path`` holds either the
    previous model or the complete new one.
    """
    atomic_write_text(path, json.dumps(model_to_dict(model, attributes)))


def load_model(path: PathLike):
    """Load a model saved by :func:`save_model`; returns (model, attrs).

    Raises :class:`ValueError` naming the file for documents that are not
    valid JSON (e.g. a truncated write from the historical non-atomic
    path) and for structurally invalid models (see
    :func:`model_from_dict`).
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"model file {path} is not valid JSON (truncated or corrupt "
            f"write?): {exc}"
        ) from exc
    try:
        return model_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from exc
