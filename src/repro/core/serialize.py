"""Serialization of fitted PrivBayes models, and the one document reader.

A release consists of the network structure plus the noisy conditionals —
everything needed to sample more synthetic data later (sampling is free
post-processing, so resampling from a stored model costs no extra ε).
Models round-trip through a plain-JSON document; the schema (attribute
domains and taxonomies) is embedded so a stored model is self-contained.

The model file, a registry entry and the serving ledger are the
program's outside input.  :func:`read_document` and :class:`Node` own
their document rules (valid JSON; an object with exactly its keys; a
version that is that document's ``int``) and the JSON type of each
value, which the typed accessors return unconverted.  Every refusal is
one :class:`ValueError` of the form ``<kind> <file>: <JSON path>:
<problem>``, e.g. ``model file m.json: conditionals[3].child_size:
expected an integer; got 2.5``.  Every other rule stays with its owner:
a stored model is valid exactly when it can be sampled over its schema,
so :class:`~repro.core.noisy_conditionals.NoisyModel` checks the
network, the sampling plan (:func:`repro.core.sampler.check_model`) the
schema, and this module only the rule no fit needs, that every
conditional row sums to 1.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

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


def read_document(path: PathLike, kind: str) -> "Node":
    """The root :class:`Node` of the JSON document ``<kind> <path>``;
    refuses a file that is not valid JSON (e.g. a truncated write)."""
    source = f"{kind} {path}"
    try:
        return Node(json.loads(Path(path).read_bytes()), source)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(
            f"{source}: not valid JSON (truncated or corrupt write?): {exc}"
        ) from exc


class Node:
    """One value of a JSON document, at its JSON path.  Each accessor
    returns the value unconverted or raises a ValueError naming the
    document and the path."""

    __slots__ = ("value", "source", "_parent", "_key")

    def __init__(self, value, source: str, parent=None, key=None) -> None:
        self.value, self.source, self._parent, self._key = value, source, parent, key

    @property
    def path(self) -> str:
        """The JSON path, e.g. ``conditionals[3].child_size``."""
        if self._parent is None:
            return ""
        key, above = self._key, self._parent.path
        if isinstance(key, int) or not key.isidentifier():
            return f"{above}[{key!r}]"
        return f"{above}.{key}" if above else key

    def error(self, problem: str) -> ValueError:
        where = f"{self.source}: {self.path}" if self.path else self.source
        return ValueError(f"{where}: {problem}")

    def _expected(self, what: str) -> ValueError:
        got = {dict: "an object", list: "a list"}.get(type(self.value))
        return self.error(f"expected {what}; got {got or repr(self.value)}")

    def call(self, owner, *args, **kwargs):
        """``owner(*args, **kwargs)``, the owner of a rule given checked
        values, with this path named in any ValueError it raises."""
        try:
            return owner(*args, **kwargs)
        except ValueError as exc:
            raise self.error(str(exc)) from exc

    def integer(self) -> int:
        if isinstance(self.value, bool) or not isinstance(self.value, int):
            raise self._expected("an integer")
        return self.value

    def string(self) -> str:
        if not isinstance(self.value, str):
            raise self._expected("a string")
        return self.value

    def number(self) -> Union[int, float]:
        """An int or a float, and no int past the float range: the
        program holds every such number as a float."""
        value = self.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise self._expected("a number")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise self._expected("a number in the float range")
        return value

    def items(self, length: Optional[int] = None) -> List["Node"]:
        """The elements of a list (of exactly ``length``, if given)."""
        if not isinstance(self.value, list) or length not in (None, len(self.value)):
            raise self._expected("a list" + (f" of {length}" if length else ""))
        return [
            Node(item, self.source, self, index)
            for index, item in enumerate(self.value)
        ]

    def each(self, read) -> list:
        """``read(element)`` for each element of a list."""
        return [read(item) for item in self.items()]

    def members(self) -> Dict[str, "Node"]:
        """The members of an object, by key."""
        if not isinstance(self.value, dict):
            raise self._expected("an object")
        return {
            key: Node(item, self.source, self, key)
            for key, item in self.value.items()
        }

    def fields(self, *keys: str, optional=()) -> Dict[str, "Node"]:
        """:meth:`members`, which must hold every one of ``keys`` and no
        key outside ``keys`` and ``optional``."""
        members = self.members()
        for key in keys:
            if key not in members:
                raise self.error(f"missing key {key!r}")
        for key in members:
            if key not in keys and key not in optional:
                raise self.error(f"unknown key {key!r}")
        return members

    def document(self, version_key: str, version: int, *keys: str):
        """:meth:`fields` of a document whose ``version_key`` is ``version``."""
        fields = self.fields(version_key, *keys)
        found = fields[version_key]
        if found.value != version or type(found.value) is not int:
            raise found.error(f"unsupported version {found.value!r}")
        return fields


def read_charges(node: Node) -> List[Tuple[str, Union[int, float]]]:
    """The ``[[label, ε], ...]`` of a registry entry or a ledger."""
    return [
        (label.string(), amount.number())
        for label, amount in (charge.items(2) for charge in node.items())
    ]


def _attribute_to_dict(attr: Attribute) -> dict:
    out = {"name": attr.name, "values": list(attr.values), "kind": attr.kind.value}
    if attr.taxonomy is not None:
        out["taxonomy"] = {
            "leaves": list(attr.taxonomy.level_labels(0)),
            "levels": [
                {"parents": parents.tolist(), "labels": list(labels)}
                for parents, labels in attr.taxonomy.levels
            ],
        }
    return out


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


def _taxonomy(node: Node) -> TaxonomyTree:
    fields = node.fields("leaves", "levels")
    return node.call(
        TaxonomyTree,
        fields["leaves"].each(Node.string),
        fields["levels"].each(_taxonomy_level),
    )


def _taxonomy_level(node: Node):
    fields = node.fields("parents", "labels")
    return fields["parents"].each(Node.integer), fields["labels"].each(Node.string)


def _attribute(node: Node) -> Attribute:
    fields = node.fields("name", "values", "kind", optional=("taxonomy",))
    kind, taxonomy = fields["kind"], fields.get("taxonomy")
    return node.call(
        Attribute,
        name=fields["name"].string(),
        values=tuple(fields["values"].each(Node.string)),
        kind=kind.call(AttributeKind, kind.string()),
        taxonomy=None if taxonomy is None else _taxonomy(taxonomy),
    )


def _parent(node: Node) -> Tuple[str, int]:
    name, level = node.items(2)
    return name.string(), level.integer()


def _pair(node: Node) -> APPair:
    fields = node.fields("child", "parents")
    child, parents = fields["child"].string(), fields["parents"].each(_parent)
    return node.call(APPair.make, child, parents)


def _conditional(node: Node) -> ConditionalTable:
    fields = node.fields("child", "parents", "parent_sizes", "child_size", "matrix")
    return node.call(
        ConditionalTable,
        child=fields["child"].string(),
        parents=tuple(fields["parents"].each(_parent)),
        parent_sizes=tuple(fields["parent_sizes"].each(Node.integer)),
        child_size=fields["child_size"].integer(),
        matrix=fields["matrix"].each(lambda row: row.each(Node.number)),
    )


def read_model(node: Node):
    """The ``(model, attributes)`` of the model document at ``node``; see
    :func:`model_from_dict`."""
    fields = node.document(
        "format_version", FORMAT_VERSION, "attributes", "network", "conditionals"
    )
    attributes = fields["attributes"].each(_attribute)
    network = fields["network"].call(BayesianNetwork, fields["network"].each(_pair))
    entries = fields["conditionals"].items()
    conditionals = tuple(_conditional(entry) for entry in entries)
    model = node.call(NoisyModel, network=network, conditionals=conditionals)
    node.call(check_model, model, attributes)
    for entry, conditional in zip(entries, conditionals):
        row_sums = conditional.matrix.sum(axis=1)
        off = np.abs(row_sums - 1.0) > ROW_SUM_TOLERANCE
        if off.any():
            row = int(np.argmax(off))
            raise entry.error(
                f"conditional {conditional.child!r}: row {row} sums to "
                f"{row_sums[row]:.6g}, not 1 — not a probability distribution"
            )
    return model, attributes


def model_from_dict(data: dict):
    """Inverse of :func:`model_to_dict`; returns (model, attributes).

    Refuses a document whose model could not be sampled over its schema
    with a :class:`ValueError` naming the bad entry by its JSON path, so
    a damaged registry entry fails at load, not at its first draw.  The
    checked sampling plan stays cached on the model.
    """
    return read_model(Node(data, "model document"))


def save_model(model: NoisyModel, attributes, path: PathLike) -> None:
    """Write a model (+ schema) to a JSON file, atomically.

    The document lands via :func:`atomic_write_text`: a crash mid-write
    cannot leave a truncated registry entry — ``path`` holds either the
    previous model or the complete new one.
    """
    atomic_write_text(path, json.dumps(model_to_dict(model, attributes)))


def load_model(path: PathLike):
    """Load a model saved by :func:`save_model`; returns (model, attrs).
    Refuses a file that is not valid JSON or not a valid model (see
    :func:`model_from_dict`) with a :class:`ValueError` naming it."""
    return read_model(read_document(path, "model file"))
