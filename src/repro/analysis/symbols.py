"""Project-wide symbol and import graph (pass 1 of the two-pass run).

The AST tier matches helpers by their *string* names, which breaks the
moment a helper is imported under an alias (``from repro.dp.accountant
import split_epsilon as se``) or re-exported through a package
``__init__``.  The flow tier instead resolves every name to the module
that actually defines it: pass 1 parses each file once, records its
top-level definitions and import bindings, and :class:`SymbolGraph`
follows import chains (including re-exports) to a fully-qualified
origin like ``repro.dp.accountant.split_epsilon``.

The graph is a plain picklable value (``--jobs`` workers receive it by
fork/pickle) and exposes a deterministic :meth:`SymbolGraph.fingerprint`
that the result cache folds into its signature — so a cross-file change
(a helper moving between modules) invalidates cached flow-tier findings
even though the analyzed file's own bytes never changed.
"""

from __future__ import annotations

import ast
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: Import chains longer than this are cyclic re-exports; resolution stops.
_MAX_CHAIN = 32


def module_name_for(path: str) -> str:
    """Dotted module name for a repo-relative posix path.

    ``src/`` is the import root (``src/repro/dp/accountant.py`` →
    ``repro.dp.accountant``); package ``__init__.py`` files name the
    package itself; files outside ``src/`` (tests, benchmarks, examples)
    get path-derived names so they participate in the graph without
    colliding with importable modules.
    """
    posix = path.replace("\\", "/")
    if posix.endswith(".py"):
        posix = posix[: -len(".py")]
    if posix.startswith("src/"):
        posix = posix[len("src/") :]
    parts = [part for part in posix.split("/") if part]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class ModuleSymbols:
    """One module's top-level definitions and import bindings."""

    module: str
    path: str
    #: name -> kind ("function" | "class" | "assign")
    defs: Dict[str, str] = field(default_factory=dict)
    #: local binding -> imported dotted target.  ``import numpy as np``
    #: binds ``np -> numpy``; ``from repro.dp import accountant`` binds
    #: ``accountant -> repro.dp.accountant``; ``from .rules import Rule``
    #: binds ``Rule -> repro.analysis.rules.Rule`` (relative resolved).
    imports: Dict[str, str] = field(default_factory=dict)

    @staticmethod
    def scan(module: str, path: str, tree: ast.Module) -> "ModuleSymbols":
        out = ModuleSymbols(module=module, path=path)
        package = module.rsplit(".", 1)[0] if "." in module else ""
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.defs[node.name] = "function"
            elif isinstance(node, ast.ClassDef):
                out.defs[node.name] = "class"
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        out.defs.setdefault(target.id, "assign")
                    elif isinstance(target, ast.Tuple):
                        for element in target.elts:
                            if isinstance(element, ast.Name):
                                out.defs.setdefault(element.id, "assign")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else bound
                    out.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Relative import: climb from this module's package.
                    anchor = module if path.endswith("__init__.py") else package
                    parts = anchor.split(".") if anchor else []
                    climb = node.level - 1
                    if climb:
                        parts = parts[:-climb] if climb <= len(parts) else []
                    base = ".".join(parts + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue  # star imports are not resolved
                    bound = alias.asname or alias.name
                    out.imports[bound] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        return out


@dataclass
class SymbolGraph:
    """Name resolution over every scanned module."""

    modules: Dict[str, ModuleSymbols] = field(default_factory=dict)

    @staticmethod
    def build(sources: Iterable[Tuple[str, ast.Module]]) -> "SymbolGraph":
        """Build from ``(repo-relative path, parsed tree)`` pairs.

        Files that failed to parse are simply absent (the AST tier's
        ``ANA000`` finding covers them).
        """
        graph = SymbolGraph()
        for path, tree in sources:
            module = module_name_for(path)
            if not module:
                continue
            graph.modules[module] = ModuleSymbols.scan(module, path, tree)
        return graph

    def resolve(self, module: str, name: str) -> str:
        """Fully-qualified origin of ``name`` as seen from ``module``.

        Follows import chains through known modules (re-exports resolve
        to the defining module); names the graph knows nothing about
        come back unchanged (external libraries resolve only as far as
        their dotted import target, e.g. ``np.prod`` →
        ``numpy.prod``).
        """
        head, _, rest = name.partition(".")
        current = self.modules.get(module)
        if current is None:
            return name
        if head in current.defs and not rest:
            return f"{module}.{head}"
        target = current.imports.get(head)
        if target is None:
            if head in current.defs:
                return f"{module}.{head}" + (f".{rest}" if rest else "")
            return name
        qualified = target + (f".{rest}" if rest else "")
        return self._chase(qualified)

    def _chase(self, qualified: str) -> str:
        """Follow re-export chains until a defining module is reached."""
        for _ in range(_MAX_CHAIN):
            owner, _, leaf = qualified.rpartition(".")
            if not owner:
                return qualified
            # ``owner`` itself may be a module we know (repro.dp) whose
            # binding for ``leaf`` is an import (a re-export).
            symbols = self.modules.get(owner)
            if symbols is None:
                return qualified
            if leaf in symbols.defs:
                return qualified
            target = symbols.imports.get(leaf)
            if target is None or target == qualified:
                return qualified
            qualified = target
        return qualified

    def fingerprint(self) -> str:
        """Deterministic digest of the whole graph (cache signature part)."""
        parts: List[str] = []
        for module in sorted(self.modules):
            symbols = self.modules[module]
            defs = ",".join(
                f"{name}:{kind}" for name, kind in sorted(symbols.defs.items())
            )
            imports = ",".join(
                f"{bound}>{target}"
                for bound, target in sorted(symbols.imports.items())
            )
            parts.append(f"{module}|{defs}|{imports}")
        digest = zlib.crc32("\n".join(parts).encode("utf-8")) & 0xFFFFFFFF
        return f"{digest:08x}"


def build_symbol_graph(
    files: Iterable[Tuple[str, str]],
) -> SymbolGraph:
    """Convenience: build from ``(repo-relative path, source text)`` pairs."""

    def parsed():
        for path, text in files:
            try:
                yield path, ast.parse(text)
            except SyntaxError:
                continue

    return SymbolGraph.build(parsed())


__all__ = [
    "ModuleSymbols",
    "SymbolGraph",
    "build_symbol_graph",
    "module_name_for",
]
