"""Flow-tier rules: dataflow/project-wide checks (PRIV003, DET004,
CONC001, ABI001).

These rules see more than one line at a time: they run over the
per-function CFGs of :mod:`repro.analysis.dataflow`, resolve helper
names through the project :class:`~repro.analysis.symbols.SymbolGraph`,
and (for ABI001) read the native C sources collected in pass 1.  Each
encodes an invariant PRs 7–9 established by hand:

* **PRIV003** — an ε-bearing parameter must not reach a noise call or
  table access unless an ``accountant.spend``/``charge`` dominates the
  access (the PR 8 reserve-before-touching tripwire), and a ``spend``
  followed by a fallible effect must ``unwind`` on the failure path.
* **DET004** — one ``numpy`` ``Generator`` must not be drawn from in
  two sibling loops (coupled series) or handed to a parallel map;
  independent series take ``rng.spawn()`` streams (the PR 7 sampler's
  chunk-invariance discipline, previously convention only).
* **CONC001** — state written under ``with self._lock`` in one method
  must not be touched off-lock in another method of the same class
  (the pre-PR 8 racy ``PrivacyAccountant.spend`` check-then-append).
* **ABI001** — the exported prototypes of ``core/_native/*.c`` must
  match the ``ctypes`` declarations in ``core/kernel_backend.py`` and
  the recorded manifest for the declared ABI version; any exported-
  surface change requires a ``repro_scoref_abi_version`` bump.
"""

from __future__ import annotations

import ast
import re
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow import (
    ENTRY,
    build_cfg,
    dominators,
    none_guard_filter,
    reaching_definitions,
)
from repro.analysis.rules import Rule, dotted_name
from repro.analysis.symbols import SymbolGraph, module_name_for


# ---------------------------------------------------------------------------
# pass-1 context


@dataclass
class AnalysisContext:
    """Project-wide inputs to the flow tier (built once, in pass 1)."""

    symbols: SymbolGraph = field(default_factory=SymbolGraph)
    #: repo-relative posix path -> text of every ``_native/*.c`` source.
    native_sources: Dict[str, str] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Folds into the result-cache signature: cross-file edits (a
        helper moving modules, a C prototype change) invalidate cached
        flow findings even when the cached file itself is unchanged."""
        digest = zlib.crc32(self.symbols.fingerprint().encode("utf-8"))
        for path in sorted(self.native_sources):
            payload = f"{path}:{self.native_sources[path]}".encode("utf-8")
            digest = zlib.crc32(payload, digest)
        return f"{digest & 0xFFFFFFFF:08x}"

    def resolve(self, path: str, name: str) -> str:
        """Resolve ``name`` as seen from the module at ``path``."""
        module = module_name_for(path)
        if module and module in self.symbols.modules:
            return self.symbols.resolve(module, name)
        return name


class FlowRule(Rule):
    """Base for dataflow-tier rules (reported with ``tier="flow"``)."""

    tier = "flow"


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _statement_expressions(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions evaluated *at* this statement's own CFG node
    (compound statements contribute only their headers; their nested
    statements are separate nodes)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    out: List[ast.expr] = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            out.append(child)
    return out


def _own_statements(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement of a function body, NOT descending into nested
    function/class definitions (those are separate scopes)."""
    for stmt in body:
        yield stmt
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for sub_body in _sub_bodies(stmt):
            yield from _own_statements(sub_body)


def _sub_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    bodies: List[List[ast.stmt]] = []
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []):
        bodies.append(handler.body)
    return bodies


def _calls_in(expr: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            yield node


# ---------------------------------------------------------------------------
# PRIV003 — budget flow


_ACCOUNTANT_NAME = re.compile(r"(^|_)acc(ountant)?($|_)|accountant", re.IGNORECASE)

_EPS_TOKEN = re.compile(r"^(eps|epsilon)\d*$")

#: Final tokens marking an ordinal/count over budgets, not a budget value
#: (``eps_idx`` indexes an ε grid, it is not an ε).
_ORDINAL_TOKENS = {"idx", "index", "i", "j", "num", "count", "pos", "position"}


def is_budget_name(identifier: str) -> bool:
    """True for ε/budget-bearing identifiers (epsilon, eps2, eps_child...)."""
    tokens = identifier.lower().split("_")
    if tokens[-1] in _ORDINAL_TOKENS:
        return False
    return any(
        _EPS_TOKEN.match(token) or token == "budget" for token in tokens
    )

#: Attribute reads that touch only the schema, not the data (the PR 8
#: TripwireTable contract: these are legal before the reservation).
_SCHEMA_ATTRS = {
    "attributes",
    "attribute_names",
    "d",
    "n",
    "names",
    "schema",
}

#: Parameter names/annotations treated as private data sources.
_TABLE_PARAM_NAMES = {"table", "tables", "data", "source", "linked", "df"}
_TABLE_ANNOTATIONS = {"Table", "ChunkedSource", "TableChunks", "LinkedTables"}

#: Calls through which passing the table is not a data access.
_INSPECTION_FUNCS = {
    "isinstance",
    "issubclass",
    "len",
    "type",
    "id",
    "repr",
    "str",
    "hasattr",
    "getattr",
}

_NOISE_FUNCS = {
    "repro.dp.mechanisms.laplace_noise",
    "repro.dp.mechanisms.laplace_mechanism",
}


def _is_accountant_param(name: str) -> bool:
    return bool(_ACCOUNTANT_NAME.search(name))


def _annotation_leaf(annotation: Optional[ast.expr]) -> str:
    if annotation is None:
        return ""
    name = dotted_name(annotation)
    if name is None and isinstance(annotation, ast.Constant):
        name = str(annotation.value)
    if name is None:
        return ""
    return name.split(".")[-1].strip("'\" ")


def _all_args(fn: ast.FunctionDef) -> List[ast.arg]:
    args = fn.args
    return list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)


def _spend_receiver(call: ast.Call) -> Optional[ast.expr]:
    """The accountant expression of a ``spend``/``charge`` call."""
    if isinstance(call.func, ast.Attribute) and call.func.attr in (
        "spend",
        "charge",
    ):
        return call.func.value
    return None


class BudgetFlow(FlowRule):
    id = "PRIV003"
    title = "ε reaches a data access with no dominating accountant charge"
    rationale = (
        "PR 8's invariant, statically: in a function holding both an "
        "ε-bearing parameter and an accountant, every noise call and "
        "table access must be dominated by accountant.spend/charge "
        "(reserve before touching data), and a spend followed by a "
        "fallible effect must unwind on the failure path — otherwise a "
        "refusal or crash lands after the data was already read."
    )

    def check(self, tree, path, context=None):
        for fn in _functions(tree):
            yield from self._check_function(fn, path, context)

    # ------------------------------------------------------------------
    def _check_function(self, fn, path, context):
        params = _all_args(fn)
        epsilon_params = {
            a.arg for a in params if is_budget_name(a.arg)
        }
        accountant_names = {
            a.arg for a in params if _is_accountant_param(a.arg)
        }
        statements = list(_own_statements(fn.body))
        # Locals bound from accountant factories also count
        # (``acc = ledger.accountant(...)``).
        for stmt in statements:
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Call
            ):
                func_name = dotted_name(stmt.value.func) or ""
                resolved = (
                    context.resolve(path, func_name) if context else func_name
                )
                leaf = resolved.split(".")[-1]
                if leaf == "accountant" or "Accountant" in leaf:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            accountant_names.add(target.id)
        if accountant_names:
            yield from self._spend_without_unwind(fn, statements)
        if not accountant_names or not epsilon_params:
            return

        # Derived-from-ε locals that are "None iff ε is None"
        # (``share = None if epsilon2 is None else split(...)``) join the
        # assumed-not-None set, so their guards prune like the
        # accountant's own ``is not None`` guard.
        assumed = set(accountant_names)
        for stmt in statements:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.IfExp)
            ):
                test = stmt.value.test
                if (
                    isinstance(test, ast.Compare)
                    and len(test.ops) == 1
                    and isinstance(test.ops[0], ast.Is)
                    and isinstance(test.left, ast.Name)
                    and (
                        test.left.id in epsilon_params
                        or test.left.id in assumed
                    )
                    and isinstance(test.comparators[0], ast.Constant)
                    and test.comparators[0].value is None
                    and isinstance(stmt.value.body, ast.Constant)
                    and stmt.value.body.value is None
                ):
                    assumed.add(stmt.targets[0].id)

        table_params = {
            a.arg
            for a in params
            if a.arg in _TABLE_PARAM_NAMES
            or _annotation_leaf(a.annotation) in _TABLE_ANNOTATIONS
        }

        cfg = build_cfg(fn.body, branch_filter=_compound_guard(assumed))
        node_of = {id(stmt): i for i, stmt in enumerate(cfg.nodes) if stmt is not None}
        dom = dominators(cfg)
        spend_nodes: List[int] = []
        accesses: List[Tuple[int, int, int, str]] = []  # (node, line, col, what)
        for stmt in statements:
            node = node_of.get(id(stmt))
            if node is None:
                continue  # pruned branch: not reachable in this scenario
            for expr in _statement_expressions(stmt):
                for call in _calls_in(expr):
                    receiver = _spend_receiver(call)
                    if receiver is not None:
                        name = dotted_name(receiver)
                        if name in accountant_names or name == "self":
                            spend_nodes.append(node)
                            continue
                        # ``PrivacyAccountant.spend(self, ...)`` — an
                        # unbound-method charge on a known accountant
                        # class also counts.
                        if name and "Accountant" in name.split(".")[-1]:
                            spend_nodes.append(node)
                            continue
                    accesses.extend(
                        self._accesses_in_call(
                            call, table_params, accountant_names, path, context, node
                        )
                    )
                for access in self._attribute_accesses(expr, table_params, node):
                    accesses.append(access)
        for node, line, col, what in accesses:
            if any(spend in dom.get(node, set()) for spend in spend_nodes):
                continue
            yield (
                line,
                col,
                f"{what} is reachable with no dominating accountant "
                "spend/charge on any path from entry — reserve the budget "
                "before touching data (PR 8 invariant)",
            )

    # ------------------------------------------------------------------
    def _accesses_in_call(
        self, call, table_params, accountant_names, path, context, node
    ):
        func_name = dotted_name(call.func) or ""
        resolved = context.resolve(path, func_name) if context else func_name
        if resolved in _NOISE_FUNCS or func_name.split(".")[-1] in (
            "laplace_noise",
            "laplace_mechanism",
        ):
            yield (node, call.lineno, call.col_offset, "noise call")
            return
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "laplace"
            and isinstance(call.func.value, ast.Name)
        ):
            yield (node, call.lineno, call.col_offset, "noise call")
            return
        if func_name in _INSPECTION_FUNCS:
            return
        # Charge delegation: a call handed the accountant itself owns the
        # charging (``PrivBayes(...).fit(table, rng, accountant=acc)``
        # reserves before touching data — the PR 8 contract).
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Name) and arg.id in accountant_names:
                return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            target = arg.value if isinstance(arg, ast.Starred) else arg
            if isinstance(target, ast.Name) and target.id in table_params:
                yield (
                    node,
                    target.lineno,
                    target.col_offset,
                    f"table parameter {target.id!r} passed to "
                    f"{func_name or 'a call'}()",
                )

    def _attribute_accesses(self, expr, table_params, node):
        for sub in ast.walk(expr):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in table_params
                and sub.attr not in _SCHEMA_ATTRS
            ):
                yield (
                    node,
                    sub.lineno,
                    sub.col_offset,
                    f"data access {sub.value.id}.{sub.attr}",
                )
            elif (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in table_params
            ):
                yield (
                    node,
                    sub.lineno,
                    sub.col_offset,
                    f"data access {sub.value.id}[...]",
                )

    # ------------------------------------------------------------------
    def _spend_without_unwind(self, fn, statements):
        """A spend/charge with a later try whose failure path re-raises
        without unwinding burned budget on a no-op (PR 8 ledger bug)."""
        spend_seen = False
        for stmt in statements:
            if not spend_seen:
                for expr in _statement_expressions(stmt):
                    if any(
                        _spend_receiver(call) is not None
                        for call in _calls_in(expr)
                    ):
                        spend_seen = True
                        break
            if isinstance(stmt, ast.Try) and spend_seen:
                for handler in stmt.handlers:
                    raises = any(
                        isinstance(inner, ast.Raise)
                        for body_stmt in handler.body
                        for inner in ast.walk(body_stmt)
                    )
                    unwinds = any(
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr == "unwind"
                        for body_stmt in handler.body
                        for inner in ast.walk(body_stmt)
                    )
                    if raises and not unwinds:
                        yield (
                            handler.lineno,
                            handler.col_offset,
                            "failure path after an accountant spend "
                            "re-raises without unwind(): the charge is "
                            "burned although the guarded effect never "
                            "happened — call accountant.unwind() before "
                            "re-raising",
                        )


def _compound_guard(assumed: Set[str]):
    """Branch filter: ``x is (not) None`` guards over assumed-not-None
    names, composed through ``and``/``or``."""
    base = none_guard_filter(assumed)

    def decide(test: ast.expr) -> Optional[bool]:
        simple = base(test)
        if simple is not None:
            return simple
        if isinstance(test, ast.BoolOp):
            votes = [decide(value) for value in test.values]
            if isinstance(test.op, ast.And):
                if all(vote is True for vote in votes):
                    return True
                if any(vote is False for vote in votes):
                    return False
            else:  # Or
                if any(vote is True for vote in votes):
                    return True
                if all(vote is False for vote in votes):
                    return False
        return None

    return decide


# ---------------------------------------------------------------------------
# DET004 — RNG stream discipline


_RNG_PARAM = re.compile(r"(^|_)rng\d*$")

_RNG_FACTORIES = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "repro.core.rng.fallback_rng",
}

_DRAW_METHODS = {
    "random",
    "integers",
    "choice",
    "shuffle",
    "permutation",
    "permuted",
    "laplace",
    "normal",
    "standard_normal",
    "uniform",
    "binomial",
    "poisson",
    "exponential",
    "geometric",
    "multinomial",
    "multivariate_hypergeometric",
    "bytes",
}

_EXECUTORISH = re.compile(r"executor|pool", re.IGNORECASE)

_PARALLEL_METHODS = {"map", "submit", "starmap", "imap", "imap_unordered", "apply_async"}

_EXECUTOR_FACTORIES = {
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "multiprocessing.Pool",
}


class RngStreamDiscipline(FlowRule):
    id = "DET004"
    title = "one Generator shared across independent series or workers"
    rationale = (
        "Drawing one Generator in two sibling loops couples the series: "
        "loop 2's stream depends on how many draws loop 1 consumed "
        "(change a chunk size, every later series shifts).  Passing one "
        "Generator into a parallel map races the stream across workers. "
        "Derive per-series/per-task streams with rng.spawn() — the PR 7 "
        "sampler's chunk-invariance discipline."
    )

    def check(self, tree, path, context=None):
        for fn in _functions(tree):
            yield from self._check_function(fn, path, context)

    # ------------------------------------------------------------------
    def _tags(self, fn, path, context) -> Tuple[Set[str], Set[str], Set[str]]:
        """(rng_names, spawn_safe_names, executor_names) for one function."""
        rng: Set[str] = {
            a.arg for a in _all_args(fn) if _RNG_PARAM.search(a.arg)
        }
        safe: Set[str] = set()
        collections: Set[str] = set()
        executors: Set[str] = set()
        for stmt in _own_statements(fn.body):
            if isinstance(stmt, ast.Assign):
                value = stmt.value
                names = [
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                ]
                tuple_targets = [
                    t for t in stmt.targets if isinstance(t, ast.Tuple)
                ]
                if isinstance(value, ast.Call):
                    func_name = dotted_name(value.func) or ""
                    resolved = (
                        context.resolve(path, func_name)
                        if context
                        else func_name
                    )
                    leaf = func_name.split(".")[-1]
                    if (
                        resolved in _RNG_FACTORIES
                        or leaf in ("default_rng", "fallback_rng")
                    ):
                        rng.update(names)
                    elif (
                        isinstance(value.func, ast.Attribute)
                        and value.func.attr == "spawn"
                    ):
                        collections.update(names)
                        for target in tuple_targets:
                            for element in target.elts:
                                if isinstance(element, ast.Name):
                                    safe.add(element.id)
                    elif (
                        resolved in _EXECUTOR_FACTORIES
                        or leaf in ("ThreadPoolExecutor", "ProcessPoolExecutor", "Pool")
                    ):
                        executors.update(names)
                elif isinstance(value, ast.Name):
                    if value.id in rng:
                        rng.update(names)
                    elif value.id in safe:
                        safe.update(names)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._loop_targets(stmt, collections, safe)
        return rng - safe, safe | collections, executors

    @staticmethod
    def _loop_targets(stmt, collections: Set[str], safe: Set[str]) -> None:
        """``for s in streams`` / ``for s, x in zip(streams, ...)`` bind
        independent spawned streams."""
        iterator, target = stmt.iter, stmt.target
        if isinstance(iterator, ast.Name) and iterator.id in collections:
            if isinstance(target, ast.Name):
                safe.add(target.id)
            return
        if isinstance(iterator, ast.Call):
            func = dotted_name(iterator.func)
            if func in ("zip", "enumerate") and isinstance(target, ast.Tuple):
                args = iterator.args
                offset = 1 if func == "enumerate" else 0
                for position, arg in enumerate(args):
                    if (
                        isinstance(arg, ast.Name)
                        and arg.id in collections
                        and position + offset < len(target.elts)
                        and isinstance(
                            target.elts[position + offset], ast.Name
                        )
                    ):
                        safe.add(target.elts[position + offset].id)

    # ------------------------------------------------------------------
    def _check_function(self, fn, path, context):
        rng, safe, executors = self._tags(fn, path, context)
        if not rng:
            return
        cfg = build_cfg(fn.body)
        node_of = {
            id(stmt): i for i, stmt in enumerate(cfg.nodes) if stmt is not None
        }
        reach = reaching_definitions(cfg)

        # --- sibling-loop discipline -------------------------------------
        for body in self._statement_lists(fn):
            loops = [
                stmt
                for stmt in body
                if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While))
            ]
            if len(loops) < 2:
                continue
            draws_per_loop = [
                self._draws_under(loop, rng, node_of) for loop in loops
            ]
            for later in range(1, len(loops)):
                for earlier in range(later):
                    for name, node, call in draws_per_loop[later]:
                        prior = [
                            (p_name, p_node)
                            for p_name, p_node, _ in draws_per_loop[earlier]
                            if p_name == name
                        ]
                        if not prior:
                            continue
                        defs_here = {
                            d
                            for d_name, d in reach.get(node, set())
                            if d_name == name
                        } or {ENTRY}
                        shared = False
                        for _, p_node in prior:
                            defs_there = {
                                d
                                for d_name, d in reach.get(p_node, set())
                                if d_name == name
                            } or {ENTRY}
                            if defs_here & defs_there:
                                shared = True
                                break
                        if shared:
                            yield (
                                call.lineno,
                                call.col_offset,
                                f"generator {name!r} is drawn in more than "
                                "one sibling loop; the later series' draws "
                                "depend on how many the earlier consumed — "
                                "use independent rng.spawn() streams per "
                                "series",
                            )
                            break  # one finding per (loop, name) pair
        # --- parallel-map discipline -------------------------------------
        for stmt in _own_statements(fn.body):
            for expr in _statement_expressions(stmt):
                for call in _calls_in(expr):
                    yield from self._parallel_rng(call, rng, executors)

    def _statement_lists(self, fn) -> Iterator[List[ast.stmt]]:
        yield fn.body
        for stmt in _own_statements(fn.body):
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield from _sub_bodies(stmt)

    def _draws_under(self, loop, rng: Set[str], node_of):
        """(name, cfg node, call) for every rng draw inside a loop."""
        out = []
        for stmt in _own_statements(loop.body):
            node = node_of.get(id(stmt))
            if node is None:
                continue
            for expr in _statement_expressions(stmt):
                for call in _calls_in(expr):
                    if (
                        isinstance(call.func, ast.Attribute)
                        and call.func.attr in _DRAW_METHODS
                        and isinstance(call.func.value, ast.Name)
                        and call.func.value.id in rng
                    ):
                        out.append((call.func.value.id, node, call))
        return out

    def _parallel_rng(self, call, rng: Set[str], executors: Set[str]):
        if not isinstance(call.func, ast.Attribute):
            return
        method = call.func.attr
        receiver = dotted_name(call.func.value) or ""
        is_parallel = method in _PARALLEL_METHODS and (
            receiver.split(".")[-1] in executors
            or _EXECUTORISH.search(receiver)
        )
        args = list(call.args) + [kw.value for kw in call.keywords]
        if method == "run_in_executor":
            is_parallel = True
            args = call.args[2:]
        if not is_parallel:
            return
        for arg in args:
            target = arg.value if isinstance(arg, ast.Starred) else arg
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and sub.id in rng:
                    yield (
                        sub.lineno,
                        sub.col_offset,
                        f"generator {sub.id!r} passed into a parallel "
                        "map shares one stream across workers — spawn a "
                        "per-task stream (rng.spawn) or pass seeds",
                    )
                    return


# ---------------------------------------------------------------------------
# CONC001 — lock discipline


_LOCK_FACTORIES = {"threading.Lock", "threading.RLock", "Lock", "RLock"}

_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
}

_INIT_LIKE = {
    "__init__",
    "__post_init__",
    "__new__",
    "__getstate__",
    "__setstate__",
    "__copy__",
    "__deepcopy__",
    "__reduce__",
    "__del__",
}


@dataclass
class _Access:
    attr: str
    kind: str  # "read" | "write"
    locked: bool
    method: str
    line: int
    col: int


class LockDiscipline(FlowRule):
    id = "CONC001"
    title = "lock-guarded attribute touched off-lock in a sibling method"
    rationale = (
        "An attribute written under `with self._lock` in one method is "
        "shared mutable state; reading or writing it in another method "
        "without the lock reintroduces the pre-PR 8 racy "
        "PrivacyAccountant.spend (check-then-append overdraw).  "
        "Methods suffixed `_locked` assert the caller holds the lock "
        "and are exempt; construction (`__init__` and helpers called "
        "only from it) happens before publication and is exempt."
    )

    def check(self, tree, path, context=None):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node)

    # ------------------------------------------------------------------
    def _check_class(self, cls: ast.ClassDef):
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not methods:
            return
        class_level_names = set(methods)
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        class_level_names.add(target.id)

        lock_attrs = self._lock_attributes(methods.values())
        if not lock_attrs:
            return
        exempt = self._init_reachable_only(methods)

        accesses: List[_Access] = []
        for name, method in methods.items():
            if name in exempt or name.endswith("_locked"):
                continue
            local_aliases = self._lock_aliases(method, lock_attrs)
            self._collect(
                method.body,
                held=False,
                method=name,
                lock_attrs=lock_attrs | local_aliases,
                skip_names=class_level_names,
                out=accesses,
            )

        guarded = {
            access.attr
            for access in accesses
            if access.kind == "write" and access.locked
        }
        if not guarded:
            return
        writing_methods = {
            access.method for access in accesses if access.kind == "write"
        }
        reported: Set[Tuple[str, int]] = set()
        for access in accesses:
            if access.locked or access.attr not in guarded:
                continue
            if access.kind == "read" and access.method not in writing_methods:
                # A lone snapshot read (e.g. a monitoring property) is a
                # benign race; check-then-act shapes are not.
                continue
            key = (access.attr, access.line)
            if key in reported:
                continue
            reported.add(key)
            yield (
                access.line,
                access.col,
                f"self.{access.attr} is written under a lock elsewhere in "
                f"class {cls.name} but {access.kind} here without holding "
                "it — take the lock (or rename the method *_locked if the "
                "caller must hold it)",
            )

    # ------------------------------------------------------------------
    def _lock_attributes(self, methods) -> Set[str]:
        locks: Set[str] = set()
        for method in methods:
            annotated = {
                a.arg
                for a in _all_args(method)
                if _annotation_leaf(a.annotation) in ("Lock", "RLock")
            }
            for stmt in _own_statements(method.body):
                # self.X = threading.Lock()  /  self.X = <Lock-annotated param>
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            value = stmt.value
                            if (
                                isinstance(value, ast.Call)
                                and (dotted_name(value.func) or "")
                                in _LOCK_FACTORIES
                            ):
                                locks.add(target.attr)
                            elif (
                                isinstance(value, ast.Name)
                                and value.id in annotated
                            ):
                                locks.add(target.attr)
                # with self.X: ...
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        expr = item.context_expr
                        if (
                            isinstance(expr, ast.Attribute)
                            and isinstance(expr.value, ast.Name)
                            and expr.value.id == "self"
                            and "lock" in expr.attr.lower()
                        ):
                            locks.add(expr.attr)
        return locks

    def _lock_aliases(self, method, lock_attrs: Set[str]) -> Set[str]:
        """Local ``lock = self._lock`` aliases (treated as the lock)."""
        aliases: Set[str] = set()
        for stmt in _own_statements(method.body):
            if (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Attribute)
                and isinstance(stmt.value.value, ast.Name)
                and stmt.value.value.id == "self"
                and stmt.value.attr in lock_attrs
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        return aliases

    def _holds_lock(self, stmt, lock_attrs: Set[str]) -> bool:
        for item in stmt.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in lock_attrs
            ):
                return True
            if isinstance(expr, ast.Name) and expr.id in lock_attrs:
                return True
        return False

    def _collect(self, body, held, method, lock_attrs, skip_names, out):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested callback runs later, when the lock is no
                # longer held.
                self._collect(
                    stmt.body, False, method, lock_attrs, skip_names, out
                )
                continue
            if isinstance(stmt, ast.ClassDef):
                continue
            now_held = held
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                now_held = held or self._holds_lock(stmt, lock_attrs)
            self._record_statement(stmt, held, method, skip_names, out)
            for sub_body in _sub_bodies(stmt):
                self._collect(
                    sub_body, now_held, method, lock_attrs, skip_names, out
                )

    def _record_statement(self, stmt, held, method, skip_names, out):
        writes: List[Tuple[str, int, int]] = []
        write_node_ids: Set[int] = set()

        def self_attr(node) -> Optional[ast.Attribute]:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return node
            return None

        def mark_write(node) -> None:
            attr = self_attr(node)
            if attr is None and isinstance(node, ast.Subscript):
                attr = self_attr(node.value)
            if attr is not None:
                writes.append((attr.attr, attr.lineno, attr.col_offset))
                write_node_ids.add(id(attr))

        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._mark_targets(target, mark_write)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            self._mark_targets(stmt.target, mark_write)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                mark_write(target)
        for expr in _statement_expressions(stmt):
            for call in _calls_in(expr):
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in _MUTATORS
                ):
                    attr = self_attr(call.func.value)
                    if attr is not None:
                        writes.append(
                            (attr.attr, attr.lineno, attr.col_offset)
                        )
                        write_node_ids.add(id(attr))
        written_attrs = {name for name, _, _ in writes}
        for name, line, col in writes:
            if name in skip_names:
                continue
            out.append(_Access(name, "write", held, method, line, col))
        # Reads: every other self.<attr> load in this statement's own
        # expressions (method calls excluded via skip_names).
        for expr in _statement_expressions(stmt):
            for node in ast.walk(expr):
                attr = self_attr(node)
                if (
                    attr is not None
                    and id(attr) not in write_node_ids
                    and attr.attr not in skip_names
                    and attr.attr not in written_attrs
                    and isinstance(attr.ctx, ast.Load)
                ):
                    out.append(
                        _Access(
                            attr.attr,
                            "read",
                            held,
                            method,
                            attr.lineno,
                            attr.col_offset,
                        )
                    )

    @staticmethod
    def _mark_targets(target, mark_write) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                LockDiscipline._mark_targets(element, mark_write)
        elif isinstance(target, ast.Starred):
            LockDiscipline._mark_targets(target.value, mark_write)
        else:
            mark_write(target)

    # ------------------------------------------------------------------
    @staticmethod
    def _init_reachable_only(methods) -> Set[str]:
        """Init-like methods plus helpers called *only* from them."""
        calls: Dict[str, Set[str]] = {}
        for name, method in methods.items():
            called: Set[str] = set()
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in methods
                ):
                    called.add(node.func.attr)
            calls[name] = called
        exempt = {name for name in methods if name in _INIT_LIKE}
        changed = True
        while changed:
            changed = False
            for name in methods:
                if name in exempt:
                    continue
                callers = {
                    caller for caller, called in calls.items() if name in called
                }
                if callers and callers <= exempt:
                    exempt.add(name)
                    changed = True
        return exempt


# ---------------------------------------------------------------------------
# ABI001 — native ABI drift


#: The recorded exported surface per ABI version.  Changing
#: ``_native/*.c``'s exports requires bumping REPRO_SCOREF_ABI /
#: ``kernel_backend.ABI_VERSION`` *and* recording the new surface here —
#: that ritual is exactly what makes silent C-side drift impossible.
ABI_MANIFEST: Dict[int, Dict[str, Tuple[str, Tuple[str, ...]]]] = {
    1: {
        "repro_scoref_abi_version": ("int64_t", ()),
        "repro_score_f_batch": (
            "int",
            (
                "int64_t*",
                "int64_t*",
                "int64_t",
                "int64_t",
                "int64_t",
                "double*",
            ),
        ),
    },
    2: {
        "repro_scoref_abi_version": ("int64_t", ()),
        "repro_score_f_batch": (
            "int",
            (
                "int64_t*",
                "int64_t*",
                "int64_t",
                "int64_t",
                "int64_t",
                "double*",
            ),
        ),
        "repro_sample_block": (
            "int",
            (
                "int64_t",
                "int64_t",
                "int64_t*",
                "int64_t*",
                "int64_t",
                "int64_t*",
                "int64_t",
                "double*",
                "int64_t",
                "double*",
                "int64_t*",
            ),
        ),
    },
    3: {
        "repro_scoref_abi_version": ("int64_t", ()),
        "repro_score_f_batch": (
            "int",
            (
                "int64_t*",
                "int64_t*",
                "int64_t",
                "int64_t",
                "int64_t",
                "double*",
            ),
        ),
        "repro_sample_block": (
            "int",
            (
                "int64_t",
                "int64_t",
                "int64_t*",
                "int64_t*",
                "int64_t",
                "int64_t*",
                "int64_t",
                "double*",
                "int64_t",
                "double*",
                "int64_t*",
            ),
        ),
        "repro_csv_tokenize": (
            "int",
            (
                "uint8_t*",
                "int64_t",
                "int64_t",
                "int64_t",
                "int64_t",
                "int64_t",
                "int64_t*",
                "int64_t",
                "int64_t*",
                "int64_t",
                "uint8_t*",
                "int64_t",
                "int64_t*",
                "int32_t*",
                "int64_t",
                "int64_t*",
            ),
        ),
        "repro_csv_assemble": (
            "int",
            (
                "int64_t*",
                "int64_t",
                "int64_t",
                "int64_t*",
                "int64_t*",
                "uint8_t*",
                "int64_t",
                "uint8_t*",
                "int64_t",
                "uint8_t*",
                "int64_t",
                "uint8_t*",
                "int64_t",
            ),
        ),
    },
}

_C_EXPORT = re.compile(
    r"(?m)^(?P<ret>int64_t|int|double|void)\s+(?P<name>repro_\w+)\s*\("
)

_C_ABI_DEFINE = re.compile(r"#define\s+REPRO_\w*ABI\w*\s+(\d+)")

_CTYPES_TOKENS = {
    "c_int64": "int64_t",
    "c_int": "int",
    "c_double": "double",
    "c_size_t": "size_t",
    "c_float": "float",
    "c_int32": "int32_t",
    "c_uint64": "uint64_t",
    "c_uint8": "uint8_t",
}


def parse_c_exports(text: str) -> Dict[str, Tuple[str, Tuple[str, ...]]]:
    """Exported ``repro_*`` prototypes of one C source."""
    exports: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    for match in _C_EXPORT.finditer(text):
        start = match.end()
        end = text.find(")", start)
        if end < 0:
            continue
        params = text[start:end]
        tokens: List[str] = []
        for raw in params.split(","):
            raw = raw.strip()
            if not raw or raw == "void":
                continue
            pointer = "*" in raw
            words = [
                word
                for word in raw.replace("*", " ").split()
                if word not in ("const", "restrict")
            ]
            if not words:
                continue
            tokens.append(words[0] + ("*" if pointer else ""))
        exports[match.group("name")] = (match.group("ret"), tuple(tokens))
    return exports


def parse_c_abi_version(text: str) -> Optional[int]:
    match = _C_ABI_DEFINE.search(text)
    return int(match.group(1)) if match else None


def _ctype_token(node: ast.expr) -> Optional[str]:
    name = dotted_name(node)
    if name is not None:
        leaf = name.split(".")[-1]
        return _CTYPES_TOKENS.get(leaf)
    if isinstance(node, ast.Call):
        func = dotted_name(node.func) or ""
        if func.split(".")[-1] == "POINTER" and node.args:
            inner = _ctype_token(node.args[0])
            return f"{inner}*" if inner else None
    return None


@dataclass
class _PyDecl:
    symbol: str
    restype: Optional[str] = None
    restype_line: int = 0
    argtypes: Optional[Tuple[str, ...]] = None
    argtypes_line: int = 0


def parse_ctypes_declarations(tree: ast.AST) -> Tuple[Optional[int], int, Dict[str, _PyDecl]]:
    """(ABI_VERSION value, its line, symbol -> declared prototype)."""
    version: Optional[int] = None
    version_line = 1
    for node in tree.body if isinstance(tree, ast.Module) else []:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "ABI_VERSION"
                for t in node.targets
            )
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
        ):
            version = node.value.value
            version_line = node.lineno
    aliases: Dict[str, str] = {}
    declarations: Dict[str, _PyDecl] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if (
            isinstance(target, ast.Name)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr.startswith("repro_")
        ):
            aliases[target.id] = node.value.attr
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            symbol = aliases.get(target.value.id)
            if symbol is None:
                continue
            declaration = declarations.setdefault(symbol, _PyDecl(symbol))
            if target.attr == "restype":
                declaration.restype = _ctype_token(node.value) or "?"
                declaration.restype_line = node.lineno
            elif target.attr == "argtypes":
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    tokens = tuple(
                        _ctype_token(element) or "?"
                        for element in node.value.elts
                    )
                    declaration.argtypes = tokens
                declaration.argtypes_line = node.lineno
    return version, version_line, declarations


def _render(prototype: Tuple[str, Tuple[str, ...]]) -> str:
    restype, args = prototype
    return f"{restype}({', '.join(args) or 'void'})"


class NativeAbiDrift(FlowRule):
    id = "ABI001"
    title = "native kernel ABI drift (C prototypes vs ctypes declarations)"
    rationale = (
        "kernel_backend.py drives _native/*.c through a flat ctypes ABI; "
        "a C-side prototype change the Python declarations (or the "
        "recorded ABI manifest) did not follow silently corrupts every "
        "score.  Any exported-surface change must bump "
        "repro_scoref_abi_version / ABI_VERSION and re-record the "
        "surface in flow_rules.ABI_MANIFEST."
    )

    def applies_to(self, path: str) -> bool:
        return path.replace("\\", "/").endswith("core/kernel_backend.py")

    def check(self, tree, path, context=None):
        if context is None or not context.native_sources:
            return  # single-file run: no C sources collected
        python_version, version_line, declarations = parse_ctypes_declarations(
            tree
        )
        c_exports: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        for source_path in sorted(context.native_sources):
            text = context.native_sources[source_path]
            c_exports.update(parse_c_exports(text))
            c_version = parse_c_abi_version(text)
            if (
                c_version is not None
                and python_version is not None
                and c_version != python_version
            ):
                yield (
                    version_line,
                    0,
                    f"ABI_VERSION={python_version} disagrees with "
                    f"{source_path}'s #define ({c_version}) — bump both "
                    "together",
                )
        for symbol in sorted(declarations):
            declaration = declarations[symbol]
            line = declaration.argtypes_line or declaration.restype_line or 1
            if symbol not in c_exports:
                yield (
                    line,
                    0,
                    f"ctypes declaration for {symbol!r} has no matching "
                    "exported prototype in the native sources",
                )
                continue
            declared = (
                declaration.restype or "?",
                declaration.argtypes if declaration.argtypes is not None else (),
            )
            if declared != c_exports[symbol]:
                yield (
                    line,
                    0,
                    f"{symbol!r} signature drift: ctypes declares "
                    f"{_render(declared)} but the C source exports "
                    f"{_render(c_exports[symbol])} — fix the declaration "
                    "and bump the ABI version",
                )
        for symbol in sorted(set(c_exports) - set(declarations)):
            yield (
                version_line,
                0,
                f"native source exports {symbol!r} with no ctypes "
                "declaration here — declare argtypes/restype (and bump "
                "the ABI version for a surface change)",
            )
        if python_version is not None:
            manifest = ABI_MANIFEST.get(python_version)
            if manifest is None:
                yield (
                    version_line,
                    0,
                    f"ABI version {python_version} is not recorded in "
                    "flow_rules.ABI_MANIFEST — record the exported "
                    "surface as part of the bump",
                )
            elif c_exports and c_exports != manifest:
                yield (
                    version_line,
                    0,
                    f"exported surface differs from the recorded ABI "
                    f"{python_version} manifest — a C-side change "
                    "without a repro_scoref_abi_version bump; bump the "
                    "version and record the new surface",
                )


# ---------------------------------------------------------------------------
# registry hook


def flow_rules() -> List[Rule]:
    return [
        BudgetFlow(),
        RngStreamDiscipline(),
        LockDiscipline(),
        NativeAbiDrift(),
    ]


__all__ = [
    "ABI_MANIFEST",
    "AnalysisContext",
    "BudgetFlow",
    "FlowRule",
    "LockDiscipline",
    "NativeAbiDrift",
    "RngStreamDiscipline",
    "flow_rules",
    "is_budget_name",
    "parse_c_abi_version",
    "parse_c_exports",
    "parse_ctypes_declarations",
]
