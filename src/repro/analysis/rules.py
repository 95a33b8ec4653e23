"""Rule framework and the built-in rule set.

Each rule is an AST check targeting one of this codebase's historical bug
classes (see README.md for the full rationale table):

* DET001 — unseeded / global-state RNG construction.
* DET002 — builtin ``hash()`` outside ``__hash__`` (PYTHONHASHSEED drift).
* DET003 — iteration over unordered collections feeding numeric
  accumulation or RNG state.
* PRIV002 — noise calls whose scale expression bypasses the sensitivity
  helpers.
* NUM001 — unguarded products over domain-size arrays (int64 overflow).

Rules yield ``(line, col, message)`` triples; pragma suppression and
caching happen in :mod:`repro.analysis.engine`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Bumped whenever rule behavior changes; part of the result-cache key.
#: "2": flow tier (PRIV003/DET004/CONC001/ABI001), findings carry `tier`.
#: "3": PRIV001 and the findings' baseline `fingerprint` removed.
ANALYZER_VERSION = "3"

#: Engine-level pseudo-rules (not in the registry, but valid finding ids).
PARSE_ERROR_RULE = "ANA000"
BAD_PRAGMA_RULE = "ANA001"


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, after pragma resolution."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    status: str = "open"  # open | suppressed
    justification: str = ""
    snippet: str = ""
    #: Which analysis tier produced it: "ast" (per-line pattern rules) or
    #: "flow" (CFG/symbol-graph rules).  Schema v2 field.
    tier: str = "ast"

    def sort_key(self) -> Tuple:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "status": self.status,
            "justification": self.justification,
            "snippet": self.snippet,
            "tier": self.tier,
        }

    @staticmethod
    def from_dict(data: Dict) -> "Finding":
        return Finding(**data)


class Rule:
    """Base class: subclasses set the metadata and implement :meth:`check`."""

    id: str = ""
    title: str = ""
    #: Historical bug this rule guards against (shown in --list-rules).
    rationale: str = ""
    #: "ast" rules see one file's tree; "flow" rules additionally receive
    #: the pass-1 AnalysisContext (symbol graph + native sources).
    tier: str = "ast"
    #: Path suffixes (posix) where this rule does not apply.
    exempt_path_suffixes: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        posix = path.replace("\\", "/")
        return not any(posix.endswith(s) for s in self.exempt_path_suffixes)

    def check(self, tree: ast.AST, path: str) -> Iterator[Tuple[int, int, str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shared AST helpers


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ImportContext:
    """Module aliases relevant to the RNG rules."""

    numpy_random: Set[str] = field(default_factory=set)  # "np.random", ...
    stdlib_random: Set[str] = field(default_factory=set)  # "random", aliases
    os_aliases: Set[str] = field(default_factory=set)
    #: names imported directly, e.g. {"default_rng": "numpy.random.default_rng"}
    from_imports: Dict[str, str] = field(default_factory=dict)

    @staticmethod
    def scan(tree: ast.AST) -> "ImportContext":
        ctx = ImportContext()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name, bound = alias.name, alias.asname or alias.name
                    if name == "numpy":
                        ctx.numpy_random.add(f"{bound}.random")
                    elif name == "numpy.random":
                        # "import numpy.random" binds "numpy"
                        ctx.numpy_random.add(
                            f"{alias.asname}" if alias.asname else "numpy.random"
                        )
                    elif name == "random":
                        ctx.stdlib_random.add(bound)
                    elif name == "os":
                        ctx.os_aliases.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    ctx.from_imports[bound] = f"{node.module}.{alias.name}"
        return ctx


# ---------------------------------------------------------------------------
# DET001


#: numpy.random attributes that are not process-global state.
_NP_RANDOM_SAFE = {"Generator", "SeedSequence", "BitGenerator", "PCG64"}


class UnseededRandomness(Rule):
    id = "DET001"
    title = "unseeded or global-state RNG construction"
    rationale = (
        "Unseeded generators break run-to-run reproducibility silently; "
        "every entry point threads an explicit rng, with "
        "repro.core.rng.fallback_rng() as the one annotated OS-entropy sink."
    )

    def check(self, tree, path):
        ctx = ImportContext.scan(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            resolved = ctx.from_imports.get(name, name)
            no_args = not node.args and not node.keywords
            for root in ctx.numpy_random:
                if not name.startswith(root + "."):
                    continue
                attr = name[len(root) + 1 :]
                if attr in _NP_RANDOM_SAFE:
                    break
                if attr in ("default_rng", "RandomState"):
                    if no_args:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"unseeded {name}(): thread an explicit rng or "
                            "use repro.core.rng.fallback_rng()",
                        )
                else:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"{name}() uses numpy's process-global RNG state; "
                        "construct a Generator and thread it explicitly",
                    )
                break
            else:
                if resolved == "numpy.random.default_rng" and no_args:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "unseeded default_rng(): thread an explicit rng or "
                        "use repro.core.rng.fallback_rng()",
                    )
                elif "." in name and name.split(".", 1)[0] in ctx.stdlib_random:
                    attr = name.split(".", 1)[1]
                    if attr == "Random":
                        if no_args:
                            yield (
                                node.lineno,
                                node.col_offset,
                                "unseeded random.Random(): pass an explicit "
                                "seed",
                            )
                    elif "." not in attr:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"{name}() uses the stdlib's process-global RNG "
                            "state; use a seeded random.Random or a numpy "
                            "Generator",
                        )


# ---------------------------------------------------------------------------
# DET002


class BuiltinHashOutsideDunder(Rule):
    id = "DET002"
    title = "builtin hash() outside __hash__"
    rationale = (
        "String hashing is PYTHONHASHSEED-salted: hash(name)-derived seeds "
        "or orderings change per process (the fig12-15 baseline-seeding "
        "bug).  Use zlib.crc32 / stable_fingerprint() for anything that "
        "crosses a process boundary; hash() only inside __hash__."
    )

    def check(self, tree, path):
        yield from self._walk(tree, in_dunder_hash=False)

    def _walk(self, node, in_dunder_hash):
        for child in ast.iter_child_nodes(node):
            inside = in_dunder_hash
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = in_dunder_hash or child.name == "__hash__"
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "hash"
                and not in_dunder_hash
            ):
                yield (
                    child.lineno,
                    child.col_offset,
                    "builtin hash() is PYTHONHASHSEED-salted for "
                    "str/bytes-bearing values; use zlib.crc32 or a stable "
                    "fingerprint helper outside __hash__",
                )
            yield from self._walk(child, inside)


# ---------------------------------------------------------------------------
# DET003


_RNGISH = re.compile(r"(^|_)rng($|_)|random|seed", re.IGNORECASE)


def _is_unordered_iterable(node: ast.AST, ctx: ImportContext) -> Optional[str]:
    """Describe ``node`` if iterating it has nondeterministic order."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return f"{name}()"
        if name is not None:
            resolved = ctx.from_imports.get(name, name)
            root = name.split(".", 1)[0]
            if (
                resolved in ("os.listdir", "os.scandir")
                or (root in ctx.os_aliases and name.endswith((".listdir", ".scandir")))
            ):
                return f"{name}() (filesystem order)"
            if name.endswith(".iterdir"):
                return f"{name}() (filesystem order)"
    return None


def _feeds_accumulation(body: Sequence[ast.stmt]) -> Optional[str]:
    """Why a loop body is order-sensitive, or None."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return "numeric accumulation (augmented assignment)"
            if isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                leaf = name.split(".")[0]
                if "." in name and _RNGISH.search(leaf):
                    return f"RNG state ({name}())"
                if name == "hash":
                    return "hash() of the iteration variable"
    return None


_ACCUMULATORS = {"sum", "fsum", "math.fsum", "np.sum", "numpy.sum", "np.add.reduce"}


class UnorderedIterationFeedingState(Rule):
    id = "DET003"
    title = "unordered iteration feeding numeric accumulation or RNG state"
    rationale = (
        "set/os.listdir iteration order depends on PYTHONHASHSEED or the "
        "filesystem; folding it into float sums or RNG draws makes results "
        "process-dependent.  Iterate sorted(...) instead."
    )

    def check(self, tree, path):
        ctx = ImportContext.scan(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                what = _is_unordered_iterable(node.iter, ctx)
                if what is None:
                    continue
                if "filesystem order" in what:
                    yield (
                        node.iter.lineno,
                        node.iter.col_offset,
                        f"iterating {what} is nondeterministic; wrap in "
                        "sorted(...)",
                    )
                    continue
                why = _feeds_accumulation(node.body)
                if why is not None:
                    yield (
                        node.iter.lineno,
                        node.iter.col_offset,
                        f"iterating {what} feeds {why}; iteration order is "
                        "PYTHONHASHSEED-dependent for str keys — iterate "
                        "sorted(...) instead",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name not in _ACCUMULATORS or not node.args:
                    continue
                arg = node.args[0]
                candidates = [arg]
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    candidates = [g.iter for g in arg.generators]
                for cand in candidates:
                    what = _is_unordered_iterable(cand, ctx)
                    if what is not None:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"{name}() over {what}: float accumulation order "
                            "is nondeterministic — sort first",
                        )
                        break


# ---------------------------------------------------------------------------
# PRIV002


def _scale_expression(node: ast.Call) -> Optional[ast.AST]:
    """The scale argument of a noise call, if this is one."""
    name = dotted_name(node.func) or ""
    leaf = name.split(".")[-1]
    if leaf == "laplace_noise":
        for kw in node.keywords:
            if kw.arg == "scale":
                return kw.value
        return node.args[0] if node.args else None
    if leaf == "laplace" and "." in name:  # rng.laplace / np.random.laplace
        for kw in node.keywords:
            if kw.arg == "scale":
                return kw.value
        return node.args[1] if len(node.args) > 1 else None
    return None


class NoiseScaleBypassesSensitivity(Rule):
    id = "PRIV002"
    title = "noise scale expression bypasses the sensitivity helpers"
    rationale = (
        "A wrong inline scale (dropped sensitivity factor, inverted ratio) "
        "breaks the ε-DP guarantee invisibly; scales must come from "
        "laplace_scale(sensitivity, epsilon) / laplace_mechanism or a "
        "precomputed variable."
    )
    exempt_path_suffixes = ("dp/accountant.py", "dp/mechanisms.py")

    def check(self, tree, path):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            scale = _scale_expression(node)
            if scale is None:
                continue
            if isinstance(scale, (ast.Name, ast.Attribute, ast.Constant)):
                continue
            if isinstance(scale, ast.UnaryOp) and isinstance(
                scale.operand, ast.Constant
            ):
                continue  # e.g. laplace_noise(-1.0, ...) validation tests
            if isinstance(scale, ast.Call):
                scale_name = dotted_name(scale.func) or ""
                leaf = scale_name.split(".")[-1]
                if "scale" in leaf or "sensitivity" in leaf:
                    continue
            yield (
                node.lineno,
                node.col_offset,
                "noise scale is an inline expression; derive it via "
                "repro.dp.mechanisms.laplace_scale(sensitivity, epsilon) "
                "or pass a named precomputed scale",
            )


# ---------------------------------------------------------------------------
# NUM001


_PRODUCT_FUNCS = {
    "np.prod",
    "np.cumprod",
    "numpy.prod",
    "numpy.cumprod",
    "math.prod",
}

_SAFE_DTYPES = {"object", "float", "np.float64", "numpy.float64"}


class UnguardedDomainProduct(Rule):
    id = "NUM001"
    title = "unguarded product over size arrays"
    rationale = (
        "np.prod over domain sizes wraps silently past int64 (the "
        "flatten_index/domain_size overflow bug); use "
        "repro.data.marginals.domain_size (exact Python ints + "
        "ensure_int64_domain) or an explicit overflow-safe dtype."
    )

    def check(self, tree, path):
        ctx = ImportContext.scan(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            resolved = ctx.from_imports.get(name, name)
            if name not in _PRODUCT_FUNCS and resolved not in (
                "math.prod",
                "numpy.prod",
                "numpy.cumprod",
            ):
                continue
            dtype = next(
                (kw.value for kw in node.keywords if kw.arg == "dtype"), None
            )
            if dtype is not None:
                dtype_name = dotted_name(dtype)
                if dtype_name in _SAFE_DTYPES:
                    continue
            yield (
                node.lineno,
                node.col_offset,
                f"{name}() can overflow int64 silently on wide domains; use "
                "repro.data.marginals.domain_size (exact, guarded) or pass "
                "an overflow-safe dtype (object/float64)",
            )


# ---------------------------------------------------------------------------
# registry


def ast_rules() -> List[Rule]:
    """The per-file pattern tier (tier="ast")."""
    return [
        UnseededRandomness(),
        BuiltinHashOutsideDunder(),
        UnorderedIterationFeedingState(),
        NoiseScaleBypassesSensitivity(),
        UnguardedDomainProduct(),
    ]


# The flow tier lives in flow_rules.py, which imports Rule & helpers from
# this module; importing it at the bottom (everything it needs is already
# defined) keeps the registry whole without a package-level cycle.
from repro.analysis.flow_rules import flow_rules as _flow_rules  # noqa: E402


def default_rules() -> List[Rule]:
    return ast_rules() + _flow_rules()


RULES: Dict[str, Rule] = {rule.id: rule for rule in default_rules()}

#: Every id a pragma may reference.
KNOWN_RULE_IDS = frozenset(RULES) | {PARSE_ERROR_RULE, BAD_PRAGMA_RULE}

__all__ = [
    "ANALYZER_VERSION",
    "BAD_PRAGMA_RULE",
    "Finding",
    "KNOWN_RULE_IDS",
    "PARSE_ERROR_RULE",
    "RULES",
    "Rule",
    "ast_rules",
    "default_rules",
    "dotted_name",
]
