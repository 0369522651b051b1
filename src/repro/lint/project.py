"""Phase one of the whole-program analyzer: the project index.

The per-file rules (DET/ARCH/API001-002/OBS001) see one AST at a time;
the cross-module invariants the determinism contract now rests on — RNG
values flowing only from ``SeedSequenceFactory`` roots, the fleet spawn
surface staying pickle-safe, ``repro.obs`` staying write-only — need a
view of the *whole* package. This module builds that view:

* :func:`extract_module_facts` digests one parsed module into a
  JSON-serializable :class:`ModuleFacts` record: an import-resolution
  table, module-level symbol table, an approximate call graph, class /
  attribute maps, and pre-located *sites* (potential RNG bindings, obs
  state reads, fleet spawn-surface values) that the project rules in :mod:`repro.lint.rules.taint`,
  :mod:`repro.lint.rules.snap`, and :mod:`repro.lint.rules.obs` judge
  with cross-module knowledge.
* :class:`IndexCache` persists those records on disk keyed by file
  content digest, so the tier-1 zero-findings gate pays the AST walk
  only for files that actually changed (hit/miss/parse counts are
  reported through ``repro.obs`` counters — see ``--stats``).
* :class:`ProjectIndex` holds every module's facts plus the resolution
  helpers the rules share: re-export chasing, the class index, the
  RNG-returning-function fixpoint, and the project-wide set of
  obs-instrument attribute names.

Soundness caveats (DESIGN.md §12): the call graph is name-based and
flow-insensitive, attribute taint is recognized by convention-derived
patterns (``obs``/``_obs`` receivers, ``rng``-suffixed names), and
dynamic dispatch/re-binding are invisible. The rules are therefore
tuned to the codebase's enforced conventions — which the per-file rules
themselves keep true — and every approximation widens *detection*, not
silence, wherever the two conflict.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from repro.lint.sources import content_digest, iter_python_files, module_name_for, parse_suppressions
from repro.obs.facade import NULL_OBS, Observability

#: bumped whenever ModuleFacts' serialized shape changes incompatibly;
#: a cache written by another version is ignored wholesale, never trusted
INDEX_SCHEMA_VERSION = 4

#: default on-disk location of the incremental index cache
DEFAULT_CACHE_PATH = ".repro_lint_cache.json"

#: generator constructors that mint RNG state outside the sanctioned
#: SeedSequenceFactory roots (canonical, post-import-resolution names)
RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "random.SystemRandom",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
    }
)

#: fallback injection roots when ``repro.util.rng`` is outside the
#: analyzed tree (fixture packages); the real list is read from that
#: module's ``RNG_ROOTS`` declaration at index time
DEFAULT_RNG_ROOT_NAMES = ("derive_rng", "SeedSequenceFactory")

#: obs facade methods that *create* instruments (write handles)
_INSTRUMENT_FACTORIES = frozenset({"counter", "gauge", "histogram"})


def _dotted_parts(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` attribute chain as parts; ``None`` for non-Name roots."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return list(reversed(parts))
    return None


def _attr_segments(node: ast.expr) -> List[str]:
    """Attribute names along a chain regardless of its root expression.

    Unlike :func:`_dotted_parts` this tolerates subscripted / call roots
    (``built[True].obs.metrics`` → ``["obs", "metrics"]``) — enough to
    recognize obs-flavored access paths.
    """
    segments: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        segments.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        segments.append(current.id)
    return list(reversed(segments))


# -- serializable fact records ----------------------------------------------


@dataclass(frozen=True)
class FunctionFacts:
    """One function or method: location, shape, and RNG return behavior."""

    name: str
    line: int
    col: int
    #: defined inside another function (not picklable by qualified name)
    nested: bool
    params: Tuple[str, ...]
    #: a return statement locally evaluates to an RNG-producing call
    returns_rng_direct: bool
    #: resolved callees whose return value this function returns — the
    #: edges the RNG-returning fixpoint propagates over
    return_calls: Tuple[str, ...]


@dataclass(frozen=True)
class ClassFacts:
    """One class: pickle-relevant surface plus attribute type edges."""

    name: str
    line: int
    col: int
    nested: bool
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]
    has_slots: bool
    has_getstate: bool
    has_setstate: bool
    #: attr name -> resolved type names assigned or annotated to it
    attr_types: Dict[str, Tuple[str, ...]]
    #: attrs holding obs instruments (``self.x = obs.counter(...)``)
    instrument_attrs: Tuple[str, ...]


@dataclass(frozen=True)
class RngSite:
    """A location where an RNG value may be minted or captured.

    ``kind``: ``"ctor"`` (unsanctioned constructor call), ``"global"``
    (module-level name bound to a call result), ``"default"`` (function
    parameter defaulting to a call result). For ``global``/``default``
    the taint verdict needs the project-level RNG-returning set, so the
    resolved ``callee`` is recorded and judged later.
    """

    kind: str
    line: int
    col: int
    symbol: str
    callee: str


@dataclass(frozen=True)
class ObsReadSite:
    """A read of metrics/tracer state. ``attr`` empty = locally proven;
    otherwise the receiver attribute name, confirmed against the
    project-wide instrument-attribute set at rule time."""

    line: int
    col: int
    expr: str
    attr: str


@dataclass(frozen=True)
class SpawnSite:
    """A value placed on the fleet spawn/pickle surface (registry entry,
    ReplicaSpec argument, or pool submission)."""

    line: int
    col: int
    context: str
    #: "name" | "dotted" | "lambda" | "partial" | "call" | "other"
    value_kind: str
    value_ref: str


@dataclass
class ModuleFacts:
    """Everything the project rules may know about one module."""

    path: str
    module: Optional[str]
    digest: str
    is_package: bool
    #: local name -> canonical dotted target (import resolution table)
    imports: Dict[str, str] = field(default_factory=dict)
    #: absolute ``repro.*`` modules imported (the ARCH001 DAG edges)
    repro_imports: List[str] = field(default_factory=list)
    #: module-level string-tuple constants (e.g. ``RNG_ROOTS``)
    constants: Dict[str, List[str]] = field(default_factory=dict)
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)
    #: approximate call graph: caller qualname -> resolved callees
    calls: Dict[str, List[str]] = field(default_factory=dict)
    rng_sites: List[RngSite] = field(default_factory=list)
    obs_reads: List[ObsReadSite] = field(default_factory=list)
    spawn_sites: List[SpawnSite] = field(default_factory=list)
    #: line (as str for JSON round-tripping) -> suppressed rule ids
    suppressions: Dict[str, List[str]] = field(default_factory=dict)

    def suppression_map(self) -> Dict[int, FrozenSet[str]]:
        return {int(line): frozenset(ids) for line, ids in self.suppressions.items()}

    # -- cache round trip ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "module": self.module,
            "digest": self.digest,
            "is_package": self.is_package,
            "imports": dict(sorted(self.imports.items())),
            "repro_imports": list(self.repro_imports),
            "constants": {k: list(v) for k, v in sorted(self.constants.items())},
            "functions": {
                name: {
                    "name": fn.name,
                    "line": fn.line,
                    "col": fn.col,
                    "nested": fn.nested,
                    "params": list(fn.params),
                    "returns_rng_direct": fn.returns_rng_direct,
                    "return_calls": list(fn.return_calls),
                }
                for name, fn in sorted(self.functions.items())
            },
            "classes": {
                name: {
                    "name": cls.name,
                    "line": cls.line,
                    "col": cls.col,
                    "nested": cls.nested,
                    "bases": list(cls.bases),
                    "methods": list(cls.methods),
                    "has_slots": cls.has_slots,
                    "has_getstate": cls.has_getstate,
                    "has_setstate": cls.has_setstate,
                    "attr_types": {a: list(t) for a, t in sorted(cls.attr_types.items())},
                    "instrument_attrs": list(cls.instrument_attrs),
                }
                for name, cls in sorted(self.classes.items())
            },
            "calls": {k: list(v) for k, v in sorted(self.calls.items())},
            "rng_sites": [vars(site) for site in self.rng_sites],
            "obs_reads": [vars(site) for site in self.obs_reads],
            "spawn_sites": [vars(site) for site in self.spawn_sites],
            "suppressions": {k: list(v) for k, v in sorted(self.suppressions.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ModuleFacts":
        functions = {
            name: FunctionFacts(
                name=str(fn["name"]),
                line=int(fn["line"]),  # type: ignore[call-overload]
                col=int(fn["col"]),  # type: ignore[call-overload]
                nested=bool(fn["nested"]),
                params=tuple(fn["params"]),  # type: ignore[arg-type]
                returns_rng_direct=bool(fn["returns_rng_direct"]),
                return_calls=tuple(fn["return_calls"]),  # type: ignore[arg-type]
            )
            for name, fn in dict(data.get("functions", {})).items()  # type: ignore[arg-type]
        }
        classes = {
            name: ClassFacts(
                name=str(c["name"]),
                line=int(c["line"]),  # type: ignore[call-overload]
                col=int(c["col"]),  # type: ignore[call-overload]
                nested=bool(c["nested"]),
                bases=tuple(c["bases"]),  # type: ignore[arg-type]
                methods=tuple(c["methods"]),  # type: ignore[arg-type]
                has_slots=bool(c["has_slots"]),
                has_getstate=bool(c["has_getstate"]),
                has_setstate=bool(c["has_setstate"]),
                attr_types={
                    a: tuple(t) for a, t in dict(c["attr_types"]).items()  # type: ignore[arg-type]
                },
                instrument_attrs=tuple(c["instrument_attrs"]),  # type: ignore[arg-type]
            )
            for name, c in dict(data.get("classes", {})).items()  # type: ignore[arg-type]
        }
        return cls(
            path=str(data["path"]),
            module=data["module"] if data["module"] is None else str(data["module"]),
            digest=str(data["digest"]),
            is_package=bool(data.get("is_package", False)),
            imports=dict(data.get("imports", {})),  # type: ignore[arg-type]
            repro_imports=list(data.get("repro_imports", [])),  # type: ignore[arg-type]
            constants={
                k: list(v)
                for k, v in dict(data.get("constants", {})).items()  # type: ignore[arg-type]
            },
            functions=functions,
            classes=classes,
            calls={k: list(v) for k, v in dict(data.get("calls", {})).items()},  # type: ignore[arg-type]
            rng_sites=[RngSite(**site) for site in data.get("rng_sites", [])],  # type: ignore[arg-type, union-attr]
            obs_reads=[ObsReadSite(**site) for site in data.get("obs_reads", [])],  # type: ignore[arg-type, union-attr]
            spawn_sites=[SpawnSite(**site) for site in data.get("spawn_sites", [])],  # type: ignore[arg-type, union-attr]
            suppressions={
                k: list(v)
                for k, v in dict(data.get("suppressions", {})).items()  # type: ignore[arg-type]
            },
        )


# -- extraction --------------------------------------------------------------


class _ModuleExtractor:
    """One pass over a parsed module producing its :class:`ModuleFacts`."""

    def __init__(self, tree: ast.Module, path: str, module: Optional[str], source: str):
        self.tree = tree
        self.path = path
        self.module = module
        self.is_package = path.endswith("__init__.py")
        self.facts = ModuleFacts(
            path=path,
            module=module,
            digest=content_digest(source),
            is_package=self.is_package,
            suppressions={
                str(line): sorted(ids)
                for line, ids in parse_suppressions(source).items()
            },
        )
        #: module-level names defined here (functions/classes/constants)
        self._module_symbols: set[str] = set()

    # -- name resolution ----------------------------------------------------

    def _package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.module is None:
            return ""
        if self.is_package:
            return self.module
        return self.module.rsplit(".", 1)[0] if "." in self.module else ""

    def _record_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.facts.imports[local] = target
                    if alias.name == "repro" or alias.name.startswith("repro."):
                        self.facts.repro_imports.append(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level > 0:
                    package = self._package()
                    for _ in range(node.level - 1):
                        package = package.rsplit(".", 1)[0] if "." in package else ""
                    base = f"{package}.{node.module}" if node.module else package
                if not base:
                    continue
                if base == "repro" or base.startswith("repro."):
                    self.facts.repro_imports.append(base)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.facts.imports[local] = f"{base}.{alias.name}"

    def resolve(self, name: str) -> str:
        """Canonicalize a dotted name through the import table.

        Local module-level symbols resolve to ``<module>.<name>``;
        imported heads are substituted; everything else passes through.
        """
        head, _, rest = name.partition(".")
        if head in self.facts.imports:
            target = self.facts.imports[head]
            return f"{target}.{rest}" if rest else target
        if self.module is not None and head in self._module_symbols:
            return f"{self.module}.{name}"
        return name

    def _resolve_expr(self, node: ast.expr) -> str:
        parts = _dotted_parts(node)
        if parts is None:
            return ""
        return self.resolve(".".join(parts))

    # -- RNG-expression classification --------------------------------------

    def _rng_root_names(self) -> FrozenSet[str]:
        names = set(DEFAULT_RNG_ROOT_NAMES)
        return frozenset(f"repro.util.rng.{name}" for name in names)

    def _is_rng_producing_call(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        resolved = self._resolve_expr(node.func)
        return resolved in RNG_CONSTRUCTORS or resolved in self._rng_root_names()

    # -- obs-expression classification --------------------------------------

    @staticmethod
    def _is_obs_segment(segment: str) -> bool:
        return segment in ("obs", "_obs") or segment.endswith("_obs") or segment.endswith(".obs")

    def _chain_is_obs_flavored(self, segments: List[str], obs_vars: set[str]) -> bool:
        if not segments:
            return False
        if segments[0] in obs_vars:
            return True
        return any(self._is_obs_segment(segment) for segment in segments)

    # -- top-level walk ------------------------------------------------------

    def extract(self) -> ModuleFacts:
        self._record_imports()
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self._module_symbols.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._module_symbols.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                self._module_symbols.add(node.target.id)

        module_rng_vars: set[str] = set()
        module_obs_vars: set[str] = set()
        toplevel_calls: List[str] = []
        for node in self.tree.body:
            self._extract_statement(
                node,
                scope="<module>",
                at_module_level=True,
                rng_vars=module_rng_vars,
                obs_vars=module_obs_vars,
                calls_out=toplevel_calls,
            )
        if toplevel_calls:
            self.facts.calls["<module>"] = sorted(set(toplevel_calls))
        return self.facts

    # -- statement dispatch --------------------------------------------------

    def _extract_statement(
        self,
        node: ast.stmt,
        scope: str,
        at_module_level: bool,
        rng_vars: set[str],
        obs_vars: set[str],
        calls_out: List[str],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._extract_function(node, scope=scope)
            return
        if isinstance(node, ast.ClassDef):
            self._extract_class(node, nested=scope != "<module>")
            return
        if at_module_level:
            self._extract_module_assignment(node, rng_vars, obs_vars)
        self._scan_expressions(node, scope, rng_vars, obs_vars, calls_out)

    def _extract_module_assignment(
        self, node: ast.stmt, rng_vars: set[str], obs_vars: set[str]
    ) -> None:
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            targets: List[ast.expr] = [node.target]
            value: Optional[ast.expr] = node.value
        elif isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        else:
            return
        if value is None:
            return
        name_targets = [t.id for t in targets if isinstance(t, ast.Name)]
        if not name_targets:
            # module-level registry mutation: ``ARMS["x"] = value``
            for target in targets:
                if isinstance(target, ast.Subscript):
                    self._record_registry_entry(target, value)
            return
        # string-tuple constants (RNG_ROOTS and friends)
        if isinstance(value, (ast.Tuple, ast.List)) and value.elts:
            strings = [
                elt.value
                for elt in value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
            if len(strings) == len(value.elts):
                for name in name_targets:
                    self.facts.constants[name] = list(strings)
        # registry dict literal (fleet spawn surface)
        if isinstance(value, ast.Dict):
            for name in name_targets:
                self._record_registry_dict(name, value)
        # call-valued globals: potential RNG laundering, judged at rule time
        if isinstance(value, ast.Call):
            callee = self._resolve_expr(value.func)
            for name in name_targets:
                self.facts.rng_sites.append(
                    RngSite(
                        kind="global",
                        line=value.lineno,
                        col=value.col_offset,
                        symbol=name,
                        callee=callee,
                    )
                )
            if self._is_rng_producing_call(value):
                rng_vars.update(name_targets)
        elif isinstance(value, ast.Name) and value.id in rng_vars:
            for name in name_targets:
                self.facts.rng_sites.append(
                    RngSite(
                        kind="global",
                        line=value.lineno,
                        col=value.col_offset,
                        symbol=name,
                        callee="<alias>",
                    )
                )

    # -- functions -----------------------------------------------------------

    def _qualname(self, scope: str, name: str) -> str:
        return name if scope == "<module>" else f"{scope}.{name}"

    def _extract_function(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        scope: str,
    ) -> None:
        nested = "." in scope or (scope != "<module>" and not self._is_class_scope(scope))
        qual = self._qualname(scope, node.name)
        args = node.args
        params = tuple(
            a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)
        )
        # RNG defaults (API003): parameters defaulting to a call result
        positional = args.posonlyargs + args.args
        defaults = list(args.defaults)
        pairs = list(zip(positional[len(positional) - len(defaults):], defaults))
        pairs += [
            (arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for arg, default in pairs:
            if isinstance(default, ast.Call):
                self.facts.rng_sites.append(
                    RngSite(
                        kind="default",
                        line=default.lineno,
                        col=default.col_offset,
                        symbol=f"{qual}.{arg.arg}",
                        callee=self._resolve_expr(default.func),
                    )
                )

        rng_vars = {p for p in params if p == "rng" or p.endswith("_rng")}
        obs_vars = {p for p in params if p in ("obs", "_obs")}
        calls: List[str] = []
        returns_rng_direct = False
        return_calls: List[str] = []

        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_inner_function(stmt, qual)
                continue
            if isinstance(stmt, ast.ClassDef):
                self._extract_class(stmt, nested=True)
                continue
            self._scan_expressions(stmt, qual, rng_vars, obs_vars, calls)
        # local taint + return classification in statement order
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                if isinstance(stmt.value, ast.Call) and self._is_rng_producing_call(stmt.value):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            rng_vars.add(target.id)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                value = stmt.value
                if isinstance(value, ast.Call):
                    if self._is_rng_producing_call(value):
                        returns_rng_direct = True
                    else:
                        resolved = self._resolve_expr(value.func)
                        if resolved:
                            return_calls.append(resolved)
                elif isinstance(value, ast.Name) and value.id in rng_vars:
                    returns_rng_direct = True

        self.facts.functions[qual] = FunctionFacts(
            name=qual,
            line=node.lineno,
            col=node.col_offset,
            nested=nested,
            params=params,
            returns_rng_direct=returns_rng_direct,
            return_calls=tuple(sorted(set(return_calls))),
        )
        if calls:
            self.facts.calls[qual] = sorted(set(calls))

    def _extract_inner_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef], parent_qual: str
    ) -> None:
        qual = f"{parent_qual}.<locals>.{node.name}"
        self.facts.functions[qual] = FunctionFacts(
            name=qual,
            line=node.lineno,
            col=node.col_offset,
            nested=True,
            params=tuple(a.arg for a in node.args.args),
            returns_rng_direct=False,
            return_calls=(),
        )
        # a closure is still scanned: an unsanctioned ctor hidden inside a
        # nested def is just as ambient as one at module scope
        calls: List[str] = []
        rng_vars: set[str] = set()
        obs_vars: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_inner_function(stmt, qual)
                continue
            self._scan_expressions(stmt, qual, rng_vars, obs_vars, calls)
        if calls:
            self.facts.calls[qual] = sorted(set(calls))

    def _is_class_scope(self, scope: str) -> bool:
        return scope in self.facts.classes

    # -- classes -------------------------------------------------------------

    def _extract_class(self, node: ast.ClassDef, nested: bool) -> None:
        bases = tuple(
            resolved
            for resolved in (self._resolve_expr(base) for base in node.bases)
            if resolved
        )
        methods: List[str] = []
        attr_types: Dict[str, List[str]] = {}
        instrument_attrs: List[str] = []
        has_slots = False
        # dataclass-style field annotations
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = self._annotation_type_names(stmt.annotation)
                if names:
                    attr_types.setdefault(stmt.target.id, []).extend(names)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        has_slots = True
        # register the class symbol before walking methods so self-references resolve
        self.facts.classes[node.name] = ClassFacts(
            name=node.name,
            line=node.lineno,
            col=node.col_offset,
            nested=nested,
            bases=bases,
            methods=(),
            has_slots=has_slots,
            has_getstate=False,
            has_setstate=False,
            attr_types={},
            instrument_attrs=(),
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                self._extract_method(stmt, node.name, attr_types, instrument_attrs)
        self.facts.classes[node.name] = ClassFacts(
            name=node.name,
            line=node.lineno,
            col=node.col_offset,
            nested=nested,
            bases=bases,
            methods=tuple(methods),
            has_slots=has_slots,
            has_getstate="__getstate__" in methods,
            has_setstate="__setstate__" in methods,
            attr_types={a: tuple(dict.fromkeys(t)) for a, t in sorted(attr_types.items())},
            instrument_attrs=tuple(dict.fromkeys(instrument_attrs)),
        )

    def _annotation_type_names(self, node: ast.expr) -> List[str]:
        """Resolved identifiers inside an annotation (incl. subscripts)."""
        names: List[str] = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.append(self.resolve(sub.id))
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                # string annotation: resolve the head identifier
                head = sub.value.split("[")[0].strip()
                if head.isidentifier():
                    names.append(self.resolve(head))
        return [n for n in names if n]

    def _extract_method(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        class_name: str,
        attr_types: Dict[str, List[str]],
        instrument_attrs: List[str],
    ) -> None:
        self._extract_function(node, scope=class_name)
        params = {a.arg for a in node.args.args}
        obs_vars = {p for p in params if p in ("obs", "_obs")}
        for stmt in ast.walk(node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value = stmt.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if isinstance(stmt, ast.AnnAssign):
                    names = self._annotation_type_names(stmt.annotation)
                    if names:
                        attr_types.setdefault(attr, []).extend(names)
                if value is None:
                    continue
                for call in self._constructor_calls(value):
                    resolved = self._resolve_expr(call.func)
                    if resolved:
                        attr_types.setdefault(attr, []).append(resolved)
                if self._is_instrument_factory_call(value, obs_vars):
                    instrument_attrs.append(attr)

    def _constructor_calls(self, value: ast.expr) -> List[ast.Call]:
        """Direct constructor-looking calls in an assigned expression.

        Covers plain calls and conditional expressions
        (``A() if cond else B()``).
        """
        if isinstance(value, ast.Call):
            return [value]
        if isinstance(value, ast.IfExp):
            return self._constructor_calls(value.body) + self._constructor_calls(value.orelse)
        return []

    def _is_instrument_factory_call(self, value: ast.expr, obs_vars: set[str]) -> bool:
        for call in self._constructor_calls(value):
            if isinstance(call.func, ast.Attribute) and call.func.attr in _INSTRUMENT_FACTORIES:
                segments = _attr_segments(call.func.value)
                if self._chain_is_obs_flavored(segments, obs_vars):
                    return True
        return False

    # -- expression scanning (calls, obs reads, spawn sites) ------

    def _scan_expressions(
        self,
        node: ast.stmt,
        scope: str,
        rng_vars: set[str],
        obs_vars: set[str],
        calls_out: List[str],
    ) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                resolved = self._resolve_expr(sub.func)
                if resolved:
                    calls_out.append(resolved)
                    if resolved in RNG_CONSTRUCTORS:
                        self.facts.rng_sites.append(
                            RngSite(
                                kind="ctor",
                                line=sub.lineno,
                                col=sub.col_offset,
                                symbol=scope,
                                callee=resolved,
                            )
                        )
                    if resolved.endswith(".ReplicaSpec") or resolved == "ReplicaSpec":
                        self._record_spec_call(sub)
                self._maybe_record_obs_call_read(sub, obs_vars)
                self._maybe_record_submit(sub)
            elif isinstance(sub, ast.Assign):
                if isinstance(sub.value, ast.Call) and self._is_rng_producing_call(sub.value):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            rng_vars.add(target.id)
                if self._is_obs_source(sub.value, obs_vars):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            obs_vars.add(target.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                self._maybe_record_obs_attr_read(sub, obs_vars)

    def _is_obs_source(self, value: ast.expr, obs_vars: set[str]) -> bool:
        if isinstance(value, ast.Call):
            resolved = self._resolve_expr(value.func)
            if resolved.endswith("Observability") or resolved.endswith("NULL_OBS"):
                return True
            return False
        segments = _attr_segments(value)
        return bool(segments) and (
            segments[-1] in ("obs", "_obs") or (len(segments) == 1 and segments[0] in obs_vars)
        )

    def _maybe_record_obs_call_read(self, call: ast.Call, obs_vars: set[str]) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        attr = call.func.attr
        segments = _attr_segments(call.func.value)
        if attr == "snapshot" and (
            "metrics" in segments and self._chain_is_obs_flavored(segments, obs_vars)
        ):
            self.facts.obs_reads.append(
                ObsReadSite(
                    line=call.lineno,
                    col=call.col_offset,
                    expr=".".join(segments + [attr]),
                    attr="",
                )
            )

    def _maybe_record_obs_attr_read(self, node: ast.Attribute, obs_vars: set[str]) -> None:
        if node.attr == "value":
            segments = _attr_segments(node.value)
            if not segments:
                return
            if self._chain_is_obs_flavored(segments, obs_vars):
                self.facts.obs_reads.append(
                    ObsReadSite(
                        line=node.lineno,
                        col=node.col_offset,
                        expr=".".join(segments + ["value"]),
                        attr="",
                    )
                )
            elif len(segments) >= 2:
                # deferred: confirmed iff the receiver attr is a known
                # obs-instrument attribute anywhere in the project
                self.facts.obs_reads.append(
                    ObsReadSite(
                        line=node.lineno,
                        col=node.col_offset,
                        expr=".".join(segments + ["value"]),
                        attr=segments[-1],
                    )
                )
        elif node.attr == "records" and "tracer" in _attr_segments(node.value):
            segments = _attr_segments(node.value)
            self.facts.obs_reads.append(
                ObsReadSite(
                    line=node.lineno,
                    col=node.col_offset,
                    expr=".".join(segments + ["records"]),
                    attr="",
                )
            )

    # -- fleet spawn surface --------------------------------------------------

    def _classify_spawn_value(self, value: ast.expr) -> Tuple[str, str]:
        if isinstance(value, ast.Lambda):
            return "lambda", ""
        if isinstance(value, ast.Name):
            return "name", self.resolve(value.id)
        if isinstance(value, ast.Attribute):
            return "dotted", self._resolve_expr(value)
        if isinstance(value, ast.Call):
            resolved = self._resolve_expr(value.func)
            if resolved in ("functools.partial", "partial"):
                return "partial", resolved
            return "call", resolved
        if isinstance(value, ast.Constant):
            return "constant", ""
        return "other", ""

    def _in_fleet(self) -> bool:
        return self.module is not None and (
            self.module == "repro.fleet" or self.module.startswith("repro.fleet.")
        )

    def _record_registry_dict(self, name: str, value: ast.Dict) -> None:
        if not self._in_fleet():
            return
        for key, entry in zip(value.keys, value.values):
            kind, ref = self._classify_spawn_value(entry)
            if kind == "constant":
                continue
            key_repr = (
                repr(key.value)
                if isinstance(key, ast.Constant)
                else "?"
            )
            self.facts.spawn_sites.append(
                SpawnSite(
                    line=entry.lineno,
                    col=entry.col_offset,
                    context=f"{name}[{key_repr}]",
                    value_kind=kind,
                    value_ref=ref,
                )
            )

    def _record_registry_entry(self, target: ast.Subscript, value: ast.expr) -> None:
        if not self._in_fleet():
            return
        if not isinstance(target.value, ast.Name):
            return
        kind, ref = self._classify_spawn_value(value)
        if kind == "constant":
            return
        key_repr = (
            repr(target.slice.value)
            if isinstance(target.slice, ast.Constant)
            else "?"
        )
        self.facts.spawn_sites.append(
            SpawnSite(
                line=value.lineno,
                col=value.col_offset,
                context=f"{target.value.id}[{key_repr}]",
                value_kind=kind,
                value_ref=ref,
            )
        )

    def _record_spec_call(self, call: ast.Call) -> None:
        values = list(call.args) + [kw.value for kw in call.keywords]
        for value in values:
            for sub in ast.walk(value):
                if isinstance(sub, ast.Lambda):
                    self.facts.spawn_sites.append(
                        SpawnSite(
                            line=sub.lineno,
                            col=sub.col_offset,
                            context="ReplicaSpec(...)",
                            value_kind="lambda",
                            value_ref="",
                        )
                    )

    def _maybe_record_submit(self, call: ast.Call) -> None:
        if not self._in_fleet():
            return
        if not (isinstance(call.func, ast.Attribute) and call.func.attr == "submit"):
            return
        if not call.args:
            return
        kind, ref = self._classify_spawn_value(call.args[0])
        if kind == "constant":
            return
        self.facts.spawn_sites.append(
            SpawnSite(
                line=call.lineno,
                col=call.col_offset,
                context="pool.submit(...)",
                value_kind=kind,
                value_ref=ref,
            )
        )


def extract_module_facts(source: str, path: str) -> ModuleFacts:
    """Parse and digest one module; unparseable files yield bare facts.

    The per-file pass owns reporting syntax errors (``PARSE``); the
    index just records the digest so the cache stays consistent.
    """
    normalized = path.replace("\\", "/")
    module = module_name_for(normalized)
    try:
        tree = ast.parse(source, filename=normalized)
    except SyntaxError:
        return ModuleFacts(
            path=normalized,
            module=module,
            digest=content_digest(source),
            is_package=normalized.endswith("__init__.py"),
        )
    return _ModuleExtractor(tree, normalized, module, source).extract()


# -- the on-disk incremental cache -------------------------------------------


class IndexCache:
    """Digest-keyed per-file facts cache persisted as sorted JSON.

    The key is ``(path, content digest, schema version)``: editing a
    file orphans exactly its own entry, and bumping
    :data:`INDEX_SCHEMA_VERSION` orphans everything at once. The cache
    is a pure accelerator — a corrupt or missing file silently degrades
    to a full re-parse, never to wrong facts.
    """

    def __init__(self, path: Optional[Path]):
        self.path = path
        self._entries: Dict[str, Dict[str, object]] = {}
        self.dirty = False
        if path is not None and path.exists():
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                payload = {}
            if (
                isinstance(payload, dict)
                and payload.get("version") == INDEX_SCHEMA_VERSION
                and isinstance(payload.get("entries"), dict)
            ):
                self._entries = payload["entries"]

    def lookup(self, path: str, digest: str) -> Optional[ModuleFacts]:
        entry = self._entries.get(path)
        if not isinstance(entry, dict) or entry.get("digest") != digest:
            return None
        try:
            return ModuleFacts.from_dict(dict(entry["facts"]))  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            return None

    def store(self, facts: ModuleFacts) -> None:
        self._entries[facts.path] = {"digest": facts.digest, "facts": facts.to_dict()}
        self.dirty = True

    def save(self) -> None:
        if self.path is None or not self.dirty:
            return
        payload = {"version": INDEX_SCHEMA_VERSION, "entries": self._entries}
        self.path.write_text(
            json.dumps(payload, sort_keys=True, indent=None, separators=(",", ":")),
            encoding="utf-8",
        )
        self.dirty = False


# -- the assembled project view ----------------------------------------------


class ProjectIndex:
    """Every module's facts plus the cross-module resolution helpers."""

    def __init__(self, modules: List[ModuleFacts]):
        self.modules = sorted(modules, key=lambda facts: facts.path)
        self._by_path: Dict[str, ModuleFacts] = {facts.path: facts for facts in self.modules}
        self._by_module: Dict[str, ModuleFacts] = {
            facts.module: facts for facts in self.modules if facts.module is not None
        }
        self._class_index: Dict[str, Tuple[ModuleFacts, ClassFacts]] = {}
        self._function_index: Dict[str, Tuple[ModuleFacts, FunctionFacts]] = {}
        for facts in self.modules:
            if facts.module is None:
                continue
            for name, cls in facts.classes.items():
                self._class_index[f"{facts.module}.{name}"] = (facts, cls)
            for name, fn in facts.functions.items():
                self._function_index[f"{facts.module}.{name}"] = (facts, fn)
        self._rng_returning: Optional[FrozenSet[str]] = None

    # -- lookups -------------------------------------------------------------

    def facts_for_path(self, path: str) -> Optional[ModuleFacts]:
        return self._by_path.get(path)

    def facts_for_module(self, module: str) -> Optional[ModuleFacts]:
        return self._by_module.get(module)

    def iter_repro_modules(self) -> Iterator[ModuleFacts]:
        for facts in self.modules:
            if facts.module is not None:
                yield facts

    # -- re-export chasing ---------------------------------------------------

    def resolve_export(self, dotted: str) -> str:
        """Chase package re-exports to a defining module's qualname.

        ``repro.platform.InstagramPlatform`` (imported via the package
        API) resolves to ``repro.platform.instagram.InstagramPlatform``.
        Stops after a bounded number of hops; unknown names return
        unchanged.
        """
        seen: set[str] = set()
        current = dotted
        while current not in seen:
            seen.add(current)
            if current in self._class_index or current in self._function_index:
                return current
            head, _, leaf = current.rpartition(".")
            facts = self._by_module.get(head)
            if facts is None or leaf not in facts.imports:
                return current
            current = facts.imports[leaf]
        return current

    def class_facts(self, dotted: str) -> Optional[Tuple[ModuleFacts, ClassFacts]]:
        return self._class_index.get(self.resolve_export(dotted))

    def function_facts(self, dotted: str) -> Optional[Tuple[ModuleFacts, FunctionFacts]]:
        return self._function_index.get(self.resolve_export(dotted))

    def iter_classes(self) -> Iterator[Tuple[str, ModuleFacts, ClassFacts]]:
        for qual, (facts, cls) in sorted(self._class_index.items()):
            yield qual, facts, cls

    # -- RNG taint helpers ---------------------------------------------------

    def rng_roots(self) -> FrozenSet[str]:
        """Sanctioned injection-point qualnames, read from the shim.

        ``repro.util.rng`` declares its roots in ``RNG_ROOTS``; when the
        shim is outside the analyzed tree the convention's default names
        stand in so fixture packages resolve identically.
        """
        shim = self._by_module.get("repro.util.rng")
        names: Iterable[str] = DEFAULT_RNG_ROOT_NAMES
        if shim is not None and shim.constants.get("RNG_ROOTS"):
            names = shim.constants["RNG_ROOTS"]
        return frozenset(f"repro.util.rng.{name}" for name in names)

    def rng_returning(self) -> FrozenSet[str]:
        """Functions whose return value is (transitively) an RNG.

        Fixpoint over return-call edges: a function returns an RNG if a
        return statement produces one directly, or if it returns the
        result of a call that resolves to an RNG-returning function or
        to an injection root / constructor.
        """
        if self._rng_returning is not None:
            return self._rng_returning
        producers: set[str] = set(self.rng_roots()) | set(RNG_CONSTRUCTORS)
        for qual, (_, fn) in self._function_index.items():
            if fn.returns_rng_direct:
                producers.add(qual)
        changed = True
        while changed:
            changed = False
            for qual, (_, fn) in self._function_index.items():
                if qual in producers:
                    continue
                for callee in fn.return_calls:
                    if self.resolve_export(callee) in producers:
                        producers.add(qual)
                        changed = True
                        break
        self._rng_returning = frozenset(producers)
        return self._rng_returning

    # -- obs helpers ---------------------------------------------------------

    def instrument_attrs(self) -> FrozenSet[str]:
        """Attribute names holding obs instruments anywhere in the tree."""
        attrs: set[str] = set()
        for facts in self.modules:
            for cls in facts.classes.values():
                attrs.update(cls.instrument_attrs)
        return frozenset(attrs)


# -- build -------------------------------------------------------------------


def build_index(
    paths: Iterable[Union[str, Path]],
    cache_path: Union[str, Path, None] = None,
    obs: Optional[Observability] = None,
) -> ProjectIndex:
    """Index every python file under ``paths``, reusing cached facts.

    Per-file work is skipped when the cache holds an entry for the same
    path *and* content digest; hit/miss/parse counts land on the
    ``lint.index.*`` counters of ``obs`` (the linter's own telemetry —
    the warm-vs-cold test asserts on these, not wall-clock).
    """
    handle = obs if obs is not None else NULL_OBS
    files = handle.counter("lint.index.files")
    hits = handle.counter("lint.index.cache_hits")
    misses = handle.counter("lint.index.cache_misses")
    parses = handle.counter("lint.index.parses")

    cache = IndexCache(Path(cache_path) if cache_path is not None else None)
    modules: List[ModuleFacts] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        normalized = file_path.as_posix()
        digest = content_digest(source)
        files.inc()
        cached = cache.lookup(normalized, digest)
        if cached is not None:
            hits.inc()
            modules.append(cached)
            continue
        misses.inc()
        parses.inc()
        facts = extract_module_facts(source, normalized)
        cache.store(facts)
        modules.append(facts)
    cache.save()
    return ProjectIndex(modules)


__all__ = [
    "DEFAULT_CACHE_PATH",
    "INDEX_SCHEMA_VERSION",
    "RNG_CONSTRUCTORS",
    "ClassFacts",
    "FunctionFacts",
    "IndexCache",
    "ModuleFacts",
    "ObsReadSite",
    "ProjectIndex",
    "RngSite",
    "SpawnSite",
    "build_index",
    "extract_module_facts",
]
