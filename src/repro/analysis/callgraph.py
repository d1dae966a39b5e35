"""The image-wide call graph over the code of every stored module.

Section 6 of the paper notes that dynamically-bound library code defeats
compile-time interprocedural analysis; the open-database answer is that the
bindings are *in the image*: every stored module records, per function, an
:class:`~repro.lang.cps.ExternalRef` for each captured free variable —
``sibling`` (same module) or ``import`` (another stored module's export).
Those references are frozen at store time, so the whole-image call graph is
static and exact, and interprocedural summaries
(:func:`repro.analysis.absint.summarize_graph`) can flow along it.

The graph is built from what :func:`~repro.lang.modules.load_module`
regenerates from each module's PTML — the code a daemon booting over the
image would run.  Nodes are qualified ``module.function`` names.  Exported
constants — data modules' store objects included — become typed value
bindings; imports of modules absent from the image, or of records that do
not load, are recorded as *unresolved* and analyzed as ⊤.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.absint import AbsVal, Kind, closure_kind, kind_of_value
from repro.core.names import Name
from repro.core.syntax import Abs
from repro.machine.isa import CodeObject
from repro.store.ptml import ptml_key

__all__ = ["FunctionNode", "ImageGraph", "MODULE_ROOT_PREFIX"]

MODULE_ROOT_PREFIX = "module:"


@dataclass
class FunctionNode:
    """One stored function: its TML, its code and its frozen external
    bindings."""

    qualified: str
    module: str
    function: str
    term: Abs
    code: CodeObject
    #: free Name -> ExternalRef (kind "sibling" | "import")
    externals: dict
    exported: bool = False
    #: sha256 of the function's PTML blob (None when none attached)
    ptml_hash: str | None = None


@dataclass
class ImageGraph:
    """Call graph of every function stored in one image."""

    nodes: dict[str, FunctionNode] = field(default_factory=dict)
    #: qualified constant name -> (value kind, value)
    constants: dict[str, Kind] = field(default_factory=dict)
    #: caller qualified -> set of callee qualified
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: (caller qualified, free name string) pairs whose target module is not
    #: in the image at all (absent, or a record that does not load) — analyzed ⊤
    unresolved: set = field(default_factory=set)
    #: (caller qualified, free name string, target qualified) refs into a
    #: stored module that has no such member: linking this function FAILS
    broken: set = field(default_factory=set)
    #: module -> tuple of exported member names (may include type names,
    #: which have no runtime artifact)
    exports: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: module -> why ``load_module`` refused it (its functions are absent)
    unloadable: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------ builders

    @staticmethod
    def from_heap(heap, registry=None) -> "ImageGraph":
        """Build the graph from every ``module:*`` root in an image, each
        module loaded with ``registry`` (the one its code was compiled with)."""
        from repro.lang.modules import load_module

        modules: dict[str, object] = {}
        unloadable: dict[str, str] = {}
        for root_name in heap.root_names():
            if not root_name.startswith(MODULE_ROOT_PREFIX):
                continue
            name = root_name[len(MODULE_ROOT_PREFIX):]
            try:
                modules[name] = load_module(heap, name, registry)
            except Exception as exc:  # whatever the cause, the module cannot run
                unloadable[name] = str(exc)
        graph = ImageGraph.from_modules(modules, heap=heap)
        graph.unloadable = unloadable
        return graph

    @staticmethod
    def from_system(system) -> "ImageGraph":
        """Build the graph from a live :class:`TycoonSystem`'s image."""
        return ImageGraph.from_heap(system.heap, system.registry)

    @staticmethod
    def from_modules(modules: dict, heap=None) -> "ImageGraph":
        """Build from :class:`~repro.lang.modules.CompiledModule` objects,
        compiled or loaded."""
        graph = ImageGraph()
        for module_name, module in modules.items():
            exports = tuple(module.exports)
            graph.exports[module_name] = exports
            exported = set(exports)
            for fn_name, fn in module.functions.items():
                qualified = f"{module_name}.{fn_name}"
                graph.nodes[qualified] = FunctionNode(
                    qualified=qualified,
                    module=module_name,
                    function=fn_name,
                    term=fn.term,
                    code=fn.code,
                    externals=dict(fn.externals),
                    exported=fn_name in exported,
                    ptml_hash=ptml_key(fn.code, heap),
                )
            for const_name, value in module.constants.items():
                graph.constants[f"{module_name}.{const_name}"] = kind_of_value(value)
        graph._resolve_edges()
        return graph

    def _resolve_edges(self) -> None:
        stored_modules = {node.module for node in self.nodes.values()}
        stored_modules.update(q.rsplit(".", 1)[0] for q in self.constants)
        stored_modules.update(self.exports)
        for qualified, node in self.nodes.items():
            targets: set[str] = set()
            for free_name, ref in node.externals.items():
                resolved = self._resolve_ref(node.module, ref)
                if resolved is None:
                    self.unresolved.add((qualified, str(free_name)))
                elif resolved in self.nodes:
                    targets.add(resolved)
                elif resolved in self.constants:
                    pass
                else:
                    target_module = resolved.rsplit(".", 1)[0]
                    if ref.kind == "sibling" or target_module in stored_modules:
                        self.broken.add((qualified, str(free_name), resolved))
                    else:
                        self.unresolved.add((qualified, str(free_name)))
            self.edges[qualified] = targets

    def _resolve_ref(self, module: str, ref) -> str | None:
        if ref is None:
            return None
        if ref.kind == "sibling":
            return f"{module}.{ref.member}"
        return f"{ref.module}.{ref.member}"

    # ------------------------------------------------------------- queries

    def bindings_for(self, qualified: str) -> dict[Name, AbsVal]:
        """Abstract values for one node's free names, call-graph resolved."""
        node = self.nodes[qualified]
        bindings: dict[Name, AbsVal] = {}
        for free_name, ref in node.externals.items():
            resolved = self._resolve_ref(node.module, ref)
            if resolved is not None:
                target = self.nodes.get(resolved)
                if target is not None:
                    bindings[free_name] = AbsVal(
                        closure_kind(len(target.code.params)), callee=resolved
                    )
                    continue
                const_kind = self.constants.get(resolved)
                if const_kind is not None:
                    bindings[free_name] = AbsVal(const_kind)
                    continue
            # unresolved import: worst case
        return bindings

    def reachable_from_exports(self) -> set[str]:
        """Qualified names reachable from any module's export surface."""
        seen: set[str] = set()
        stack = [q for q, node in self.nodes.items() if node.exported]
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            stack.extend(self.edges.get(q, ()))
        return seen

    def current_hashes(self) -> dict[str, str]:
        """qualified -> PTML hash, for nodes that have one."""
        return {
            q: node.ptml_hash
            for q, node in self.nodes.items()
            if node.ptml_hash is not None
        }

    def __len__(self) -> int:
        return len(self.nodes)

