"""The running Tycoon-style system image: compiler + store + VM in one place.

The paper's architecture (Fig. 3) keeps the compiler, optimizer and
evaluator inside one persistent programming environment, so code can be
compiled, persisted, re-optimized and executed without leaving the system.
:class:`TycoonSystem` is that environment:

>>> system = TycoonSystem()
>>> _ = system.compile('''
... module demo export double
... let double(x: Int): Int = x + x
... end
... ''')
>>> system.call("demo", "double", [21]).value
42
"""

from __future__ import annotations

from typing import Any

from repro.lang.errors import TLCheckError, TLError
from repro.lang.foreign import default_foreign
from repro.lang.modules import (
    LITERALS,
    CompileOptions,
    CompiledModule,
    ModuleValue,
    compile_module,
    link_module,
    link_stdlib,
    load_module,
    store_module,
)
from repro.lang.stdlib import STDLIB_MODULE_NAMES
from repro.lang.types import ModuleInterface, UNKNOWN as _UNKNOWN_TYPE
from repro.machine.isa import CodeObject, VMClosure
from repro.machine.vm import VM, VMResult
from repro.primitives.registry import PrimitiveRegistry
from repro.store.heap import ObjectHeap
from repro.store.ptml import ptml_key

__all__ = ["TycoonSystem"]


class TycoonSystem:
    """One system image: compiled modules, linked values, store, VM factory."""

    def __init__(
        self,
        heap: ObjectHeap | None = None,
        options: CompileOptions | None = None,
        registry: PrimitiveRegistry | None = None,
        persist_stdlib: bool = True,
    ):
        self.options = options or CompileOptions()
        if registry is None:
            registry = self.options.registry
        if registry is None:
            # the full system registry: Fig. 2 primitives plus the relational
            # algebra extensions (embedded queries are part of TL)
            from repro.query.algebra import query_registry

            registry = query_registry()
        self.registry = registry
        if self.options.registry is not self.registry:
            from dataclasses import replace

            self.options = replace(self.options, registry=self.registry)
        self.heap = heap if heap is not None else ObjectHeap()
        self.foreign = default_foreign()
        self.compiled: dict[str, CompiledModule] = {}
        # persist_stdlib=False links the stdlib purely in memory — replica
        # daemons must not write locally (their heap state mirrors the
        # primary's, object for object), so they skip the boot-time store
        self.linked: dict[str, ModuleValue] = link_stdlib(
            self.options,
            heap=self.heap if heap is not None and persist_stdlib else None,
        )

    # ----------------------------------------------------------- data modules

    def register_data_module(self, name: str, values: dict[str, Any]) -> ModuleValue:
        """Bind ``module:name`` in the image to a record of store objects
        (relations, arrays) and literals, and link it.

        TL code may then ``import name`` and reference ``name.member``.  The
        record names each object by its OID, so a later session links the
        same objects and the reflective optimizer sees OID literals —
        enabling runtime query optimization against actual indexes (§4.2).
        """
        interface = ModuleInterface(name, values=dict.fromkeys(values, _UNKNOWN_TYPE))
        store_module(self.heap, CompiledModule(name, interface, {}, dict(values), tuple(values)))
        self.forget(name)
        return self.link(name)

    # ------------------------------------------------------------- compile

    def compile(self, source) -> CompiledModule:
        """Compile a TL module (source text or parsed AST); each import is
        checked against the interface of that module here or in the image."""
        module = compile_module(source, self._interface, self.options)
        self.forget(module.name)
        self.compiled[module.name] = module
        return module

    def _interface(self, name: str) -> ModuleInterface | None:
        if name not in self.compiled and self.heap.root(f"module:{name}") is None:
            return None
        module = self._compiled(name)
        if module.exports and module.interface == ModuleInterface(name):
            raise TLCheckError(f"module {name!r} is stored without its interface: compile it again")
        return module.interface

    def forget(self, name: str) -> None:
        """Drop what this process holds of module ``name``: its compiled
        code and the links of it and of its importers.

        ``compiled`` is a cache of the image, so the next call that reaches
        the module loads its newest committed definition — what a restart
        would run.  A replica calls this for every module a replicated
        commit rebinds; the standard library is always linked and is kept.
        """
        if name in STDLIB_MODULE_NAMES:
            return
        self._unlink(name)
        self.compiled.pop(name, None)

    def _unlink(self, name: str) -> None:
        """Drop the link of ``name`` and of every module importing it,
        transitively: a link freezes the values of its imports, so each
        of those would keep calling the replaced code."""
        stale = [name]
        while stale:
            current = stale.pop()
            self.linked.pop(current, None)
            stale.extend(
                importer
                for importer, module in self.compiled.items()
                if importer in self.linked and any(
                    ref.kind == "import" and ref.module == current
                    for fn in module.functions.values()
                    for ref in fn.externals.values()
                )
            )

    def persist(self, name: str) -> Any:
        """Store a compiled module (and its PTML blobs) in the heap."""
        return store_module(self.heap, self._compiled(name))

    def load(self, name: str) -> CompiledModule:
        """Load a persisted module from the heap, regenerating its code from
        its PTML with this system's registry
        (:func:`repro.lang.modules.load_module`)."""
        module = load_module(self.heap, name, self.registry)
        self.compiled[name] = module
        return module

    # --------------------------------------------------------------- link

    def link(self, name: str) -> ModuleValue:
        """Link a module and its imports; a variant links while :meth:`current`."""
        linked = self.linked.get(name)
        if linked is not None:
            return linked
        compiled = self._compiled(name)
        environment: dict[str, ModuleValue] = {}
        for fn in compiled.functions.values():
            for ref in fn.externals.values():
                if ref.kind == "import" and ref.module not in environment:
                    environment[ref.module] = self.link(ref.module)
        variants = [
            fn_name for fn_name, fn in compiled.functions.items()
            if fn.variant is not None and self.current(fn.variant.deps)
        ]
        linked = link_module(compiled, environment, variants)
        self.linked[name] = linked
        return linked

    def current(self, deps) -> bool:
        """True while each ``(qualified name, key)`` of ``deps`` is the
        :meth:`dependency_key` of what that name compiles to now."""
        try:
            return all(self.dependency_key(self._static(name)) == key for name, key in deps)
        except (TLError, KeyError):
            return False

    def _static(self, qualified: str) -> Any:
        """Static code or constant of a module (loaded on a miss), else a
        library member."""
        module, _, member = qualified.partition(".")
        if module in STDLIB_MODULE_NAMES:
            return self.linked[module].member(member)
        compiled = self._compiled(module)
        fn = compiled.functions.get(member)
        return compiled.constants[member] if fn is None else fn.code

    def dependency_key(self, value) -> str | None:
        """A function's PTML hash, a literal's type and text, a stored
        object's OID: how a variant names what it merged or baked in.  A
        stored object with indexes (a relation) adds their sorted names,
        ``oid:N[member]``: the query rules chose a plan by them."""
        if isinstance(value, VMClosure):
            value = value.code
        if isinstance(value, CodeObject):
            return ptml_key(value, self.heap)
        if isinstance(value, LITERALS):
            return f"{type(value).__name__}:{value!r}"
        oid = self.heap.oid_of(value)
        if oid is None:
            return None
        key, indexes = f"oid:{int(oid)}", getattr(value, "indexes", None)
        return key if indexes is None else f"{key}[{','.join(sorted(indexes))}]"

    def _compiled(self, name: str) -> CompiledModule:
        module = self.compiled.get(name)
        if module is None:
            if name in STDLIB_MODULE_NAMES:
                raise TLError(f"{name!r} is a library module; it is always linked")
            if self.heap.root(f"module:{name}") is None:
                raise TLError(f"module {name!r} has not been compiled")
            module = self.load(name)
        return module

    # ---------------------------------------------------------------- run

    def vm(self, step_limit: int | None = None) -> VM:
        return VM(store=self.heap, foreign=self.foreign, step_limit=step_limit)

    def closure(self, module: str, function: str) -> VMClosure:
        linked = self.link(module)
        value = linked.member(function)
        if not isinstance(value, VMClosure):
            raise TLError(f"{module}.{function} is not a function")
        return value

    def call(
        self,
        module: str,
        function: str,
        args: list[Any] | None = None,
        step_limit: int | None = None,
    ) -> VMResult:
        """Link (if needed) and call an exported function on a fresh VM."""
        closure = self.closure(module, function)
        return self.vm(step_limit).call(closure, list(args or []))

    def commit(self) -> None:
        self.heap.commit()
