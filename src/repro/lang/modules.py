"""Compilation units, linking and persistence of TL modules.

The lifecycle (paper Fig. 3):

1. :func:`compile_module` — parse/check, CPS-convert each function, run the
   *static, local* optimizer (per-function; imported bindings stay free —
   the abstraction barrier), generate TAM code, and attach PTML.
2. :func:`link_module` — instantiate closures, binding each function's free
   variables to sibling closures (backpatched for mutual recursion),
   imported module members and constants.  Linking yields a
   :class:`ModuleValue`, the runtime first-class module.
3. :func:`store_module` / :func:`load_module` — persist a compiled module
   into the object heap and recover it in a later session.  PTML is the only
   stored code: a stored function is its name, the OID of its PTML blob and
   its external bindings, and loading maps the PTML back to TML and runs the
   code generator again (section 4.1), so the TAM a later session runs is
   derived from the one persistent representation the hash covers.  A
   PGO-optimized function also stores its :class:`Variant`; the record also
   carries the module's interface, which importers are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro._lazy import attach
from repro.analysis.verify_tam import assert_verified
from repro.core.names import Name, NameSupply
from repro.core.syntax import Abs, Char, Oid, UNIT, Unit
from repro.core.wellformed import WellFormednessError, check as check_wf
from repro.lang.errors import TLCheckError, TLError
from repro.lang.stdlib import build_stdlib
from repro.lang.types import ExternalRef, FunSig, ModuleInterface, TFun, term_type, type_term
from repro.machine.codegen import CodegenError, compile_function
from repro.machine.isa import CodeObject, VMClosure
from repro.primitives.registry import PrimitiveRegistry, default_registry
from repro.rewrite.pipeline import OptimizerConfig, optimize
from repro.store.heap import HeapError, ObjectHeap
from repro.store.pager import PageError
from repro.store.ptml import PtmlError, decode_ptml, encode_ptml, ptml_key
from repro.store.serialize import Blob, SerializeError, encode_value, register_codec

if TYPE_CHECKING:
    from repro.lang import ast
    from repro.lang.check import CheckedModule

__all__ = [
    "CompileOptions",
    "CompiledFunction",
    "Variant",
    "CompiledModule",
    "ModuleValue",
    "compile_module",
    "compile_stdlib",
    "link_module",
    "link_stdlib",
    "store_module",
    "load_module",
]

# The TL front end is imported by the first compile: a process that only
# loads, links and runs stored modules — a restarted daemon — never parses.
# Its names stay attributes of this module rather than function-local
# imports, so a binding put here (a profiler wrapping ``parse_module``) is
# the one ``compile_module`` calls.
__getattr__, __dir__, _FRONT_END = attach(
    __name__,
    submodules=["ast"],
    submod_attrs={
        ".check": ["check_module"],
        ".cps": ["CpsConverter"],
        ".parser": ["parse_module"],
    },
)


@dataclass(frozen=True)
class CompileOptions:
    """Knobs of the compilation pipeline.

    ``optimizer``: the static (local) optimizer configuration, or None to
    skip static optimization entirely (the E1 baseline).
    ``library_ops``: route operators/builtins through the dynamically bound
    library (section 6); ``False`` open-codes primitives (ablation).
    Every generated code object passes the TAM bytecode verifier
    (:func:`repro.analysis.verify_tam.assert_verified`) before it is linked
    or persisted.
    """

    optimizer: OptimizerConfig | None = field(
        default_factory=OptimizerConfig.reduction_only
    )
    library_ops: bool = True
    registry: PrimitiveRegistry | None = None


@dataclass
class Variant:
    """A reflectively optimized version of one function (section 4.1):
    closed ``code`` generated from the optimized PTML (its ``ptml_ref``),
    the §4.1 ``attributes`` under the optimizer ``fingerprint``, and
    ``deps``, which a link checks (:meth:`repro.lang.TycoonSystem.current`)."""

    code: CodeObject
    fingerprint: str
    deps: tuple[tuple[str, str], ...]
    attributes: dict[str, int]


@dataclass
class CompiledFunction:
    """One compiled TL function: optimized TML + TAM code + metadata."""

    name: str
    term: Abs
    code: CodeObject
    externals: dict[Name, ExternalRef]
    variant: Variant | None = None


@dataclass
class CompiledModule:
    """A compiled, not-yet-linked module (the unit the store persists)."""

    name: str
    interface: ModuleInterface
    functions: dict[str, CompiledFunction]
    constants: dict[str, Any]
    exports: tuple[str, ...]


class ModuleValue:
    """A linked, runtime first-class module: name plus export bindings."""

    def __init__(self, name: str, exports: dict[str, Any]):
        self.name = name
        self.exports = exports

    def member(self, name: str) -> Any:
        try:
            return self.exports[name]
        except KeyError:
            raise TLError(f"module {self.name!r} has no member {name!r}") from None

    def __repr__(self) -> str:
        return f"<module {self.name}: {sorted(self.exports)}>"


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def _eta_expand(value, original: Abs, supply: NameSupply) -> Abs:
    """Rebuild ``proc(p1..pk ce cc)(value p1..pk ce cc)`` after root η."""
    from repro.core.syntax import App, Var, max_uid

    if not isinstance(original, Abs):
        raise TLCheckError("optimizer produced a non-abstraction for a function")
    supply = NameSupply(start=max(max_uid(original), max_uid(value)) + 1)
    params = tuple(supply.fresh_like(p) for p in original.params)
    return Abs(params, App(value, tuple(Var(p) for p in params)))


def _literal_value(expr: ast.Expr) -> Any:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return expr.value
    if isinstance(expr, ast.CharLit):
        return Char(expr.value)
    if isinstance(expr, ast.StrLit):
        return expr.value
    if isinstance(expr, ast.UnitLit):
        return UNIT
    raise TLCheckError(f"not a literal constant: {expr!r}")


def compile_module(
    source: str | ast.Module | CheckedModule,
    interfaces: Callable[[str], ModuleInterface | None] | None = None,
    options: CompileOptions | None = None,
) -> CompiledModule:
    """Compile TL source (or a parsed/checked module) to TAM code + PTML;
    ``interfaces`` maps an imported module's name to its interface."""
    for name in _FRONT_END:
        if name not in globals():
            __getattr__(name)
    options = options or CompileOptions()
    registry = options.registry or default_registry()

    if isinstance(source, str):
        checked = check_module(parse_module(source), interfaces)
    elif isinstance(source, ast.Module):
        checked = check_module(source, interfaces)
    else:
        checked = source

    converter = CpsConverter(checked, NameSupply(), library_ops=options.library_ops)
    functions: dict[str, CompiledFunction] = {}

    for decl in checked.module.functions():
        term = converter.convert_function(decl)
        check_wf(term, registry)
        if options.optimizer is not None:
            original = term
            term = optimize(term, registry, options.optimizer).term
            if not isinstance(term, Abs):
                # the optimizer η-reduced a pure forwarder (run(n) = f(n)) to
                # the target value itself; re-expand so it stays compilable
                term = _eta_expand(term, original, NameSupply(start=0))
            check_wf(term, registry)
        code = compile_function(term, registry, name=f"{checked.module.name}.{decl.name}")
        assert_verified(code, name=f"{checked.module.name}.{decl.name}")
        code.ptml_ref = encode_ptml(term)
        functions[decl.name] = CompiledFunction(
            name=decl.name,
            term=term,
            code=code,
            externals={
                name: ref
                for name, ref in converter.external_refs.items()
                if name in code.free_names
            },
        )

    constants = {
        name: _literal_value(expr) for name, expr in checked.constants.items()
    }
    return CompiledModule(
        name=checked.module.name,
        interface=checked.interface,
        functions=functions,
        constants=constants,
        exports=checked.module.exports,
    )


def compile_stdlib(
    options: CompileOptions | None = None,
    registry: PrimitiveRegistry | None = None,
) -> dict[str, CompiledModule]:
    """Compile the standard library definitions to code objects + PTML."""
    options = options or CompileOptions()
    registry = registry or options.registry or default_registry()
    compiled: dict[str, CompiledModule] = {}
    for name, definition in build_stdlib().items():
        functions: dict[str, CompiledFunction] = {}
        for std_fn in definition.functions:
            term = std_fn.term
            if options.optimizer is not None:
                term = optimize(term, registry, options.optimizer).term
                assert isinstance(term, Abs)
            code = compile_function(term, registry, name=f"{name}.{std_fn.name}")
            assert_verified(code, name=f"{name}.{std_fn.name}")
            code.ptml_ref = encode_ptml(term)
            functions[std_fn.name] = CompiledFunction(
                name=std_fn.name,
                term=term,
                code=code,
                externals={},
            )
        compiled[name] = CompiledModule(
            name=name,
            interface=definition.interface(),
            functions=functions,
            constants={},
            exports=tuple(functions),
        )
    return compiled


# ---------------------------------------------------------------------------
# linking
# ---------------------------------------------------------------------------


def link_module(
    compiled: CompiledModule,
    environment: dict[str, ModuleValue],
    variants=(),
) -> ModuleValue:
    """Instantiate a compiled module against its imported module values.

    Sibling references are backpatched after all closures exist, giving
    mutual recursion across functions of one module.  A function named in
    ``variants`` is instantiated from its (closed) :class:`Variant`.
    """
    closures: dict[str, VMClosure] = {}
    for name, fn in compiled.functions.items():
        code = fn.variant.code if name in variants else fn.code
        closures[name] = VMClosure(code, [None] * len(code.free_names))
    for name, fn in compiled.functions.items():
        closure = closures[name]
        for slot, free_name in enumerate(closure.code.free_names):
            ref = fn.externals.get(free_name)
            if ref is None:
                raise TLError(
                    f"{compiled.name}.{name}: free variable {free_name} has no "
                    "external binding"
                )
            if ref.kind == "sibling":
                target = closures.get(ref.member)
                if target is None:
                    raise TLError(
                        f"{compiled.name}.{name}: unknown sibling {ref.member!r}"
                    )
                closure.free[slot] = target
            else:  # import
                module_value = environment.get(ref.module)
                if module_value is None:
                    raise TLError(
                        f"{compiled.name}.{name}: import {ref.module!r} not linked"
                    )
                closure.free[slot] = module_value.member(ref.member)

    exports: dict[str, Any] = {}
    for export in compiled.exports:
        if export in closures:
            exports[export] = closures[export]
        elif export in compiled.constants:
            exports[export] = compiled.constants[export]
        # exported types have no runtime representation
    return ModuleValue(compiled.name, exports)


def link_stdlib(
    options: CompileOptions | None = None,
    heap: ObjectHeap | None = None,
) -> dict[str, ModuleValue]:
    """Compile and link the whole standard library.

    With a heap, every library function's PTML blob is stored and the code's
    ``ptml_ref`` becomes an OID — the persistent system state of section 4.1.
    A module whose stored copy has the same PTML is not stored again, so
    booting over an image adds nothing to it.
    """
    compiled = compile_stdlib(options)
    if heap is not None:
        for module in compiled.values():
            if not _adopt_stored_ptml(heap, module):
                store_module(heap, module)
    return {name: link_module(module, {}) for name, module in compiled.items()}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

#: what a module record holds in place; any other value is a store object
LITERALS = (bool, int, str, Char, Unit)


def _encode_module(module: "StoredModule", enc) -> None:
    enc.value(module.name)
    enc.value(tuple(module.exports))
    enc.value(dict(module.constants))
    enc.uvarint(len(module.functions))
    for fn_name, ptml_ref, externals in module.functions:
        enc.value(fn_name)
        enc.value(ptml_ref)
        enc.uvarint(len(externals))
        for name, ref in externals.items():
            enc.value(name)
            enc.value(ref.kind)
            enc.value(ref.module)
            enc.value(ref.member)
    enc.uvarint(len(module.variants))
    for fn_name, (ptml_ref, fingerprint, deps, attributes) in module.variants.items():
        for part in (fn_name, ptml_ref, fingerprint, tuple(deps), dict(attributes)):
            enc.value(part)
    interface = module.interface or ModuleInterface(module.name)
    enc.value((
        {name: type_term(ty) for name, ty in interface.types.items()},
        {name: type_term(TFun(sig.params, sig.result)) for name, sig in interface.functions.items()},
        {name: type_term(ty) for name, ty in interface.values.items()},
    ))


def _decode_module(dec) -> "StoredModule":
    name = dec.value()
    exports = dec.value()
    constants = dec.value()
    functions = []
    for _ in range(dec.uvarint()):
        fn_name = dec.value()
        # an image written before PTML was the only stored code holds a
        # code object here; the decoder reads it down to its PTML reference
        ptml_ref = dec.reference()
        externals = {}
        for _ in range(dec.uvarint()):
            free_name = dec.value()
            kind = dec.value()
            module = dec.value()
            member = dec.value()
            externals[free_name] = ExternalRef(kind, module, member)
        functions.append((fn_name, ptml_ref, externals))
    # a module record is a heap object of its own: an old one ends early
    variants = {
        dec.value(): (dec.reference(), dec.value(), dec.value(), dec.value())
        for _ in range(dec.uvarint() if dec.pos < len(dec.data) else 0)
    }
    interface = ModuleInterface(name)
    if dec.pos < len(dec.data):
        types, signatures, values = dec.value()
        interface.types = {n: term_type(t) for n, t in types.items()}
        for n, t in signatures.items():
            fun = term_type(t)
            interface.functions[n] = FunSig(n, fun.params, fun.result)
        interface.values = {n: term_type(t) for n, t in values.items()}
    return StoredModule(name, exports, constants, functions, variants, interface)


@dataclass
class StoredModule:
    """The persisted form of a compiled module: per function its name, the
    OID of its PTML blob and its external bindings; per :class:`Variant`
    the OID of its PTML, its fingerprint, dependencies and attributes; the
    interface; constants as literals or OIDs of store objects."""

    name: str
    exports: tuple[str, ...]
    constants: dict[str, Any]
    functions: list[tuple[str, Any, dict[Name, ExternalRef]]]
    variants: dict[str, tuple] = field(default_factory=dict)
    interface: ModuleInterface | None = None


register_codec("tl-module", StoredModule, _encode_module, _decode_module)


def store_module(heap: ObjectHeap, compiled: CompiledModule) -> Any:
    """Persist a compiled module; PTML blobs and constants other than
    literals become separate store objects (one the store cannot serialize
    is refused here).

    Returns the module's OID and registers it under root ``module:<name>``.
    """
    functions = compiled.functions.values()
    for code in [fn.code for fn in functions] + [fn.variant.code for fn in functions if fn.variant]:
        if isinstance(code.ptml_ref, Blob):
            code.ptml_ref = heap.store(code.ptml_ref)
    constants = dict(compiled.constants)
    for member, value in constants.items():
        if isinstance(value, LITERALS):
            continue
        if heap.oid_of(value) is None:
            try:
                encode_value(value)
            except SerializeError as exc:
                raise TLError(f"{compiled.name}.{member} cannot be stored: {exc}") from None
        constants[member] = heap.oid_of(value) or heap.store(value)
    stored = StoredModule(
        name=compiled.name,
        exports=tuple(compiled.exports),
        constants=constants,
        functions=[
            (fn.name, fn.code.ptml_ref, dict(fn.externals)) for fn in functions
        ],
        variants={
            fn.name: (v.code.ptml_ref, v.fingerprint, v.deps, v.attributes)
            for fn in functions
            if (v := fn.variant) is not None
        },
        interface=compiled.interface,
    )
    oid = heap.store(stored)
    heap.set_root(f"module:{compiled.name}", oid)
    return oid


def _adopt_stored_ptml(heap: ObjectHeap, compiled: CompiledModule) -> bool:
    """Point ``compiled``'s code at the PTML objects of its stored copy.

    True when ``heap`` holds the module under its root with the same
    exports and functions, and PTML equal by hash; otherwise (no copy, a
    different one, or one that cannot be read) nothing changes and the
    caller stores the module.
    """
    oid = heap.root(f"module:{compiled.name}")
    if oid is None:
        return False
    try:
        stored = heap.load(oid)
    except (HeapError, PageError, SerializeError):
        return False
    if not isinstance(stored, StoredModule) or (
        tuple(stored.exports) != tuple(compiled.exports)
        or [name for name, _, _ in stored.functions] != list(compiled.functions)
    ):
        return False
    refs = [ref for _, ref, _ in stored.functions]
    fresh = [fn.code for fn in compiled.functions.values()]
    if [ptml_key(code) for code in fresh] != [ptml_key(ref, heap) for ref in refs]:
        return False
    for code, ref in zip(fresh, refs):
        code.ptml_ref = ref
    return True


def _regenerate(
    heap: ObjectHeap, ref: Any, registry: PrimitiveRegistry, qualified: str
) -> tuple[Abs, CodeObject]:
    """The term and verified code of the PTML blob ``ref`` names."""
    blob = heap.load(ref) if isinstance(ref, Oid) else None
    if not isinstance(blob, Blob):
        raise TLError(f"{qualified}: the stored function has no PTML")
    try:
        term = decode_ptml(blob).term
        if not isinstance(term, Abs):
            raise PtmlError("the term is not an abstraction")
        check_wf(term, registry)
        code = compile_function(term, registry, name=qualified)
    except (SerializeError, WellFormednessError, CodegenError) as exc:
        raise TLError(f"{qualified}: stored PTML refused: {exc}") from exc
    assert_verified(code, name=qualified)
    code.ptml_ref = ref
    return term, code


def load_module(
    heap: ObjectHeap, name: str, registry: PrimitiveRegistry | None = None
) -> CompiledModule:
    """Recover a compiled module and its interface from the store.

    Each function's PTML, and a variant's, is mapped back to TML, checked
    for well-formedness and compiled again with ``registry`` — which must
    be the registry the module was compiled with; the generated code passes
    the same verifier gate as a compile's.  Stored PTML is input from
    outside the program (an older writer, a corrupted heap): a blob that
    does not decode or is not well-formed raises :class:`TLError` naming
    the function.
    """
    registry = registry or default_registry()
    stored = heap.load_root(f"module:{name}")
    if not isinstance(stored, StoredModule):
        raise TLError(f"root module:{name} is not a stored module")
    functions: dict[str, CompiledFunction] = {}
    for fn_name, ref, externals in stored.functions:
        qualified = f"{name}.{fn_name}"
        term, code = _regenerate(heap, ref, registry, qualified)
        variant = None
        if fn_name in stored.variants:
            variant_ref, fingerprint, deps, attributes = stored.variants[fn_name]
            variant_code = _regenerate(heap, variant_ref, registry, f"{qualified}'")[1]
            variant = Variant(variant_code, fingerprint, tuple(deps), dict(attributes))
        functions[fn_name] = CompiledFunction(
            name=fn_name,
            term=term,
            code=code,
            externals=externals,
            variant=variant,
        )
    return CompiledModule(
        name=stored.name,
        interface=stored.interface or ModuleInterface(stored.name),
        functions=functions,
        constants={
            member: heap.load(value) if isinstance(value, Oid) else value
            for member, value in stored.constants.items()
        },
        exports=tuple(stored.exports),
    )
