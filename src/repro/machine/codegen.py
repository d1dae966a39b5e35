"""TML → TAM code generation.

Compiles a TML procedure abstraction into a :class:`CodeObject` tree.  The
compilation strategy follows classic CPS back ends (ORBIT, Appel):

* abstractions entered directly — continuation arguments of primitives,
  branch continuations, directly applied λs — are *inlined* into the parent
  instruction stream (a continuation is just a join point / basic block);
* abstractions used as values — user procedures, continuations passed to
  user calls, Y-group members — are *materialized* as nested code objects
  with flat closures (explicit capture plans);
* the Y combinator compiles to a ``fix`` instruction that creates the whole
  recursive closure group and backpatches the capture cells.

Every primitive supplies its code generation function (paper section 2.3,
item 1): the built-in Fig. 2 set lives in the ``_EMITTERS`` table here;
extension primitives (e.g. the relational algebra of the query subsystem)
attach emitters through :meth:`PrimitiveRegistry.set_emitter`.
"""

from __future__ import annotations

from typing import Any

from repro.core.names import Name
from repro.core.occurrences import count as count_occurrences
from repro.core.syntax import Abs, App, Application, Lit, PrimApp, UNIT, Var
from repro.machine.isa import CodeObject, Label
from repro.primitives.registry import PrimitiveRegistry, default_registry

__all__ = ["CodegenError", "compile_function"]


class CodegenError(Exception):
    """The code generator met a construct the front end should not emit."""


def compile_function(
    abs_node: Abs,
    registry: PrimitiveRegistry | None = None,
    name: str = "fn",
) -> CodeObject:
    """Compile a TML abstraction into an executable code object.

    ``abs_node``'s free variables become the closure's capture list; the
    caller (the linker or the VM embedding) supplies their values when the
    closure is instantiated — see :func:`repro.machine.vm.instantiate`.
    """
    registry = registry or default_registry()
    compiler = _FnCompiler(abs_node, parent=None, name=name, registry=registry)
    return compiler.compile()


class _FnCompiler:
    """Compiles one materialized abstraction; children recurse."""

    def __init__(
        self,
        abs_node: Abs,
        parent: "_FnCompiler | None",
        name: str,
        registry: PrimitiveRegistry,
    ):
        self.abs_node = abs_node
        self.parent = parent
        self.registry = registry
        self.code = CodeObject(
            # nested code is named under its function (``app.g/loop_7``),
            # so a profile credits the function with its family
            name=name if parent is None else f"{parent.code.name.partition('/')[0]}/{name}",
            params=abs_node.params,
            is_proc=abs_node.is_proc_abs,
        )
        self.reg_of: dict[Name, int] = {
            param: index for index, param in enumerate(abs_node.params)
        }
        self.nreg = len(abs_node.params)
        self.free_slot: dict[Name, int] = {}
        self._const_index: dict[tuple, int] = {}
        #: deferred basic blocks: (label, continuation value, result regs)
        self._blocks: list[tuple[Label, Any, list[int]]] = []

    # ------------------------------------------------------------ plumbing

    def fresh_reg(self) -> int:
        reg = self.nreg
        self.nreg += 1
        return reg

    def emit(self, *instr) -> None:
        self.code.instrs.append(tuple(instr))

    def const_index(self, payload) -> int:
        key = (type(payload).__name__, payload)
        index = self._const_index.get(key)
        if index is None:
            index = len(self.code.consts)
            self.code.consts.append(payload)
            self._const_index[key] = index
        return index

    # ------------------------------------------------------- value sources

    def value_reg(self, value) -> int:
        """Materialize a TML value into a register."""
        if isinstance(value, Var):
            return self._var_reg(value.name)
        if isinstance(value, Lit):
            dst = self.fresh_reg()
            self.emit("const", dst, self.const_index(value.value))
            return dst
        if isinstance(value, Abs):
            return self._materialize(value)
        raise CodegenError(f"not a value: {value!r}")

    def _var_reg(self, name: Name) -> int:
        reg = self.reg_of.get(name)
        if reg is not None:
            return reg
        slot = self._free_slot_of(name)
        dst = self.fresh_reg()
        # A fresh load per use: the load must sit in the basic block that
        # uses it — caching the register would leave it unloaded on paths
        # that jump around the original load.
        self.emit("free", dst, slot)
        return dst

    def _free_slot_of(self, name: Name) -> int:
        slot = self.free_slot.get(name)
        if slot is None:
            if self.parent is None and not self._known_free(name):
                raise CodegenError(f"unbound variable {name} reaches code generation")
            slot = len(self.free_slot)
            self.free_slot[name] = slot
        return slot

    def _known_free(self, name: Name) -> bool:
        # the root compiler accepts free names: they become the function's
        # capture list, to be supplied at instantiation time
        return True

    def capture_source(self, name: Name) -> tuple[str, int]:
        """How the *parent* obtains ``name`` when creating a child closure."""
        reg = self.reg_of.get(name)
        if reg is not None:
            return ("r", reg)
        return ("f", self._free_slot_of(name))

    def _materialize(self, abs_node: Abs, name_hint: str = "anon") -> int:
        child = _FnCompiler(abs_node, self, name_hint, self.registry)
        child.compile()
        code_index = len(self.code.codes)
        self.code.codes.append(child.code)
        plan = tuple(self.capture_source(n) for n in child.code.free_names)
        dst = self.fresh_reg()
        self.emit("closure", dst, code_index, plan)
        return dst

    # --------------------------------------------------------- compilation

    def compile(self) -> CodeObject:
        self.compile_app(self.abs_node.body)
        while self._blocks:
            label, cont_value, result_regs = self._blocks.pop()
            label.pc = len(self.code.instrs)
            self.continue_with(cont_value, result_regs)
        self._finalize_labels()
        self.code.nregs = self.nreg
        self.code.free_names = tuple(
            sorted(self.free_slot, key=lambda n: self.free_slot[n])
        )
        return self.code

    def _finalize_labels(self) -> None:
        def resolve(operand):
            if isinstance(operand, Label):
                if operand.pc is None:
                    raise CodegenError("unresolved label")
                return operand.pc
            if isinstance(operand, tuple):
                return tuple(resolve(o) for o in operand)
            return operand

        self.code.instrs = [
            tuple(resolve(o) for o in instr) for instr in self.code.instrs
        ]

    def compile_app(self, app: Application) -> None:
        if isinstance(app, App):
            if isinstance(app.fn, Abs):
                # direct application: bind arguments, continue inline
                if len(app.fn.params) != len(app.args):
                    raise CodegenError("direct application arity mismatch")
                regs = [self.value_reg(arg) for arg in app.args]
                for param, reg in zip(app.fn.params, regs):
                    self.reg_of[param] = reg
                self.compile_app(app.fn.body)
                return
            fn_reg = self.value_reg(app.fn)
            arg_regs = tuple(self.value_reg(arg) for arg in app.args)
            self.emit("tailcall", fn_reg, arg_regs)
            return

        assert isinstance(app, PrimApp)
        emitter = _EMITTERS.get(app.prim)
        if emitter is not None:
            emitter(self, app)
            return
        prim = self.registry.get(app.prim)
        if prim is not None and prim.emit is not None:
            prim.emit(self, app)
            return
        raise CodegenError(f"no code generation for primitive {app.prim!r}")

    # -------------------------------------------------- continuation wiring

    def continue_with(self, cont_value, result_regs: list[int]) -> None:
        """Deliver results to a continuation value; inline when literal."""
        if isinstance(cont_value, Abs):
            if len(cont_value.params) != len(result_regs):
                raise CodegenError("continuation arity mismatch")
            for param, reg in zip(cont_value.params, result_regs):
                self.reg_of[param] = reg
            self.compile_app(cont_value.body)
            return
        if isinstance(cont_value, Var):
            fn_reg = self._var_reg(cont_value.name)
            self.emit("tailcall", fn_reg, tuple(result_regs))
            return
        raise CodegenError("literal in continuation position")

    def block(self, cont_value, result_regs: list[int]) -> Label:
        """A jump target that delivers ``result_regs`` to ``cont_value``."""
        label = Label()
        self._blocks.append((label, cont_value, result_regs))
        return label

    def unit_reg(self) -> int:
        dst = self.fresh_reg()
        self.emit("const", dst, self.const_index(UNIT))
        return dst


# ---------------------------------------------------------------------------
# Built-in emitters (paper section 2.3 item 1, for the Fig. 2 primitives)
# ---------------------------------------------------------------------------


def _emit_arith(op: str):
    def emitter(c: _FnCompiler, app: PrimApp) -> None:
        a, b, ce, cc = app.args
        ra, rb = c.value_reg(a), c.value_reg(b)
        dst, err = c.fresh_reg(), c.fresh_reg()
        exc = c.block(ce, [err])
        c.emit(op, dst, ra, rb, exc, err)
        c.continue_with(cc, [dst])

    return emitter


def _emit_compare(op: str):
    def emitter(c: _FnCompiler, app: PrimApp) -> None:
        a, b, c_then, c_else = app.args
        ra, rb = c.value_reg(a), c.value_reg(b)
        else_pc = c.block(c_else, [])
        c.emit(op, ra, rb, else_pc)
        c.continue_with(c_then, [])

    return emitter


def _emit_bits(op: str):
    def emitter(c: _FnCompiler, app: PrimApp) -> None:
        a, b, cont = app.args
        ra, rb = c.value_reg(a), c.value_reg(b)
        dst = c.fresh_reg()
        c.emit(op, dst, ra, rb)
        c.continue_with(cont, [dst])

    return emitter


def _emit_unary(op: str):
    def emitter(c: _FnCompiler, app: PrimApp) -> None:
        a, cont = app.args
        ra = c.value_reg(a)
        dst = c.fresh_reg()
        c.emit(op, dst, ra)
        c.continue_with(cont, [dst])

    return emitter


def _emit_alloc(op: str):
    def emitter(c: _FnCompiler, app: PrimApp) -> None:
        *values, cont = app.args
        regs = tuple(c.value_reg(v) for v in values)
        dst = c.fresh_reg()
        c.emit(op, dst, regs)
        c.continue_with(cont, [dst])

    return emitter


def _emit_sized_alloc(op: str):
    def emitter(c: _FnCompiler, app: PrimApp) -> None:
        n, init, cont = app.args
        rn, ri = c.value_reg(n), c.value_reg(init)
        dst = c.fresh_reg()
        c.emit(op, dst, rn, ri)
        c.continue_with(cont, [dst])

    return emitter


def _emit_load(op: str):
    def emitter(c: _FnCompiler, app: PrimApp) -> None:
        target, index, cont = app.args
        rt, ri = c.value_reg(target), c.value_reg(index)
        dst = c.fresh_reg()
        c.emit(op, dst, rt, ri)
        c.continue_with(cont, [dst])

    return emitter


def _emit_store(op: str):
    def emitter(c: _FnCompiler, app: PrimApp) -> None:
        target, index, value, cont = app.args
        rt, ri, rv = c.value_reg(target), c.value_reg(index), c.value_reg(value)
        c.emit(op, rt, ri, rv)
        c.continue_with(cont, [c.unit_reg()])

    return emitter


def _emit_size(c: _FnCompiler, app: PrimApp) -> None:
    target, cont = app.args
    rt = c.value_reg(target)
    dst = c.fresh_reg()
    c.emit("asize", dst, rt)
    c.continue_with(cont, [dst])


def _emit_move(op: str):
    def emitter(c: _FnCompiler, app: PrimApp) -> None:
        dst_v, di, src_v, si, n, cont = app.args
        regs = [c.value_reg(v) for v in (dst_v, di, src_v, si, n)]
        c.emit(op, *regs)
        c.continue_with(cont, [c.unit_reg()])

    return emitter


def _emit_case(c: _FnCompiler, app: PrimApp) -> None:
    from repro.primitives.control import case_parts

    scrutinee, tags, branches, else_branch = case_parts(app)
    rs = c.value_reg(scrutinee)
    tag_regs = tuple(c.value_reg(tag) for tag in tags)
    branch_pcs = tuple(c.block(branch, []) for branch in branches)
    else_pc = c.block(else_branch, []) if else_branch is not None else None
    c.emit("case", rs, tag_regs, branch_pcs, else_pc)


def _emit_y(c: _FnCompiler, app: PrimApp) -> None:
    """Compile ``(Y λ(c0 v1..vn c) (c entry abs1..absn))`` to a fix group."""
    fixfun = app.args[0]
    if not isinstance(fixfun, Abs) or len(fixfun.params) < 2:
        raise CodegenError("Y expects a fixpoint abstraction λ(c0 v1..vn c)")
    c0, *vs, cname = fixfun.params
    body = fixfun.body
    if not (
        isinstance(body, App)
        and isinstance(body.fn, Var)
        and body.fn.name == cname
        and len(body.args) == len(vs) + 1
    ):
        raise CodegenError("Y fixpoint body must be (c entry abs1..absn)")
    entry, *abses = body.args
    if not all(isinstance(a, Abs) for a in abses):
        raise CodegenError("Y group members must be abstractions")
    if not isinstance(entry, (Abs, Var)):
        raise CodegenError("Y entry must be an abstraction or a variable")

    # Whether the entry continuation itself is recursive (referenced via c0).
    entry_recursive = isinstance(entry, Abs) and count_occurrences(fixfun.body, c0) > 0

    # registers for the group names, visible to the member closures
    group_names = list(vs)
    group_abs: list[Abs] = list(abses)
    if entry_recursive:
        group_names.append(c0)
        group_abs.append(entry)
    for name in group_names:
        c.reg_of[name] = c.fresh_reg()

    descriptors = []
    for name, member in zip(group_names, group_abs):
        child = _FnCompiler(member, c, str(name), c.registry)
        child.compile()
        code_index = len(c.code.codes)
        c.code.codes.append(child.code)
        plan = tuple(c.capture_source(n) for n in child.code.free_names)
        descriptors.append((c.reg_of[name], code_index, plan))
    c.emit("fix", tuple(descriptors))

    if entry_recursive:
        c.emit("tailcall", c.reg_of[c0], ())
    elif isinstance(entry, Var):
        # eta-reduced entry: jump to the existing continuation
        c.emit("tailcall", c.value_reg(entry), ())
    else:
        # the entry continuation runs exactly once: inline it
        c.compile_app(entry.body)


def _emit_push_handler(c: _FnCompiler, app: PrimApp) -> None:
    handler, cont = app.args
    rh = c.value_reg(handler)
    c.emit("pushh", rh)
    c.continue_with(cont, [])


def _emit_pop_handler(c: _FnCompiler, app: PrimApp) -> None:
    (cont,) = app.args
    c.emit("poph")
    c.continue_with(cont, [])


def _emit_raise(c: _FnCompiler, app: PrimApp) -> None:
    (value,) = app.args
    c.emit("raise", c.value_reg(value))


def _emit_ccall(c: _FnCompiler, app: PrimApp) -> None:
    fn_v, vec_v, ce, cc = app.args
    rf, rv = c.value_reg(fn_v), c.value_reg(vec_v)
    dst, err = c.fresh_reg(), c.fresh_reg()
    exc = c.block(ce, [err])
    c.emit("ccall", dst, rf, rv, exc, err)
    c.continue_with(cc, [dst])


def _emit_print(c: _FnCompiler, app: PrimApp) -> None:
    value, cont = app.args
    c.emit("print", c.value_reg(value))
    c.continue_with(cont, [c.unit_reg()])


def _emit_halt(c: _FnCompiler, app: PrimApp) -> None:
    (value,) = app.args
    c.emit("halt", c.value_reg(value))


_EMITTERS = {
    "+": _emit_arith("add"),
    "-": _emit_arith("sub"),
    "*": _emit_arith("mul"),
    "/": _emit_arith("div"),
    "%": _emit_arith("rem"),
    "<": _emit_compare("lt"),
    ">": _emit_compare("gt"),
    "<=": _emit_compare("le"),
    ">=": _emit_compare("ge"),
    "band": _emit_bits("band"),
    "bor": _emit_bits("bor"),
    "bxor": _emit_bits("bxor"),
    "shl": _emit_bits("shl"),
    "shr": _emit_bits("shr"),
    "bnot": _emit_unary("bnot"),
    "char2int": _emit_unary("c2i"),
    "int2char": _emit_unary("i2c"),
    "array": _emit_alloc("arr"),
    "vector": _emit_alloc("vec"),
    "new": _emit_sized_alloc("anew"),
    "$new": _emit_sized_alloc("bnew"),
    "[]": _emit_load("aget"),
    "$[]": _emit_load("bget"),
    "[]:=": _emit_store("aset"),
    "$[]:=": _emit_store("bset"),
    "size": _emit_size,
    "move": _emit_move("amove"),
    "$move": _emit_move("bmove"),
    "==": _emit_case,
    "Y": _emit_y,
    "pushHandler": _emit_push_handler,
    "popHandler": _emit_pop_handler,
    "raise": _emit_raise,
    "ccall": _emit_ccall,
    "print": _emit_print,
    "halt": _emit_halt,
}
