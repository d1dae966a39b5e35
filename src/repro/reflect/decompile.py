"""Reconstructing TML from executable code (paper section 6, future work).

"We are currently investigating techniques to reconstruct a TML
representation by examining the persistent executable code representation of
a procedure, effectively inverting the target machine code generation
process.  In general, the TML tree reconstructed this way will not be
isomorphic to the original TML tree which we currently encode in PTML.  The
interesting question is whether this has an impact on the possible
optimizations."

This module implements that inversion for TAM code: every instruction maps
back to the primitive application that emitted it; basic blocks become
continuation abstractions; ``fix`` groups become Y applications; nested code
objects become abstractions with their captures re-established.

As the paper anticipates, the result is *not* isomorphic to the original
term — blocks reachable from several branches are duplicated per use site
(the code generator's jumps cannot be shared as trees) — but it is
semantically equivalent and well-formed, so the whole optimizer applies to
it.  Experiment-grade answer to the paper's "interesting question": the
rewrite rules fire on reconstructed terms exactly as on originals (see
``tests/reflect/test_decompile.py``); only sharing-sensitive size metrics
differ.
"""

from __future__ import annotations

from repro.core.names import Name, NameSupply
from repro.core.syntax import Abs, App, Application, Lit, PrimApp, Value, Var
from repro.machine.isa import OPS, CodeObject, Op
from repro.reflect.reach import ReflectError

__all__ = ["decompile_code"]

def decompile_code(code: CodeObject, supply: NameSupply | None = None) -> Abs:
    """Invert code generation: rebuild a TML abstraction from TAM code.

    The result is alpha-fresh (all binders from ``supply``), well-formed,
    and semantically equivalent to the code; free variables are exactly
    ``code.free_names``.
    """
    if supply is None:
        top = max(
            [n.uid for n in code.params]
            + [n.uid for n in code.free_names]
            + [_max_code_uid(code)],
            default=-1,
        )
        supply = NameSupply(start=top + 1)
    return _Decompiler(code, supply).build()


def _max_code_uid(code: CodeObject) -> int:
    top = -1
    stack = [code]
    while stack:
        current = stack.pop()
        for name in tuple(current.params) + tuple(current.free_names):
            top = max(top, name.uid)
        stack.extend(current.codes)
    return top


class _Decompiler:
    def __init__(self, code: CodeObject, supply: NameSupply):
        self.code = code
        self.supply = supply

    def build(self) -> Abs:
        regs: dict[int, Value] = {
            index: Var(param) for index, param in enumerate(self.code.params)
        }
        body = self._block(0, regs)
        return Abs(tuple(self.code.params), body)

    # ------------------------------------------------------------- helpers

    def _const(self, index: int) -> Lit:
        return Lit(self.code.consts[index])

    def _free_var(self, index: int) -> Var:
        return Var(self.code.free_names[index])

    def _nested(self, code_index: int, plan, regs: dict[int, Value]) -> Abs:
        """Rebuild a nested closure as an abstraction with captures bound."""
        from repro.core.substitution import alpha_rename, substitute_many

        nested = self.code.codes[code_index]
        # blocks reachable from several branches are decompiled per use site,
        # so any closure inside may be rebuilt more than once: alpha-rename
        # each copy to keep the unique binding rule intact
        inner = alpha_rename(decompile_code(nested, self.supply), self.supply)
        sources = []
        for kind, index in plan:
            sources.append(regs[index] if kind == "r" else self._free_var(index))
        substitution = dict(zip(nested.free_names, sources))
        rebuilt = substitute_many(inner, substitution)
        assert isinstance(rebuilt, Abs)
        return rebuilt

    def _cont_for(self, pc: int, regs: dict[int, Value], result_reg: int | None,
                  base: str = "t") -> Abs:
        """A continuation abstraction resuming at ``pc``.

        ``result_reg`` receives the continuation's parameter (None for a
        nullary branch continuation).
        """
        if result_reg is None:
            return Abs((), self._block(pc, dict(regs)))
        param = self.supply.fresh_val(base)
        inner = dict(regs)
        inner[result_reg] = Var(param)
        return Abs((param,), self._block(pc, inner))

    # --------------------------------------------------------------- blocks

    def _block(self, pc: int, regs: dict[int, Value]) -> Application:
        """Decompile straight-line code from ``pc`` to a transfer of control."""
        instrs = self.code.instrs
        while True:
            if pc >= len(instrs):
                raise ReflectError(f"code {self.code.name}: fell off the end")
            instr = instrs[pc]
            op = instr[0]

            # -- register moves: no TML node, just environment updates
            if op == "const":
                regs[instr[1]] = self._const(instr[2])
            elif op == "free":
                regs[instr[1]] = self._free_var(instr[2])
            elif op == "closure":
                _, dst, code_index, plan = instr
                regs[dst] = self._nested(code_index, plan, regs)
            elif op == "pushh":
                return PrimApp(
                    "pushHandler",
                    (regs[instr[1]], self._cont_for(pc + 1, regs, None)),
                )
            elif op == "poph":
                return PrimApp("popHandler", (self._cont_for(pc + 1, regs, None),))
            elif op == "raise":
                return PrimApp("raise", (regs[instr[1]],))
            elif op == "halt":
                return PrimApp("halt", (regs[instr[1]],))
            elif op == "tailcall":
                fn = regs[instr[1]]
                args = tuple(regs[i] for i in instr[2])
                if isinstance(fn, Lit):
                    raise ReflectError("tailcall through a literal")
                return App(fn, args)
            elif op == "case":
                _, rs, tag_regs, pcs, else_pc = instr
                tags = tuple(regs[i] for i in tag_regs)
                branches = tuple(self._cont_for(p, regs, None) for p in pcs)
                args: tuple[Value, ...] = (regs[rs],) + tags + branches
                if else_pc is not None:
                    args += (self._cont_for(else_pc, regs, None),)
                return PrimApp("==", args)
            elif op == "extcall":
                _, name, dst, arg_regs, epc, ed = instr
                values = tuple(regs[i] for i in arg_regs)
                if epc is None:
                    return PrimApp(
                        name, values + (self._cont_for(pc + 1, regs, dst),)
                    )
                exc = self._cont_for(epc, regs, ed, base="e")
                normal = self._cont_for(pc + 1, regs, dst)
                return PrimApp(name, values + (exc, normal))
            elif op == "fix":
                return self._fix(instr[1], pc + 1, regs)
            else:
                row = OPS.get(op)
                if row is None or row.prim is None:  # pragma: no cover - defensive
                    raise ReflectError(f"cannot decompile opcode {op!r}")
                return self._prim_app(row, instr, pc, regs)
            pc += 1

    def _prim_app(self, row: Op, instr: tuple, pc: int, regs: dict[int, Value]) -> PrimApp:
        """Invert a regular emitter: the values read, then the continuations."""
        reads, dst, epc, ed = row.parts(instr)
        values = tuple(regs[i] for i in reads)
        if epc is not None and ed is None:  # a comparison: then / else
            conts = (self._cont_for(pc + 1, regs, None), self._cont_for(epc, regs, None))
        else:
            exc = () if epc is None else (self._cont_for(epc, regs, ed, base="e"),)
            if dst is None:  # a store or print: its continuation takes unit
                conts = exc + (self._unit_cont(pc + 1, regs),)
            else:
                conts = exc + (self._cont_for(pc + 1, regs, dst),)
        return PrimApp(row.prim, values + conts)

    def _unit_cont(self, pc: int, regs: dict[int, Value]) -> Abs:
        """A 1-ary continuation that ignores the unit result."""
        param = self.supply.fresh_val("u")
        return Abs((param,), self._block(pc, dict(regs)))

    def _fix(self, group, next_pc: int, regs: dict[int, Value]) -> PrimApp:
        """Rebuild a recursive closure group as a Y application."""
        from repro.core.substitution import substitute_many

        # bind a fresh recursive name per member, visible to every member
        member_names: list[Name] = []
        inner_regs = dict(regs)
        for dst, code_index, _plan in group:
            nested = self.code.codes[code_index]
            sort = "cont" if not nested.is_proc else "val"
            hint = nested.name.rpartition("/")[2]
            name = self.supply.fresh(hint if hint != "anon" else "rec", sort)
            member_names.append(name)
            inner_regs[dst] = Var(name)

        members: list[Abs] = []
        for (dst, code_index, plan), name in zip(group, member_names):
            nested = self.code.codes[code_index]
            from repro.core.substitution import alpha_rename

            inner = alpha_rename(decompile_code(nested, self.supply), self.supply)
            sources = []
            for kind, index in plan:
                sources.append(
                    inner_regs[index] if kind == "r" else self._free_var(index)
                )
            rebuilt = substitute_many(inner, dict(zip(nested.free_names, sources)))
            assert isinstance(rebuilt, Abs)
            members.append(rebuilt)

        entry = Abs((), self._block(next_pc, inner_regs))
        c0 = self.supply.fresh_cont("c0")
        c = self.supply.fresh_cont("c")
        fixfun = Abs(
            (c0,) + tuple(member_names) + (c,),
            App(Var(c), (entry,) + tuple(members)),
        )
        return PrimApp("Y", (fixfun,))
