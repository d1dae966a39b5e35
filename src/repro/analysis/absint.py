"""Fixpoint abstract interpretation over TAM code (value kinds + effects).

The paper's §6 concession — dynamic binding of library code defeats *local*
optimization — is what this module beats: with every code object resident in
the store, analysis does not stop at a function's free variables.  A
*family* (one materialized root code object plus its nested continuation
codes) is interpreted abstractly over a value-kind lattice, and calls
through statically-frozen bindings are resolved against interprocedural
:class:`Summary` facts, iterated to a fixpoint over the image call graph
(:mod:`repro.analysis.callgraph`).

The value lattice::

        int  float  str  bool  char  nil  cons  array  closure/k
          \\____\\_____\\____|_____/_____/_____/_____|______/
                              TOP            closure/k <= closure/? <= TOP
                 (BOT below everything: unreachable)

Abstract values additionally carry *provenance*: the root procedure's two
top continuations (``cc``/``ce``, mirroring how :meth:`VM.call` appends the
``_TopCont`` sentinels), locally-created closures (so a continuation
materialized into its own code object is analyzed with the register kinds
live at its creation site), resolved call-graph callees, and the set of
captured free slots a value derives from (escape analysis).

Soundness contract (pinned by the differential property suite): for any
terminating VM run of a procedure, the kind of the observed result value is
``<=`` the analysis' predicted ``result ⊔ halts`` lattice value.

The handler-depth half of the state is a small-set lattice (possible depths
relative to function entry, widened to ⊤): it both powers the precise
``TAM020`` check :func:`analyze_code` reports (the one place it is
reported; ``lint`` and ``audit`` run it) and yields the
``handler-depth delta`` component of summaries.  Unknown callees are
assumed handler-depth neutral (they invoke the continuations they were
passed at the depth of the call site); resolved callees use their
summarized delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.effects import effect_join as _effect_join
from repro.core.names import Name
from repro.core.syntax import Char, Oid, Unit
from repro.machine.isa import OPS, CodeObject
from repro.primitives.effects import EffectClass

__all__ = [
    "Kind",
    "AbsVal",
    "Summary",
    "FunctionAnalysis",
    "BOT",
    "TOP",
    "INT",
    "FLOAT",
    "STR",
    "BOOL",
    "CHAR",
    "NIL",
    "CONS",
    "ARRAY",
    "closure_kind",
    "join_kind",
    "kind_le",
    "kind_of_value",
    "kind_from_token",
    "analyze_code",
    "summarize_graph",
]

# ---------------------------------------------------------------------------
# the value-kind lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Kind:
    """One element of the value-kind lattice.

    ``arity`` is set only for ``closure`` kinds: ``closure/3`` is a closure
    of exactly three parameters, ``closure/?`` (arity None) a closure of
    unknown arity.
    """

    tag: str
    arity: int | None = None

    @property
    def token(self) -> str:
        """Stable string form, used by persisted facts (``closure/3``)."""
        if self.tag == "closure" and self.arity is not None:
            return f"closure/{self.arity}"
        return self.tag

    def __str__(self) -> str:
        return self.token


BOT = Kind("bot")
INT = Kind("int")
FLOAT = Kind("float")
STR = Kind("str")
BOOL = Kind("bool")
CHAR = Kind("char")
NIL = Kind("nil")  # the unit value
CONS = Kind("cons")  # foreign pair/sequence values
ARRAY = Kind("array")  # TmlArray / TmlVector / TmlByteArray
TOP = Kind("top")

_ATOMS = {k.tag: k for k in (INT, FLOAT, STR, BOOL, CHAR, NIL, CONS, ARRAY)}


def closure_kind(arity: int | None = None) -> Kind:
    return Kind("closure", arity)


def join_kind(a: Kind, b: Kind) -> Kind:
    if a == b:
        return a
    if a.tag == "bot":
        return b
    if b.tag == "bot":
        return a
    if a.tag == "closure" and b.tag == "closure":
        return closure_kind(None)
    return TOP


def kind_le(a: Kind, b: Kind) -> bool:
    """``a`` is at or below ``b`` in the lattice."""
    if a == b or a.tag == "bot" or b.tag == "top":
        return True
    if a.tag == "closure" and b.tag == "closure":
        return b.arity is None
    return False


def kind_from_token(token: str) -> Kind:
    if token.startswith("closure"):
        _, _, arity = token.partition("/")
        return closure_kind(int(arity) if arity else None)
    if token == "bot":
        return BOT
    if token == "top":
        return TOP
    kind = _ATOMS.get(token)
    if kind is None:
        return TOP  # facts written by a newer schema: degrade soundly
    return kind


def kind_of_value(value) -> Kind:
    """Classify a concrete runtime value (the VM side of the soundness bet)."""
    # bool first: Python bools are ints, TAM booleans are not
    if value is True or value is False:
        return BOOL
    if type(value) is int:
        return INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return STR
    if isinstance(value, Char):
        return CHAR
    if isinstance(value, Unit):
        return NIL
    if isinstance(value, (tuple, list)):
        return CONS
    type_name = type(value).__name__
    if type_name in ("TmlArray", "TmlVector", "TmlByteArray"):
        return ARRAY
    if type_name == "VMClosure":
        return closure_kind(len(value.code.params))
    if isinstance(value, Oid):
        return TOP  # a store reference: loaded lazily, kind unknown
    return TOP


# ---------------------------------------------------------------------------
# abstract values
# ---------------------------------------------------------------------------

_EMPTY = frozenset()


@dataclass(frozen=True, slots=True)
class AbsVal:
    """A lattice value plus provenance the interprocedural layer exploits."""

    kind: Kind
    #: "normal" / "exc" when this is the root procedure's top continuation
    cont: str | None = None
    #: family index of a locally-created closure's code object
    code: int | None = None
    #: qualified name of a call-graph-resolved function binding
    callee: str | None = None
    #: root free slots this value (may) derive from — escape analysis
    slots: frozenset = _EMPTY


def _joinv(a: AbsVal, b: AbsVal) -> AbsVal:
    if a == b:
        return a
    if a.kind.tag == "bot" and not (a.cont or a.code is not None or a.callee):
        return replace(b, slots=a.slots | b.slots) if a.slots else b
    if b.kind.tag == "bot" and not (b.cont or b.code is not None or b.callee):
        return replace(a, slots=a.slots | b.slots) if b.slots else a
    slots = a.slots | b.slots
    if a.cont == b.cont and a.code == b.code and a.callee == b.callee:
        return AbsVal(
            join_kind(a.kind, b.kind), cont=a.cont, code=a.code,
            callee=a.callee, slots=slots,
        )
    # differing provenance: drop it, keep the kind join
    return AbsVal(join_kind(a.kind, b.kind), slots=slots)


_BOTV = AbsVal(BOT)
_TOPV = AbsVal(TOP)


# ---------------------------------------------------------------------------
# handler-depth lattice: small sets of possible depths, widened to ⊤
# ---------------------------------------------------------------------------

_DTOP = "⊤"  # unknown / unbounded depth
_DEPTH_LIMIT = 8


def _join_depths(a, b):
    if a is _DTOP or b is _DTOP:
        return _DTOP
    joined = a | b
    if len(joined) > _DEPTH_LIMIT or any(abs(d) > 64 for d in joined):
        return _DTOP
    return joined


def _shift_depths(depths, delta: int):
    if depths is _DTOP:
        return _DTOP
    return frozenset(d + delta for d in depths)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Summary:
    """Per-closure analysis facts, serializable for the persisted fact cache.

    Kinds are stored as tokens (``int``, ``closure/3``, ``top``) so records
    survive in the image without custom codecs.  ``ret_deltas`` is the set
    of possible net handler-depth changes observed at result delivery
    (``None`` = unknown); ``escapes`` lists captured free-slot indices that
    may leak out of the closure (stored into arrays, raised, passed to
    unresolved callees).
    """

    name: str
    arity: int
    is_proc: bool
    result: str = "top"
    halts: str = "bot"
    raises: str = "top"
    effect: str = EffectClass.UNKNOWN.value
    ret_deltas: tuple[int, ...] | None = None
    escapes: tuple[int, ...] = ()

    @property
    def observable(self) -> Kind:
        """What a top-level caller can see: result via cc or a halt."""
        return join_kind(kind_from_token(self.result), kind_from_token(self.halts))

    @staticmethod
    def top(name: str, arity: int, is_proc: bool = True) -> "Summary":
        return Summary(name=name, arity=arity, is_proc=is_proc)

    @staticmethod
    def bottom(name: str, arity: int, is_proc: bool = True) -> "Summary":
        return Summary(
            name=name, arity=arity, is_proc=is_proc,
            result="bot", halts="bot", raises="bot",
            effect=EffectClass.PURE.value, ret_deltas=(), escapes=(),
        )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "arity": self.arity,
            "is_proc": self.is_proc,
            "result": self.result,
            "halts": self.halts,
            "raises": self.raises,
            "effect": self.effect,
            "ret_deltas": self.ret_deltas,
            "escapes": self.escapes,
        }

    @staticmethod
    def from_dict(data: dict) -> "Summary":
        deltas = data.get("ret_deltas")
        return Summary(
            name=str(data.get("name", "?")),
            arity=int(data.get("arity", 0)),
            is_proc=bool(data.get("is_proc", True)),
            result=str(data.get("result", "top")),
            halts=str(data.get("halts", "top")),
            raises=str(data.get("raises", "top")),
            effect=str(data.get("effect", EffectClass.UNKNOWN.value)),
            ret_deltas=tuple(int(d) for d in deltas) if deltas is not None else None,
            escapes=tuple(int(i) for i in data.get("escapes", ())),
        )


@dataclass
class FunctionAnalysis:
    """Everything one family analysis produced."""

    summary: Summary
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: qualified names of call-graph bindings the summary may depend on
    deps: tuple[str, ...] = ()


#: severity of the precise handler-depth finding (satellite of PR 6: TAM020
#: went from best-effort INFO to a per-path proof, so a report now means a
#: ``poph`` provably reachable at depth <= 0 from function entry)
HANDLER_SEVERITY = Severity.WARNING


class _Family:
    """Abstract interpretation of one root code object and its nested codes."""

    def __init__(
        self,
        root: CodeObject,
        name: str,
        bindings: dict[Name, AbsVal] | None,
        summaries: dict[str, Summary] | None,
        registry=None,
        arg_kinds: tuple[Kind, ...] | None = None,
    ):
        self.root = root
        self.name = name
        self.bindings = bindings or {}
        self.summaries = summaries or {}
        self.registry = registry
        self.arg_kinds = arg_kinds
        # family codes by identity, preorder, with verifier-style paths
        self.codes: list[CodeObject] = []
        self.paths: list[str] = []
        self.index: dict[int, int] = {}
        stack: list[tuple[CodeObject, str]] = [(root, self.name)]
        while stack:
            code, path = stack.pop()
            self.index[id(code)] = len(self.codes)
            self.codes.append(code)
            self.paths.append(path)
            for child_index in range(len(code.codes) - 1, -1, -1):
                stack.append(
                    (code.codes[child_index], f"{path}.codes[{child_index}]")
                )
        n = len(self.codes)
        self.entry_params: list[list[AbsVal] | None] = [None] * n
        self.entry_free: list[list[AbsVal] | None] = [None] * n
        self.entry_depths: list[object | None] = [None] * n
        #: per family code: per-pc (regs, depths) fixpoint state
        self.states: list[list[tuple[list[AbsVal], object] | None]] = [
            [None] * len(code.instrs) for code in self.codes
        ]
        self.result = BOT
        self.halts = BOT
        self.raises = BOT
        self.effect = EffectClass.PURE
        self.ret_deltas: object = frozenset()  # joined depth sets at cc calls
        self.escapes: set[int] = set()
        self.diagnostics: list[Diagnostic] = []
        self._reported: set[tuple[int, int, str]] = set()
        self.worklist: list[int] = []
        self._queued: set[int] = set()

    # ------------------------------------------------------------- plumbing

    def _warn(self, idx: int, pc: int, code: str, message: str,
              severity: Severity = Severity.ERROR, **data) -> None:
        key = (idx, pc, code)
        if key in self._reported:
            return
        self._reported.add(key)
        data.setdefault("pc", pc)
        self.diagnostics.append(Diagnostic(
            code=code, severity=severity, message=message,
            path=f"{self.paths[idx]}.instrs[{pc}]", data=data,
        ))

    def _enqueue(self, idx: int) -> None:
        if idx not in self._queued:
            self._queued.add(idx)
            self.worklist.append(idx)

    def _escape(self, val: AbsVal) -> None:
        if val.slots:
            self.escapes.update(val.slots)

    # -------------------------------------------------------------- running

    def run(self) -> None:
        root = self.root
        params: list[AbsVal] = []
        for position in range(len(root.params)):
            if root.is_proc and position == len(root.params) - 2:
                params.append(AbsVal(closure_kind(1), cont="exc"))
            elif root.is_proc and position == len(root.params) - 1:
                params.append(AbsVal(closure_kind(1), cont="normal"))
            elif self.arg_kinds is not None and position < len(self.arg_kinds):
                params.append(AbsVal(self.arg_kinds[position]))
            else:
                params.append(_TOPV)
        free: list[AbsVal] = []
        for slot, fname in enumerate(root.free_names):
            bound = self.bindings.get(fname, _TOPV)
            free.append(replace(bound, slots=bound.slots | {slot}))
        self.entry_params[0] = params
        self.entry_free[0] = free
        self.entry_depths[0] = frozenset({0})
        self._enqueue(0)
        guard = 0
        while self.worklist:
            guard += 1
            if guard > 200 * len(self.codes):  # widening safety net
                self.result = TOP
                self.halts = TOP
                self.raises = TOP
                self.effect = EffectClass.UNKNOWN
                self.ret_deltas = _DTOP
                break
            idx = self.worklist.pop()
            self._queued.discard(idx)
            self._analyze_one(idx)

    def _analyze_one(self, idx: int) -> None:
        code = self.codes[idx]
        if not code.instrs:
            return
        params = self.entry_params[idx] or []
        frees = self.entry_free[idx] or [_TOPV] * len(code.free_names)
        regs = [_BOTV] * code.nregs
        for position, val in enumerate(params[: code.nregs]):
            regs[position] = val
        entry = (regs, self.entry_depths[idx] if self.entry_depths[idx] is not None
                 else frozenset({0}))
        states = self.states[idx]
        self._join_into(states, 0, entry)
        # re-step every reachable pc: captured-free refinements reach `free`
        # instructions directly, without flowing through predecessor states
        pending = [pc for pc in range(len(code.instrs)) if states[pc] is not None]
        while pending:
            pc = pending.pop()
            state = states[pc]
            if state is None:
                continue
            for target, new_state in self._step(idx, code, pc, state, frees):
                if 0 <= target < len(code.instrs) and self._join_into(
                    states, target, new_state
                ):
                    pending.append(target)

    @staticmethod
    def _join_into(states, pc: int, incoming) -> bool:
        regs, depths = incoming
        existing = states[pc]
        if existing is None:
            states[pc] = (list(regs), depths)
            return True
        old_regs, old_depths = existing
        changed = False
        merged = list(old_regs)
        for position, val in enumerate(regs):
            joined = _joinv(old_regs[position], val)
            if joined != old_regs[position]:
                merged[position] = joined
                changed = True
        new_depths = _join_depths(old_depths, depths)
        if new_depths != old_depths:
            changed = True
        if changed:
            states[pc] = (merged, new_depths)
        return changed

    # ------------------------------------------------------------ transfer

    def _kind_ok(self, val: AbsVal, wanted: Kind) -> str:
        """'yes' definitely right, 'no' definitely wrong, 'maybe' otherwise."""
        tag = val.kind.tag
        if tag in ("top", "bot"):
            return "maybe"
        if wanted.tag == "closure":
            return "yes" if tag == "closure" else "no"
        return "yes" if tag == wanted.tag else "no"

    def _require(self, idx, pc, op, val: AbsVal, wanted: Kind) -> bool:
        """False when the instruction provably traps (path dies here)."""
        if self._kind_ok(val, wanted) == "no":
            self._warn(
                idx, pc, "TAM101",
                f"opcode {op!r} applied to a value of kind "
                f"{val.kind.token!r} (needs {wanted.token!r}): guaranteed "
                "trap if this instruction executes",
                op=op, found=val.kind.token, wanted=wanted.token,
            )
            self.raises = join_kind(self.raises, STR)
            return False
        return True

    def _step(self, idx, code, pc, state, frees):
        """Successor states of one instruction; records facts on the way."""
        regs, depths = state
        instr = code.instrs[pc]
        op = instr[0]
        out: list[tuple[int, tuple[list[AbsVal], object]]] = []
        row = OPS.get(op)
        if row is None:  # unknown opcode: the structural verifier reports it
            return out
        if row.prim is not None:
            self.effect = _effect_join(self.effect, row.effect)

        def fall(new_regs, new_depths=depths):
            out.append((pc + 1, (new_regs, new_depths)))

        def write(dst, val):
            new = list(regs)
            new[dst] = val
            return new

        if op == "const":
            # malformed operands are the structural verifier's diagnostics;
            # stay total here so audit can run both analyses over bad code
            if 0 <= instr[2] < len(code.consts):
                fall(write(instr[1], AbsVal(kind_of_value(code.consts[instr[2]]))))
            else:
                fall(write(instr[1], _TOPV))
        elif op == "free":
            fall(write(instr[1], frees[instr[2]]))
        elif op == "closure":
            _, dst, child, plan = instr
            child_idx = self.index[id(code.codes[child])]
            captured = [
                regs[i] if kind == "r" else frees[i] for kind, i in plan
            ]
            self._record_creation(child_idx, captured)
            fall(write(dst, AbsVal(
                closure_kind(len(code.codes[child].params)), code=child_idx,
            )))
        elif op == "fix":
            new = list(regs)
            group = instr[1]
            for dst, child, _plan in group:
                child_idx = self.index[id(code.codes[child])]
                new[dst] = AbsVal(
                    closure_kind(len(code.codes[child].params)), code=child_idx
                )
            for _dst, child, plan in group:
                child_idx = self.index[id(code.codes[child])]
                captured = [
                    new[i] if kind == "r" else frees[i] for kind, i in plan
                ]
                self._record_creation(child_idx, captured)
            fall(new)
        elif op == "case":
            _, _rs, _tags, pcs, else_pc = instr
            for target in pcs:
                out.append((target, (list(regs), depths)))
            if else_pc is not None:
                out.append((else_pc, (list(regs), depths)))
            else:
                self.raises = join_kind(self.raises, STR)
        elif op == "tailcall":
            self._tailcall(idx, pc, regs[instr[1]],
                           [regs[i] for i in instr[2]], depths)
        elif op == "pushh":
            handler = regs[instr[1]]
            self._escape(handler)
            # the handler runs only once it is back on top of the stack:
            # entry depth = depth before this push
            self._invoke(handler, [_TOPV], depths)
            fall(list(regs), _shift_depths(depths, 1))
        elif op == "poph":
            fall(list(regs), _shift_depths(depths, -1))
        elif op == "raise":
            self._escape(regs[instr[1]])
            self.raises = join_kind(self.raises, regs[instr[1]].kind)
        elif op == "ccall":
            _, dst, rf, rv, epc, ed = instr
            self._escape(regs[rv])
            fall(write(dst, _TOPV))
            out.append((epc, (write(ed, AbsVal(STR)), depths)))
        elif op == "extcall":
            _, ext_name, dst, arg_regs, epc, ed = instr
            for i in arg_regs:
                self._escape(regs[i])
                self._maybe_escape_closure(regs[i])
            # the row's effect is the worst case for a primitive named at run
            # time; the registry, when it knows the name, says better
            prim = self.registry.get(ext_name) if self.registry is not None else None
            self.effect = _effect_join(
                self.effect, row.effect if prim is None else prim.attrs.effect
            )
            fall(write(dst, _TOPV))
            if epc is not None:
                out.append((epc, (write(ed, _TOPV), depths)))
        elif op == "print":
            self._escape(regs[instr[1]])
            fall(list(regs))
        elif op == "halt":
            self.halts = join_kind(self.halts, regs[instr[1]].kind)
        else:
            # a regular row: require the declared kinds of the registers
            # read, write the declared kind, fall through (and take the
            # error or else edge)
            reads, dst, epc, ed = row.parts(instr)
            stored = reads[len(row.needs):]
            for reg, need in zip(reads, row.needs):
                if need == "top":
                    stored.append(reg)
                elif not self._require(idx, pc, op, regs[reg], kind_from_token(need)):
                    return out
            for reg in stored:
                self._escape(regs[reg])
                self._maybe_escape_closure(regs[reg])
            if dst is None:
                fall(list(regs))
            else:
                fall(write(dst, AbsVal(kind_from_token(row.gives))))
            if epc is not None:
                error = list(regs) if ed is None else write(ed, AbsVal(STR))
                out.append((epc, (error, depths)))
        return out

    # ----------------------------------------------------------- call logic

    def _record_creation(self, child_idx: int, captured: list[AbsVal]) -> None:
        existing = self.entry_free[child_idx]
        if existing is None:
            self.entry_free[child_idx] = list(captured)
            return
        changed = False
        for slot, val in enumerate(captured):
            joined = _joinv(existing[slot], val)
            if joined != existing[slot]:
                existing[slot] = joined
                changed = True
        if changed and self.entry_params[child_idx] is not None:
            self._enqueue(child_idx)

    def _invoke(self, target: AbsVal, args: list[AbsVal], depths) -> None:
        """Record that ``target`` may be entered with ``args`` at ``depths``."""
        if target.cont == "normal":
            if args:
                self.result = join_kind(self.result, args[0].kind)
                for val in args:
                    self._escape(val)
            self.ret_deltas = _join_depths(self.ret_deltas, depths)
            return
        if target.cont == "exc":
            if args:
                self.raises = join_kind(self.raises, args[0].kind)
                for val in args:
                    self._escape(val)
            return
        if target.code is not None:
            child_idx = target.code
            code = self.codes[child_idx]
            if len(args) != len(code.params):
                return  # arityError at runtime; nothing propagates
            existing = self.entry_params[child_idx]
            changed = False
            if existing is None:
                self.entry_params[child_idx] = list(args)
                changed = True
            else:
                for slot, val in enumerate(args):
                    joined = _joinv(existing[slot], val)
                    if joined != existing[slot]:
                        existing[slot] = joined
                        changed = True
            old_depths = self.entry_depths[child_idx]
            new_depths = depths if old_depths is None else _join_depths(old_depths, depths)
            if new_depths != old_depths:
                self.entry_depths[child_idx] = new_depths
                changed = True
            if self.entry_free[child_idx] is None:
                self.entry_free[child_idx] = [_TOPV] * len(code.free_names)
            if changed:
                self._enqueue(child_idx)
            return
        if target.callee is not None:
            summary = self.summaries.get(target.callee)
            if summary is not None:
                self._apply_summary(target.callee, summary, args, depths)
                return
        # unknown callee: worst case for kinds, handler-depth neutral
        self._apply_unknown(args, depths)

    def _maybe_escape_closure(self, val: AbsVal) -> None:
        """A closure leaking into data may later be entered with anything."""
        if val.code is not None:
            code = self.codes[val.code]
            self._invoke(
                replace(val, slots=_EMPTY),
                [_TOPV] * len(code.params),
                _DTOP,
            )
        elif val.cont == "normal":
            self.result = TOP
            self.ret_deltas = _DTOP
        elif val.cont == "exc":
            self.raises = TOP

    def _apply_summary(self, callee: str, summary: Summary,
                       args: list[AbsVal], depths) -> None:
        if len(args) != summary.arity:
            self._warn(
                0, -1, "TAM102",
                f"call to {callee} with {len(args)} argument(s); its code "
                f"takes {summary.arity}: guaranteed arityError",
                callee=callee, got=len(args), wanted=summary.arity,
            )
            return
        self.effect = _effect_join(self.effect, EffectClass(summary.effect))
        self.halts = join_kind(self.halts, kind_from_token(summary.halts))
        if not summary.is_proc or len(args) < 2:
            self._apply_unknown(args, depths)
            return
        if summary.ret_deltas is None:
            ret_depths = _DTOP
        elif depths is _DTOP:
            ret_depths = _DTOP
        else:
            ret_depths = frozenset(
                d + delta for d in depths for delta in summary.ret_deltas
            )
            if len(ret_depths) > _DEPTH_LIMIT:
                ret_depths = _DTOP
        for val in args[:-2]:
            self._escape(val)
            self._maybe_escape_closure(val)
        self._invoke(args[-1], [AbsVal(kind_from_token(summary.result))], ret_depths)
        self._invoke(args[-2], [AbsVal(kind_from_token(summary.raises))], ret_depths)

    def _apply_unknown(self, args: list[AbsVal], depths) -> None:
        """Calling through an unresolved binding: havoc, but CPS-shaped.

        The callee is assumed to follow the calling convention (it enters
        the last two arguments as its continuations, handler-depth
        neutrally) and may do anything else: every other argument escapes
        and may be entered with arbitrary values at arbitrary depth.
        """
        self.effect = _effect_join(self.effect, EffectClass.UNKNOWN)
        for position, val in enumerate(args):
            self._escape(val)
            if len(args) >= 2 and position >= len(args) - 2:
                self._invoke(val, [_TOPV], depths)
            else:
                self._maybe_escape_closure(val)

    def _tailcall(self, idx, pc, target: AbsVal, args: list[AbsVal], depths) -> None:
        tag = target.kind.tag
        if tag not in ("closure", "top", "bot"):
            self._warn(
                idx, pc, "TAM101",
                f"tailcall enters a value of kind {target.kind.token!r}: "
                "guaranteed typeError if this instruction executes",
                op="tailcall", found=target.kind.token, wanted="closure",
            )
            self.raises = join_kind(self.raises, STR)
            return
        self._invoke(target, args, depths)

    # ------------------------------------------------------------- results

    def summary(self) -> Summary:
        deltas: tuple[int, ...] | None
        if self.ret_deltas is _DTOP:
            deltas = None
        else:
            deltas = tuple(sorted(self.ret_deltas))
        return Summary(
            name=self.name,
            arity=len(self.root.params),
            is_proc=bool(self.root.is_proc),
            result=self.result.token,
            halts=self.halts.token,
            raises=self.raises.token,
            effect=self.effect.value,
            ret_deltas=deltas,
            escapes=tuple(sorted(self.escapes)),
        )

    def handler_findings(self) -> list[Diagnostic]:
        """Precise TAM020: a ``poph`` provably reachable at depth <= 0."""
        found: list[Diagnostic] = []
        for idx, code in enumerate(self.codes):
            states = self.states[idx]
            for pc, instr in enumerate(code.instrs):
                if instr[0] != "poph":
                    continue
                state = states[pc]
                if state is None:
                    continue  # unreachable
                depths = state[1]
                if depths is _DTOP:
                    continue  # an escaped continuation: cannot prove anything
                bad = min(depths)
                if bad <= 0:
                    prefix = self.paths[idx]
                    found.append(Diagnostic(
                        code="TAM020",
                        severity=HANDLER_SEVERITY,
                        message=(
                            "popHandler can execute at handler depth "
                            f"{bad} relative to function entry: it pops a "
                            "handler installed by a caller"
                        ),
                        path=f"{prefix}.instrs[{pc}]",
                        data={"pc": pc, "depth": bad},
                    ))
        return found


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def analyze_code(
    root: CodeObject,
    name: str | None = None,
    bindings: dict[Name, AbsVal] | None = None,
    summaries: dict[str, Summary] | None = None,
    registry=None,
    arg_kinds: tuple[Kind, ...] | None = None,
) -> FunctionAnalysis:
    """Abstractly interpret one code-object family.

    ``bindings`` maps the root's free names to abstract values (the call
    graph supplies resolved function references and constant kinds);
    ``summaries`` supplies interprocedural facts for those references;
    ``arg_kinds`` optionally specializes the root's user-parameter kinds
    (the "argument kinds → result kind" direction of a summary).
    """
    family = _Family(
        root, name or root.name, bindings, summaries, registry, arg_kinds
    )
    family.run()
    diagnostics = list(family.diagnostics)
    diagnostics.extend(family.handler_findings())
    deps = tuple(sorted({
        val.callee for val in (bindings or {}).values() if val.callee
    }))
    return FunctionAnalysis(
        summary=family.summary(), diagnostics=diagnostics, deps=deps
    )


def summarize_graph(
    graph,
    registry=None,
    seeded: dict[str, Summary] | None = None,
) -> dict[str, FunctionAnalysis]:
    """Interprocedural fixpoint over an :class:`ImageGraph`.

    ``seeded`` summaries (e.g. valid cached facts) are taken as final and
    never recomputed; everything else starts at bottom and rises
    monotonically until stable.  Returns analyses for the non-seeded nodes.
    """
    seeded = seeded or {}
    summaries: dict[str, Summary] = dict(seeded)
    analyses: dict[str, FunctionAnalysis] = {}
    todo = [q for q in graph.nodes if q not in seeded]
    for q in todo:
        node = graph.nodes[q]
        summaries[q] = Summary.bottom(
            q, len(node.code.params), bool(node.code.is_proc)
        )
    reverse: dict[str, set[str]] = {q: set() for q in graph.nodes}
    for src, dsts in graph.edges.items():
        for dst in dsts:
            reverse.setdefault(dst, set()).add(src)
    pending = list(todo)
    queued = set(pending)
    rounds = 0
    limit = 50 * max(1, len(todo))
    while pending:
        rounds += 1
        q = pending.pop()
        queued.discard(q)
        node = graph.nodes[q]
        if rounds > limit:  # safety: widen instead of spinning
            analyses[q] = FunctionAnalysis(
                summary=Summary.top(q, len(node.code.params),
                                    bool(node.code.is_proc))
            )
            summaries[q] = analyses[q].summary
            continue
        fa = analyze_code(
            node.code,
            name=q,
            bindings=graph.bindings_for(q),
            summaries=summaries,
            registry=registry,
        )
        analyses[q] = fa
        if fa.summary != summaries.get(q):
            summaries[q] = fa.summary
            for dependent in reverse.get(q, ()):
                if dependent not in seeded and dependent not in queued:
                    queued.add(dependent)
                    pending.append(dependent)
    return analyses
