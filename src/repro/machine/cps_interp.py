"""Reference CPS interpreter for TML — the executable semantics oracle.

TML "has simple and clean semantics based on the λ-calculus ... effectively
a call-by-value λ-calculus with store semantics" (section 2.1).  This module
implements those semantics directly: a trampolined machine whose state is
the current application, an environment, a handler stack and the store.

The interpreter is the *oracle* for the whole repository: the optimizer must
preserve its observable behaviour (result, output, exception), and the TAM
virtual machine must agree with it — both properties are differential-tested.

Cost accounting mirrors the paper's "idealized abstract machine": each
primitive contributes its registered instruction cost, a user procedure call
costs :data:`PROC_CALL_COST`, a continuation invocation
:data:`CONT_CALL_COST`.  The asymmetry is the heart of the section 6
experiment — dynamically bound library calls pay call overhead that inlined
primitives do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.names import Name
from repro.core.syntax import Abs, App, Application, Char, Lit, Oid, PrimApp, UNIT, Var
from repro.primitives.arith import OVERFLOW, ZERO_DIVIDE, int_div, int_rem
from repro.primitives.registry import PrimitiveRegistry, default_registry
from repro.primitives._util import INT_MAX, INT_MIN, wrap_int
from repro.machine.runtime import (
    ARITY_ERROR,
    BOUNDS_ERROR,
    Closure,
    Env,
    FixReceiver,
    ForeignTable,
    Halted,
    MachineError,
    TYPE_ERROR,
    TmlArray,
    TmlByteArray,
    TmlVector,
    Trap,
    UncaughtTmlException,
    identical,
    show_value,
)

__all__ = [
    "Interpreter",
    "RunResult",
    "FuelExhausted",
    "PROC_CALL_COST",
    "CONT_CALL_COST",
]

#: Abstract-machine instructions charged for calling a user procedure
#: (closure fetch, argument transfer, frame setup, indirect jump).
PROC_CALL_COST = 6

#: Instructions charged for invoking a continuation (a goto with arguments).
CONT_CALL_COST = 2


class FuelExhausted(Exception):
    """The configured step budget ran out (used to bound property tests)."""


@dataclass(slots=True)
class RunResult:
    """Observable outcome of a TML execution."""

    value: Any
    steps: int
    cost: int
    output: list[str] = field(default_factory=list)

    def __repr__(self) -> str:
        return f"RunResult(value={self.value!r}, steps={self.steps}, cost={self.cost})"


class _TopCont:
    """Sentinel continuations delimiting a top-level run."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind  # "normal" | "exception"

    def __repr__(self) -> str:
        return f"<top-{self.kind}-continuation>"


class Interpreter:
    """A TML abstract machine instance.

    Args:
        registry: primitive registry (defaults to the Fig. 2 set).
        store: optional object store; literal OIDs resolve through it.
        foreign: the ``ccall`` function table.
        fuel: optional bound on interpreter steps.
    """

    def __init__(
        self,
        registry: PrimitiveRegistry | None = None,
        store=None,
        foreign: ForeignTable | None = None,
        fuel: int | None = None,
    ):
        self.registry = registry or default_registry()
        self.store = store
        self.foreign = foreign or ForeignTable()
        self.fuel = fuel
        self.steps = 0
        self.cost = 0
        self.output: list[str] = []
        self.handlers: list[Any] = []
        self._dispatch: dict[str, Callable] = dict(_PRIM_HANDLERS)

    # ------------------------------------------------------------------ API

    def run(self, app: Application, bindings: dict[Name, Any] | None = None) -> RunResult:
        """Execute an application until ``halt`` or a top continuation fires.

        Free variables of ``app`` must be covered by ``bindings``.
        """
        env = Env(dict(bindings or {}))
        return self._trampoline(app, env)

    def call(self, closure: Closure, args: list[Any]) -> RunResult:
        """Call a procedure closure, supplying top-level ce/cc continuations.

        ``closure`` must be a proc abstraction expecting ``len(args)`` value
        arguments plus the two continuations.
        """
        top_cc = _TopCont("normal")
        top_ce = _TopCont("exception")
        full_args = list(args) + [top_ce, top_cc]
        if closure.arity != len(full_args):
            raise MachineError(
                f"procedure expects {closure.arity} arguments "
                f"(incl. continuations), got {len(full_args)}"
            )
        env = Env(dict(zip(closure.abs.params, full_args)), closure.env)
        return self._trampoline(closure.abs.body, env)

    def procedure(self, closure: Closure, n: int) -> Callable[..., Any]:
        """The re-entry a bulk primitive makes once per row
        (:meth:`repro.machine.vm.VM.procedure`): a callable running
        ``closure`` on ``n`` values as one :meth:`call`, to its value."""
        return lambda *args: self.call(closure, list(args)).value

    def make_closure(self, abs_node: Abs, bindings: dict[Name, Any] | None = None) -> Closure:
        """Close an abstraction over explicit bindings."""
        return Closure(abs_node, Env(dict(bindings or {})))

    # ------------------------------------------------------------ trampoline

    def _trampoline(self, current: Application, env: Env) -> RunResult:
        start_steps, start_cost = self.steps, self.cost
        start_output = len(self.output)
        floor = len(self.handlers)  # this run sees only the handlers it pushes
        try:
            while True:
                self.steps += 1
                if self.fuel is not None and self.steps - start_steps > self.fuel:
                    raise FuelExhausted(f"exceeded {self.fuel} steps")
                try:
                    current, env = self._step(current, env)
                except Trap as trap:
                    current, env = self._route_exception(trap.value, floor)
        except Halted as halted:
            return RunResult(
                value=halted.value,
                steps=self.steps - start_steps,
                cost=self.cost - start_cost,
                output=self.output[start_output:],
            )

    def _step(self, current: Application, env: Env) -> tuple[Application, Env]:
        if isinstance(current, App):
            fn_value = self._value(current.fn, env)
            args = [self._value(arg, env) for arg in current.args]
            return self._enter(fn_value, args)
        return self._prim_step(current, env)

    def _value(self, node, env: Env) -> Any:
        if isinstance(node, Var):
            return env.lookup(node.name)
        if isinstance(node, Lit):
            payload = node.value
            if isinstance(payload, Oid) and self.store is not None:
                return self.store.load(payload)
            return payload
        if isinstance(node, Abs):
            return Closure(node, env)
        raise MachineError(f"not a value: {node!r}")

    def _enter(self, fn_value: Any, args: list[Any]) -> tuple[Application, Env]:
        if isinstance(fn_value, Closure):
            abs_node = fn_value.abs
            if len(abs_node.params) != len(args):
                raise Trap(ARITY_ERROR)
            self.cost += PROC_CALL_COST if abs_node.is_proc_abs else CONT_CALL_COST
            env = Env(dict(zip(abs_node.params, args)), fn_value.env)
            return abs_node.body, env
        if isinstance(fn_value, FixReceiver):
            return self._fix_backpatch(fn_value, args)
        if isinstance(fn_value, _TopCont):
            if len(args) != 1:
                raise MachineError("top continuation expects exactly one value")
            if fn_value.kind == "normal":
                raise Halted(args[0])
            raise UncaughtTmlException(args[0])
        raise Trap(TYPE_ERROR)

    def _fix_backpatch(self, receiver: FixReceiver, args: list[Any]) -> tuple[Application, Env]:
        if len(args) != len(receiver.names) + 1:
            raise MachineError("Y receiver called with wrong argument count")
        entry = args[0]
        receiver.frame[receiver.c0] = entry
        for name, value in zip(receiver.names, args[1:]):
            receiver.frame[name] = value
        self.cost += CONT_CALL_COST
        return self._enter(entry, [])

    def _route_exception(self, value: Any, floor: int) -> tuple[Application, Env]:
        """Transfer control to the topmost dynamic handler (pop-and-invoke) —
        one the run pushed, above ``floor``: a run a primitive started (a
        query predicate) must not take a handler of the run around it."""
        if len(self.handlers) <= floor:
            raise UncaughtTmlException(value)
        handler = self.handlers.pop()
        return self._enter(handler, [value])

    # -------------------------------------------------------------- prims

    def _prim_step(self, current: PrimApp, env: Env) -> tuple[Application, Env]:
        name = current.prim
        if name == "Y":
            return self._prim_y(current, env)

        prim = self.registry.get(name)
        self.cost += prim.cost if prim is not None else 1

        handler = self._dispatch.get(name)
        if handler is None and prim is not None and prim.interp is not None:
            handler = prim.interp
        if handler is None:
            raise MachineError(f"no interpreter semantics for primitive {name!r}")

        args = [self._value(arg, env) for arg in current.args]
        cont, results = handler(self, args)
        return self._enter(cont, results)

    def _prim_y(self, current: PrimApp, env: Env) -> tuple[Application, Env]:
        """The fixpoint combinator: backpatching frame + receiver (section 2.3)."""
        self.cost += self.registry.lookup("Y").cost
        fix_value = self._value(current.args[0], env)
        if not isinstance(fix_value, Closure):
            raise MachineError("Y expects an abstraction argument")
        params = fix_value.abs.params
        if len(params) < 2:
            raise MachineError("Y fixpoint function must bind at least (c0 c)")
        c0, *vs, c = params
        frame: dict[Name, Any] = {}
        frame[c] = FixReceiver(frame, c0, tuple(vs))
        return fix_value.abs.body, Env(frame, fix_value.env)

    # ------------------------------------------------------------ utilities

    def trap(self, value: Any) -> None:
        raise Trap(value)

    def emit_output(self, value: Any) -> None:
        self.output.append(show_value(value))


# ---------------------------------------------------------------------------
# Primitive handlers.  Signature: handler(machine, evaluated_args) ->
# (continuation_value, result_values).  Traps are raised as Trap.
# ---------------------------------------------------------------------------


def _need_int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise Trap(TYPE_ERROR)
    return value


def _arith(op):
    def handler(machine, args):
        a, b, ce, cc = args
        left, right = _need_int(a), _need_int(b)
        try:
            result = op(left, right)
        except ZeroDivisionError:
            return ce, [ZERO_DIVIDE]
        if result < INT_MIN or result > INT_MAX:
            return ce, [OVERFLOW]
        return cc, [result]

    return handler


def _compare(op):
    def handler(machine, args):
        a, b, c_then, c_else = args
        return (c_then if op(_need_int(a), _need_int(b)) else c_else), []

    return handler


def _bitop(op):
    def handler(machine, args):
        a, b, cont = args
        return cont, [wrap_int(op(_need_int(a), _need_int(b)))]

    return handler


def _prim_bnot(machine, args):
    a, cont = args
    return cont, [wrap_int(~_need_int(a))]


def _prim_char2int(machine, args):
    value, cont = args
    if not isinstance(value, Char):
        raise Trap(TYPE_ERROR)
    return cont, [value.code & 0xFF]


def _prim_int2char(machine, args):
    value, cont = args
    return cont, [Char(chr(_need_int(value) & 0xFF))]


def _prim_array(machine, args):
    *values, cont = args
    return cont, [TmlArray(values)]


def _prim_vector(machine, args):
    *values, cont = args
    return cont, [TmlVector(values)]


def _prim_new(machine, args):
    count, init, cont = args
    n = _need_int(count)
    if n < 0:
        raise Trap(BOUNDS_ERROR)
    return cont, [TmlArray([init] * n)]


def _prim_bnew(machine, args):
    count, init, cont = args
    n = _need_int(count)
    byte = _need_int(init)
    if n < 0:
        raise Trap(BOUNDS_ERROR)
    return cont, [TmlByteArray(bytes([byte & 0xFF]) * n)]


def _slots(value) -> list | tuple:
    if isinstance(value, TmlArray):
        return value.slots
    if isinstance(value, TmlVector):
        return value.slots
    raise Trap(TYPE_ERROR)


def _prim_load(machine, args):
    target, index, cont = args
    slots = _slots(target)
    i = _need_int(index)
    if not 0 <= i < len(slots):
        raise Trap(BOUNDS_ERROR)
    return cont, [slots[i]]


def _prim_store(machine, args):
    target, index, value, cont = args
    if not isinstance(target, TmlArray):
        raise Trap(TYPE_ERROR)  # vectors are immutable
    i = _need_int(index)
    if not 0 <= i < len(target.slots):
        raise Trap(BOUNDS_ERROR)
    target.slots[i] = value
    return cont, [UNIT]


def _prim_bload(machine, args):
    target, index, cont = args
    if not isinstance(target, TmlByteArray):
        raise Trap(TYPE_ERROR)
    i = _need_int(index)
    if not 0 <= i < len(target.data):
        raise Trap(BOUNDS_ERROR)
    return cont, [target.data[i]]


def _prim_bstore(machine, args):
    target, index, value, cont = args
    if not isinstance(target, TmlByteArray):
        raise Trap(TYPE_ERROR)
    i = _need_int(index)
    if not 0 <= i < len(target.data):
        raise Trap(BOUNDS_ERROR)
    target.data[i] = _need_int(value) & 0xFF
    return cont, [UNIT]


def _prim_size(machine, args):
    target, cont = args
    if isinstance(target, (TmlArray, TmlVector)):
        return cont, [len(target)]
    if isinstance(target, TmlByteArray):
        return cont, [len(target)]
    raise Trap(TYPE_ERROR)


def _check_move_range(dst_len: int, di: int, src_len: int, si: int, n: int) -> None:
    if n < 0 or di < 0 or si < 0 or di + n > dst_len or si + n > src_len:
        raise Trap(BOUNDS_ERROR)


def _prim_move(machine, args):
    dst, di, src, si, n, cont = args
    if not isinstance(dst, TmlArray):
        raise Trap(TYPE_ERROR)
    source = _slots(src)
    di_i, si_i, n_i = _need_int(di), _need_int(si), _need_int(n)
    _check_move_range(len(dst.slots), di_i, len(source), si_i, n_i)
    chunk = list(source[si_i : si_i + n_i])
    dst.slots[di_i : di_i + n_i] = chunk
    return cont, [UNIT]


def _prim_bmove(machine, args):
    dst, di, src, si, n, cont = args
    if not isinstance(dst, TmlByteArray) or not isinstance(src, TmlByteArray):
        raise Trap(TYPE_ERROR)
    di_i, si_i, n_i = _need_int(di), _need_int(si), _need_int(n)
    _check_move_range(len(dst.data), di_i, len(src.data), si_i, n_i)
    chunk = bytes(src.data[si_i : si_i + n_i])
    dst.data[di_i : di_i + n_i] = chunk
    return cont, [UNIT]


def _prim_case(machine, args):
    # (== v tag1..tagn c1..cn [celse]) with nullary branch continuations
    total = len(args)
    has_else = (total % 2) == 0
    n = (total - 2) // 2 if has_else else (total - 1) // 2
    scrutinee = args[0]
    tags = args[1 : 1 + n]
    branches = args[1 + n : 1 + 2 * n]
    for tag, branch in zip(tags, branches):
        if identical(scrutinee, tag):
            return branch, []
    if has_else:
        return args[-1], []
    raise Trap("caseError")


def _prim_push_handler(machine, args):
    handler, cont = args
    machine.handlers.append(handler)
    return cont, []


def _prim_pop_handler(machine, args):
    (cont,) = args
    if not machine.handlers:
        raise MachineError("popHandler on empty handler stack")
    machine.handlers.pop()
    return cont, []


def _prim_raise(machine, args):
    (value,) = args
    raise Trap(value)


def _prim_ccall(machine, args):
    fn_name, argvec, ce, cc = args
    if isinstance(fn_name, Char):
        fn_name = fn_name.value
    if not isinstance(fn_name, str):
        raise Trap(TYPE_ERROR)
    if isinstance(argvec, (TmlArray, TmlVector)):
        call_args = list(argvec.slots)
    else:
        raise Trap(TYPE_ERROR)
    function = machine.foreign.lookup(fn_name)
    try:
        result = function(*call_args)
    except Exception as error:  # foreign failures surface at ce
        return ce, [f"foreignError: {error}"]
    return cc, [UNIT if result is None else result]


def _prim_print(machine, args):
    value, cont = args
    machine.emit_output(value)
    return cont, [UNIT]


def _prim_halt(machine, args):
    raise Halted(args[0])


_PRIM_HANDLERS: dict[str, Callable] = {
    "+": _arith(lambda a, b: a + b),
    "-": _arith(lambda a, b: a - b),
    "*": _arith(lambda a, b: a * b),
    "/": _arith(int_div),
    "%": _arith(int_rem),
    "<": _compare(lambda a, b: a < b),
    ">": _compare(lambda a, b: a > b),
    "<=": _compare(lambda a, b: a <= b),
    ">=": _compare(lambda a, b: a >= b),
    "band": _bitop(lambda a, b: a & b),
    "bor": _bitop(lambda a, b: a | b),
    "bxor": _bitop(lambda a, b: a ^ b),
    "shl": _bitop(lambda a, b: a << (b % 64)),
    "shr": _bitop(lambda a, b: a >> (b % 64)),
    "bnot": _prim_bnot,
    "char2int": _prim_char2int,
    "int2char": _prim_int2char,
    "array": _prim_array,
    "vector": _prim_vector,
    "new": _prim_new,
    "$new": _prim_bnew,
    "[]": _prim_load,
    "[]:=": _prim_store,
    "$[]": _prim_bload,
    "$[]:=": _prim_bstore,
    "size": _prim_size,
    "move": _prim_move,
    "$move": _prim_bmove,
    "==": _prim_case,
    "pushHandler": _prim_push_handler,
    "popHandler": _prim_pop_handler,
    "raise": _prim_raise,
    "ccall": _prim_ccall,
    "print": _prim_print,
    "halt": _prim_halt,
}
