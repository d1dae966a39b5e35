"""Runtime value representations shared by the CPS interpreter and the TAM VM.

TML has call-by-value λ-calculus semantics over an implicit store (paper
section 2.1).  The runtime universe:

* simple values — 64-bit integers, booleans, characters, strings, unit;
* store objects — mutable arrays, immutable vectors, byte arrays;
* procedures — interpreter closures or compiled TAM closures;
* OIDs — resolved against a persistent object store when one is attached.

Traps (array bounds, bad element types, uncaught raises) and program
termination are modelled as Python exceptions that the machine loops catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Protocol

from repro.core.names import Name
from repro.core.syntax import Abs, Char, Oid, Unit

__all__ = [
    "TmlArray",
    "TmlVector",
    "TmlByteArray",
    "Env",
    "Closure",
    "FixReceiver",
    "ForeignTable",
    "ObjectResolver",
    "Trap",
    "Halted",
    "UncaughtTmlException",
    "MachineError",
    "show_value",
    "block_move",
    "EXT_OPS",
    "BOUNDS_ERROR",
    "TYPE_ERROR",
    "ARITY_ERROR",
]

#: Exception payloads used for runtime traps.
BOUNDS_ERROR = "boundsError"
TYPE_ERROR = "typeError"
ARITY_ERROR = "arityError"


class TmlArray:
    """A mutable array of object references (the ``array``/``new`` primitives)."""

    __slots__ = ("slots",)

    def __init__(self, slots: Iterable[Any]):
        self.slots = list(slots)

    def __len__(self) -> int:
        return len(self.slots)

    def __repr__(self) -> str:
        return f"TmlArray({self.slots!r})"


class TmlVector:
    """An immutable array (the ``vector`` primitive).

    Being immutable, vectors get structural (Python-level) equality; the
    TML ``==`` primitive still compares store objects by identity — see
    :func:`identical`.
    """

    __slots__ = ("slots",)

    def __init__(self, slots: Iterable[Any]):
        self.slots = tuple(slots)

    def __len__(self) -> int:
        return len(self.slots)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TmlVector) and other.slots == self.slots

    def __hash__(self) -> int:
        return hash(self.slots)

    def __repr__(self) -> str:
        return f"TmlVector({self.slots!r})"


class TmlByteArray:
    """A mutable byte array (the ``$new``/``$[]`` primitives)."""

    __slots__ = ("data",)

    def __init__(self, data: bytearray | bytes | Iterable[int]):
        self.data = bytearray(data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"TmlByteArray({bytes(self.data)!r})"


class Env:
    """A lexical environment: one frame of bindings plus a parent link.

    Frames are plain dicts keyed by :class:`Name`; the Y combinator
    backpatches a frame in place to tie recursive knots (Landin's knot).
    """

    __slots__ = ("frame", "parent")

    def __init__(self, frame: dict[Name, Any] | None = None, parent: "Env | None" = None):
        self.frame = frame if frame is not None else {}
        self.parent = parent

    def lookup(self, name: Name) -> Any:
        env: Env | None = self
        while env is not None:
            frame = env.frame
            if name in frame:
                return frame[name]
            env = env.parent
        raise MachineError(f"unbound variable {name}")

    def extend(self, names: Iterable[Name], values: Iterable[Any]) -> "Env":
        return Env(dict(zip(names, values)), self)

    def flatten(self) -> dict[Name, Any]:
        """All visible bindings (inner frames win); used by reflection."""
        chain: list[Env] = []
        env: Env | None = self
        while env is not None:
            chain.append(env)
            env = env.parent
        merged: dict[Name, Any] = {}
        for frame_env in reversed(chain):
            merged.update(frame_env.frame)
        return merged


@dataclass(slots=True)
class Closure:
    """An interpreter closure: an abstraction together with its environment."""

    abs: Abs
    env: Env

    @property
    def arity(self) -> int:
        return len(self.abs.params)

    def __repr__(self) -> str:
        params = " ".join(str(p) for p in self.abs.params)
        return f"<closure λ({params})>"


@dataclass(slots=True)
class FixReceiver:
    """The continuation the Y primitive binds to ``c`` (paper section 2.3).

    Invoking it with ``(entry, f1..fn)`` backpatches the fixpoint frame and
    transfers control to the entry continuation.
    """

    frame: dict
    c0: Name
    names: tuple[Name, ...]

    def __repr__(self) -> str:
        return f"<fix-receiver {len(self.names)} binding(s)>"


class ForeignTable:
    """The ``ccall`` target world: named Python callables.

    Substitutes for the original system's C functions while preserving the
    contract: opaque, unknown effects, may fail.
    """

    def __init__(self, functions: Mapping[str, Callable] | None = None):
        self._functions: dict[str, Callable] = dict(functions or {})

    def register(self, name: str, function: Callable) -> None:
        self._functions[name] = function

    def lookup(self, name: str) -> Callable:
        try:
            return self._functions[name]
        except KeyError:
            raise MachineError(f"unknown foreign function {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions


#: Handlers of the registry-extension primitives the VM runs as ``extcall``:
#: name -> handler(machine, [arg values]) -> result value.  Filled by the
#: subsystems that register extension primitives (e.g. the query algebra)
#: and read at every call, so an entry may be replaced while code runs.
EXT_OPS: dict[str, Callable] = {}


class ObjectResolver(Protocol):
    """What a machine needs from the persistent store: OID resolution."""

    def load(self, oid: Oid) -> Any:  # pragma: no cover - protocol
        ...


class Trap(Exception):
    """A runtime trap (bounds error, type error); routed to the handler stack."""

    def __init__(self, value: Any):
        super().__init__(value)
        self.value = value


class ExtRaise(Exception):
    """An extension primitive delivering a value to its exception continuation.

    Raised by handlers of registry-extension primitives (e.g. a query
    predicate raising inside ``select``); both machines route it to the
    primitive's ``ce`` argument rather than the dynamic handler stack.
    """

    def __init__(self, value: Any):
        super().__init__(value)
        self.value = value


class Halted(Exception):
    """Raised by the ``halt`` primitive to deliver the final program result."""

    def __init__(self, value: Any):
        super().__init__(value)
        self.value = value


class UncaughtTmlException(Exception):
    """A ``raise`` (or trap) with an empty handler stack."""

    def __init__(self, value: Any):
        super().__init__(show_value(value))
        self.value = value


class MachineError(Exception):
    """An internal invariant violation (ill-formed code reached the machine)."""


def show_value(value: Any) -> str:
    """Human-readable rendering of a runtime value (used by ``print``)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Char):
        return value.value
    if isinstance(value, str):
        return value
    if isinstance(value, Unit):
        return "unit"
    if isinstance(value, TmlArray):
        return "[" + " ".join(show_value(v) for v in value.slots) + "]"
    if isinstance(value, TmlVector):
        return "#[" + " ".join(show_value(v) for v in value.slots) + "]"
    if isinstance(value, TmlByteArray):
        return "$[" + " ".join(str(b) for b in value.data) + "]"
    if isinstance(value, Oid):
        return str(value)
    return repr(value)


def identical(left: Any, right: Any) -> bool:
    """Object identity as used by the ``==`` primitive.

    Simple values compare by value (within the same type); store objects by
    Python identity, which models OID equality.
    """
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and left == right
    if isinstance(left, int) and isinstance(right, int):
        return left == right
    if isinstance(left, Char) and isinstance(right, Char):
        return left.value == right.value
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    if isinstance(left, Unit) and isinstance(right, Unit):
        return True
    if isinstance(left, Oid) and isinstance(right, Oid):
        return left.value == right.value
    return left is right


def block_move(dst: Any, di: Any, src: Any, si: Any, n: Any, bytes_mode: bool) -> None:
    """``dst[di:di+n] = src[si:si+n]`` between arrays (or byte arrays), as the
    VM's ``amove`` / ``bmove`` do it: typeError, then boundsError, then the
    copy (through a temporary, so overlapping ranges are safe)."""
    for index in (di, si, n):
        if type(index) is not int:
            raise Trap(TYPE_ERROR)
    if bytes_mode:
        if not isinstance(dst, TmlByteArray) or not isinstance(src, TmlByteArray):
            raise Trap(TYPE_ERROR)
        target, source = dst.data, src.data
    else:
        if not isinstance(dst, TmlArray) or not isinstance(src, (TmlArray, TmlVector)):
            raise Trap(TYPE_ERROR)
        target, source = dst.slots, src.slots
    if n < 0 or di < 0 or si < 0 or di + n > len(target) or si + n > len(source):
        raise Trap(BOUNDS_ERROR)
    target[di : di + n] = source[si : si + n]
