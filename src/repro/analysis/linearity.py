"""Continuation-linearity and arity analysis (paper section 2.2, constraints 1-5).

The authoritative implementation of the five TML well-formedness constraints,
reported as path-carrying :class:`~repro.analysis.diagnostics.Diagnostic`
objects.  :mod:`repro.core.wellformed` is rebased on this module: it maps the
structural diagnostics back to its historical ``Violation`` records (keyed by
constraint number), so both APIs see exactly the same findings.

Constraint recap:

1. direct applications match the abstraction's arity, and continuation
   arguments form the suffix of a call;
2. primitive applications obey the registry's calling conventions;
3. continuations are second-class — they never escape into value positions;
4. unique binding across the whole tree;
5. abstractions used as values take exactly two continuation parameters
   (exception, normal) as a parameter-list suffix; the function handed to the
   ``Y`` fixpoint combinator is the sanctioned exception, ``λ(c0 v1..vn c)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.dataflow import Path
from repro.analysis.diagnostics import Diagnostic, Severity, format_path
from repro.core.names import Name
from repro.core.syntax import Abs, App, Lit, PrimApp, Term, Var

if TYPE_CHECKING:  # pragma: no cover
    from repro.primitives.registry import PrimitiveRegistry

__all__ = ["analyze", "CONSTRAINT_OF_CODE", "Y_PRIM"]

Y_PRIM = "Y"

#: Paper constraint number behind each structural diagnostic code — the
#: bridge to repro.core.wellformed's Violation API.
CONSTRAINT_OF_CODE: dict[str, int] = {
    "TML001": 4,
    "TML002": 1,
    "TML003": 3,
    "TML004": 1,
    "TML005": 2,
    "TML006": 2,
    "TML007": 5,
    "TML008": 5,
    "TML009": 5,
    "TML010": 1,
}

#: Context flags describing how a node is used by its parent.
_CTX_ROOT = "root"
_CTX_FN = "fn"  # functional position of an App
_CTX_VALUE_ARG = "value-arg"  # argument position expecting a value
_CTX_CONT_ARG = "cont-arg"  # argument position expecting a continuation
_CTX_Y_FN = "y-fn"  # the abstraction argument of the Y primitive
_CTX_BODY = "body"  # body of an abstraction
#: body of the Y abstraction, ``(c entry abs1..absn)``: the entry
#: continuation precedes the bindings by the primitive's definition
_CTX_Y_BODY = "y-body"


def analyze(
    term: Term, registry: "PrimitiveRegistry | None" = None
) -> list[Diagnostic]:
    """All constraint 1-5 diagnostics for ``term`` (empty list: well-formed)."""
    found: list[Diagnostic] = []
    _check_unique_binding(term, found)
    _check_structure(term, registry, found)
    return found


def _diag(
    found: list[Diagnostic],
    code: str,
    message: str,
    path: Path,
    subject,
    hint: str = "",
    **data,
) -> None:
    found.append(
        Diagnostic(
            code=code,
            severity=Severity.ERROR,
            message=message,
            path=format_path(path),
            subject=subject,
            hint=hint,
            data={"constraint": CONSTRAINT_OF_CODE[code], **data},
        )
    )


# ---------------------------------------------------------------------------
# Constraint 4 — unique binding
# ---------------------------------------------------------------------------


def _check_unique_binding(term: Term, found: list[Diagnostic]) -> None:
    seen: dict[Name, Path] = {}
    stack: list[tuple[Term, Path]] = [(term, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, Abs):
            for param in node.params:
                first = seen.get(param)
                if first is not None:
                    _diag(
                        found,
                        "TML001",
                        f"identifier {param} bound more than once "
                        f"(first binding at {format_path(first)})",
                        path,
                        param,
                        hint="alpha-rename the copy with a fresh NameSupply "
                        "(repro.core.substitution.alpha_rename)",
                    )
                else:
                    seen[param] = path
            stack.append((node.body, path + ("body",)))
        elif isinstance(node, App):
            stack.append((node.fn, path + ("fn",)))
            for index, arg in enumerate(node.args):
                stack.append((arg, path + (("args", index),)))
        elif isinstance(node, PrimApp):
            for index, arg in enumerate(node.args):
                stack.append((arg, path + (("args", index),)))


# ---------------------------------------------------------------------------
# Constraints 1, 2, 3, 5 — one context-aware walk
# ---------------------------------------------------------------------------


def _is_cont_value(node: Term) -> bool:
    """Continuation-sorted variable or continuation abstraction."""
    if isinstance(node, Var):
        return node.name.is_cont
    if isinstance(node, Abs):
        return node.is_cont_abs
    return False


def _check_structure(term, registry, found: list[Diagnostic]) -> None:
    stack: list[tuple[Term, str, Path]] = [(term, _CTX_ROOT, ())]
    while stack:
        node, ctx, path = stack.pop()

        if isinstance(node, Var):
            if node.name.is_cont and ctx == _CTX_VALUE_ARG:
                _diag(
                    found,
                    "TML003",
                    f"continuation variable {node.name} escapes into a "
                    "value position",
                    path,
                    node,
                    hint="continuations are second-class (constraint 3): pass "
                    "them only where a continuation is expected",
                )
        elif isinstance(node, Abs):
            _check_abs_shape(node, ctx, path, found)
            body_ctx = _CTX_Y_BODY if ctx == _CTX_Y_FN else _CTX_BODY
            stack.append((node.body, body_ctx, path + ("body",)))
        elif isinstance(node, App):
            if isinstance(node.fn, Abs) and node.fn.arity != len(node.args):
                _diag(
                    found,
                    "TML002",
                    f"direct application of a {node.fn.arity}-ary abstraction "
                    f"to {len(node.args)} arguments",
                    path,
                    node,
                    hint="supply one argument per parameter; the front end "
                    "guarantees this for typed calls",
                )
            stack.append((node.fn, _CTX_FN, path + ("fn",)))
            for index, arg in enumerate(node.args):
                # For a user application the callee's signature is unknown at
                # the IR level (the typed front end guarantees it); we accept
                # continuation values in any argument position but still
                # require continuation *suffix* discipline below.
                ctx_arg = _CTX_CONT_ARG if _is_cont_value(arg) else _CTX_VALUE_ARG
                stack.append((arg, ctx_arg, path + (("args", index),)))
            if ctx != _CTX_Y_BODY:
                _check_cont_suffix(node.args, path, found)
        elif isinstance(node, PrimApp):
            cont_positions = _prim_cont_positions(node, registry, path, found)
            for index, arg in enumerate(node.args):
                if cont_positions is None:
                    ctx_arg = _CTX_CONT_ARG if _is_cont_value(arg) else _CTX_VALUE_ARG
                elif index in cont_positions:
                    ctx_arg = _CTX_CONT_ARG
                    if not _is_cont_value(arg) and not isinstance(arg, Var):
                        _diag(
                            found,
                            "TML006",
                            f"primitive {node.prim!r} expects a continuation "
                            f"at argument {index}",
                            path,
                            node,
                            hint="pass a continuation abstraction or a "
                            "continuation-sorted variable",
                            prim=node.prim,
                        )
                else:
                    ctx_arg = _CTX_VALUE_ARG
                if node.prim == Y_PRIM and index == 0:
                    ctx_arg = _CTX_Y_FN
                stack.append((arg, ctx_arg, path + (("args", index),)))
        elif isinstance(node, Lit):
            pass
        else:  # pragma: no cover - defensive
            _diag(found, "TML010", f"foreign object in tree: {node!r}", path, node)


def _check_abs_shape(node: Abs, ctx: str, path: Path, found: list[Diagnostic]) -> None:
    """Constraint 5 (proc shape); cont params may not be stored (constraint 3)."""
    cont_params = node.cont_params
    if not cont_params:
        return  # a continuation abstraction; any value parameters are fine

    if ctx == _CTX_Y_FN:
        # λ(c0 v1..vn c): leading and trailing continuation params.
        if not (node.params[0].is_cont and node.params[-1].is_cont):
            _diag(
                found,
                "TML009",
                "Y fixpoint function must have shape λ(c0 v1..vn c)",
                path,
                node,
                hint="first and last parameters must be continuation-sorted",
            )
        # The middle parameters v1..vn name the recursive bindings; the Y
        # combinator binds "procedures and/or continuations" (section 2.3) —
        # a while-loop binds a nullary continuation, for example — so any
        # sort is legal there.
        return

    # Constraint 5 restricts abstractions *used as values* ("not as
    # continuations and not in functional position of applications"): those
    # must take exactly two continuation parameters, exception then normal,
    # as the parameter-list suffix.  A λ in functional position of a direct
    # application may bind any mix (e.g. binding a handler continuation).
    exempt = ctx in (_CTX_FN, _CTX_BODY, _CTX_ROOT)
    if len(cont_params) != 2 and not exempt:
        _diag(
            found,
            "TML007",
            f"procedure abstraction takes {len(cont_params)} continuation "
            "parameters; exactly 2 (exception, normal) are required",
            path,
            node,
            hint="value procedures end in (ce cc): exception continuation, "
            "then normal continuation",
        )
    if not exempt and any(
        p.is_cont for p in node.params[: len(node.params) - len(cont_params)]
    ):
        _diag(
            found,
            "TML008",
            "continuation parameters must form the suffix of a procedure's "
            "parameter list",
            path,
            node,
            hint="move the continuation parameters to the end of the "
            "parameter list",
        )


def _check_cont_suffix(args, path: Path, found: list[Diagnostic]) -> None:
    """Continuation arguments of a user application must be a suffix.

    This is the tree-level shadow of constraint 1: the typed front end
    arranges calls as ``(f v1..vn ce cc)``.  A value argument following a
    continuation argument indicates a mangled call.
    """
    seen_cont = False
    for index, arg in enumerate(args):
        if _is_cont_value(arg):
            seen_cont = True
        elif seen_cont and not isinstance(arg, Var):
            # Abs values after a continuation are definitely mangled; plain
            # value vars after a cont var cannot occur for sorted names, and
            # literals cannot be continuations.
            kind = "literal" if isinstance(arg, Lit) else "value"
            _diag(
                found,
                "TML004",
                f"{kind} argument follows a continuation argument in an "
                "application",
                path + (("args", index),),
                arg,
                hint="reorder the call so continuations form the suffix "
                "(f v1..vn ce cc)",
            )


def _prim_cont_positions(node: PrimApp, registry, path: Path, found):
    """Return the set of continuation argument indices for this primitive call.

    ``None`` when no registry is supplied (positions unknown).  Also emits
    constraint-2 signature diagnostics.
    """
    if registry is None:
        return None
    try:
        prim = registry.lookup(node.prim)
    except KeyError:
        _diag(
            found,
            "TML005",
            f"unknown primitive {node.prim!r}",
            path,
            node,
            hint="register the primitive, or analyze against the registry "
            "the term was built for (e.g. query_registry())",
            prim=node.prim,
        )
        return None
    sig = prim.signature
    if not sig.accepts_arity(len(node.args)):
        _diag(
            found,
            "TML006",
            f"primitive {node.prim!r} called with {len(node.args)} arguments; "
            f"signature is {sig.describe()}",
            path,
            node,
            prim=node.prim,
        )
        return None
    return sig.cont_positions(len(node.args))
