"""TAM bytecode verifier: abstract interpretation over :mod:`repro.machine.isa`.

Stored code outlives the compiler that produced it (the central risk of a
persistent code representation), so the linker verifies every code object
before it is persisted, loaded or executed.  Three phases per code object,
applied recursively to nested codes, then one over the whole family:

1. **structural** — every instruction is a row of :data:`repro.machine.isa.OPS`
   with the right operand count and kinds; register / constant-pool /
   nested-code / jump operands are in range; closure capture plans match the
   child code's free slot count (``TAM001`` – ``TAM008``, ``TAM011``);
2. **control** — execution cannot fall off the end of the instruction
   stream: every path ends in a control transfer (``TAM009``); and the
   control flow is a tree: every jump goes forward and no pc is entered by
   more than one edge (``TAM012``), which is what lets
   :mod:`repro.machine.tier` compile a code object to one Python function
   with an instruction count that is a constant of each path;
3. **dataflow** — forward definite-assignment analysis over the CFG: a
   register read must be dominated by a definition (parameters define the
   leading registers; the exception edges of arithmetic, ``ccall`` and
   ``extcall`` define their error register on the branch target).  Reads of
   possibly-undefined registers are ``TAM010``;
4. **handler depth** — on structurally sound code the abstract interpreter
   (:func:`repro.analysis.absint.handler_diagnostics`) tracks the handler
   stack depth per path across the whole family, continuations
   materialized into their own closures included, and reports a
   ``popHandler`` provably reachable at depth <= 0 as ``TAM020`` at WARNING
   severity.

The verifier accepts exactly what :mod:`repro.machine.codegen` emits and what
the compiled tier executes; the property suite pins both directions.
"""

from __future__ import annotations

from functools import lru_cache

from repro.analysis.absint import handler_diagnostics
from repro.analysis.diagnostics import (
    AnalysisError,
    Diagnostic,
    Severity,
)
from repro.machine.isa import OPS, CodeObject

__all__ = ["verify_code", "assert_verified", "code_errors", "TamVerificationError"]


class TamVerificationError(AnalysisError):
    """A code object failed bytecode verification."""


def assert_verified(root: CodeObject, name: str | None = None) -> CodeObject:
    """Verify ``root`` (and nested codes); raise on any error diagnostic."""
    found = verify_code(root, name=name)
    errors = [d for d in found if d.is_error]
    if errors:
        raise TamVerificationError(errors, context=name or root.name)
    return root


def verify_code(root: CodeObject, name: str | None = None) -> list[Diagnostic]:
    """All verifier diagnostics for ``root`` and its nested code objects."""
    found: list[Diagnostic] = []
    _verify_one(root, name or root.name, found)
    if not any(d.is_error for d in found):
        # handler-depth discipline (TAM020) is a *family-level* property:
        # a continuation materialized into its own code object legitimately
        # pops a handler its parent pushed, so per-code-object counting
        # cannot be precise.  The abstract interpreter tracks depth across
        # closure creation and continuation invocation and reports only
        # provable underflows (structurally-broken code is skipped — the
        # errors above already gate linking).
        found.extend(handler_diagnostics(root, name or root.name))
    return found


def code_errors(code: CodeObject, path: str | None = None) -> list[Diagnostic]:
    """The errors of ``code`` itself, not of its nested codes: metadata and
    structure, then — on structurally sound code — control flow and dataflow.
    The compiled tier runs exactly the code objects this passes."""
    path = path or code.name
    found: list[Diagnostic] = []
    _check_metadata(code, path, found)
    if _check_instructions(code, path, found) and not found:
        _check_dataflow(code, path, found)
    return found


def _verify_one(code: CodeObject, path: str, found: list[Diagnostic]) -> None:
    found.extend(code_errors(code, path))
    for index, nested in enumerate(code.codes):
        _verify_one(nested, f"{path}.codes[{index}]", found)


def _err(
    found: list[Diagnostic],
    code: str,
    message: str,
    path: str,
    pc: int | None = None,
    severity: Severity = Severity.ERROR,
    **data,
) -> None:
    where = path if pc is None else f"{path}.instrs[{pc}]"
    if pc is not None:
        data.setdefault("pc", pc)
    found.append(
        Diagnostic(
            code=code, severity=severity, message=message, path=where, data=data
        )
    )


def _check_metadata(code: CodeObject, path: str, found: list[Diagnostic]) -> None:
    if code.nregs < len(code.params):
        _err(
            found,
            "TAM011",
            f"{code.nregs} registers cannot hold {len(code.params)} parameters",
            path,
        )
    if not code.instrs:
        _err(found, "TAM009", "empty instruction stream", path)


class _Site:
    """The instruction the structural phase is looking at."""

    __slots__ = ("code", "path", "found", "pc", "instr", "row")

    def __init__(self, code: CodeObject, path: str, found: list[Diagnostic]):
        self.code = code
        self.path = path
        self.found = found

    def err(self, code: str, message: str) -> bool:
        op = self.instr[0]
        _err(self.found, code, f"opcode {op!r}: {message}", self.path, self.pc, op=op)
        return False

    def sibling(self, kind: str):
        """The operand of this instruction that has kind ``kind``."""
        return self.instr[1 + self.row.operands.index(kind)]


def _check_instructions(code: CodeObject, path: str, found: list[Diagnostic]) -> bool:
    """Structural phase; returns False when later phases would be unsafe."""
    ok = True
    site = _Site(code, path, found)
    for pc, instr in enumerate(code.instrs):
        if not isinstance(instr, tuple) or not instr:
            _err(found, "TAM001", f"not an instruction tuple: {instr!r}", path, pc)
            ok = False
            continue
        op = instr[0]
        row = OPS.get(op)
        if row is None:
            _err(found, "TAM001", f"unknown opcode {op!r}", path, pc, op=str(op))
            ok = False
            continue
        site.pc, site.instr, site.row = pc, instr, row
        if len(instr) - 1 != len(row.operands):
            _err(
                found,
                "TAM002",
                f"opcode {op!r} takes {len(row.operands)} operand(s), "
                f"got {len(instr) - 1}",
                path,
                pc,
                op=op,
            )
            ok = False
            continue
        for position, kind in enumerate(row.operands):
            if not _KINDS[kind][0](site, instr[1 + position], position):
                ok = False
    return ok


# ---------------------------------------------------------------------------
# operand kinds: each checker is ``(site, operand, what) -> bool`` where
# ``what`` names the operand in a message — its position, or its role inside
# a compound operand
# ---------------------------------------------------------------------------


def _reg(site: _Site, value, what) -> bool:
    if type(value) is not int:
        if type(what) is int:
            what = f"operand {what}"
        return site.err("TAM003", f"{what} must be a register index, got {value!r}")
    if not 0 <= value < site.code.nregs:
        return site.err(
            "TAM004", f"register {value} out of range (nregs={site.code.nregs})"
        )
    return True


def _pc(site: _Site, value, _what) -> bool:
    if type(value) is not int:
        return site.err("TAM003", f"jump target must be an int, got {value!r}")
    if not 0 <= value < len(site.code.instrs):
        return site.err(
            "TAM007",
            f"jump target {value} out of range "
            f"({len(site.code.instrs)} instruction(s))",
        )
    return True


def _index(diagnostic: str, what: str, pool: str, unit: str):
    """An index into one of the code object's tables."""

    def check(site: _Site, value, _what) -> bool:
        size = len(getattr(site.code, pool))
        if type(value) is not int or not 0 <= value < size:
            return site.err(
                diagnostic, f"{what} {value!r} out of range ({size} {unit}(s))"
            )
        return True

    return check


_code_index = _index("TAM006", "nested-code index", "codes", "nested code")


def _tuple_of(check, noun: str):
    def check_all(site: _Site, value, position) -> bool:
        if not isinstance(value, tuple):
            return site.err("TAM003", f"operand {position} must be a {noun} tuple")
        return all(check(site, item, "tuple element") for item in value)

    return check_all


_registers = _tuple_of(_reg, "register")
_pcs = _tuple_of(_pc, "pc")


def _branch_targets(site: _Site, value, position) -> bool:
    """``pcs``: one target per tag register — the VM pairs them with ``zip``,
    which would silently drop the unmatched ones."""
    if not _pcs(site, value, position):
        return False
    tags = site.sibling("rs")
    if isinstance(tags, tuple) and len(tags) != len(value):
        return site.err(
            "TAM002", f"{len(tags)} tag register(s) but {len(value)} branch target(s)"
        )
    return True


def _optional_pc(site: _Site, value, position) -> bool:
    return value is None or _pc(site, value, position)


def _error_reg(site: _Site, value, position) -> bool:
    """``ew?``: a register whenever the ``pc?`` edge that writes it exists."""
    if value is None and site.sibling("pc?") is None:
        return True
    return _reg(site, value, position)


def _plan(site: _Site, plan, child_index) -> bool:
    """A capture plan: ((kind, index), ...) matching the child's free slots."""
    if not isinstance(plan, tuple):
        return site.err("TAM003", "capture plan must be a tuple")
    code = site.code
    child = code.codes[child_index]
    if len(plan) != len(child.free_names):
        return site.err(
            "TAM008",
            f"capture plan has {len(plan)} entries; child "
            f"{child.name!r} has {len(child.free_names)} free slot(s)",
        )
    ok = True
    for entry in plan:
        if (
            not isinstance(entry, tuple)
            or len(entry) != 2
            or entry[0] not in ("r", "f")
        ):
            ok = site.err("TAM008", f"malformed capture-plan entry {entry!r}")
            continue
        kind, index = entry
        if kind == "r":
            ok = _reg(site, index, "capture source") and ok
        elif type(index) is not int or not 0 <= index < len(code.free_names):
            ok = site.err(
                "TAM008",
                f"capture plan reads free slot {index!r}; this "
                f"code has {len(code.free_names)} free slot(s)",
            )
    return ok


def _closure_plan(site: _Site, plan, _position) -> bool:
    child_index = site.sibling("k")
    if type(child_index) is not int or not 0 <= child_index < len(site.code.codes):
        return False  # already reported by the k operand
    return _plan(site, plan, child_index)


def _group(site: _Site, group, _position) -> bool:
    if not isinstance(group, tuple) or not group:
        return site.err("TAM003", "group must be a non-empty tuple")
    ok = True
    for descriptor in group:
        if not isinstance(descriptor, tuple) or len(descriptor) != 3:
            ok = site.err("TAM003", f"malformed group descriptor {descriptor!r}")
            continue
        dst, child_index, plan = descriptor
        ok = _reg(site, dst, "fix target") and ok
        ok = _code_index(site, child_index, None) and _plan(site, plan, child_index) and ok
    return ok


def _name(site: _Site, value, _position) -> bool:
    if not isinstance(value, str) or not value:
        return site.err("TAM003", "extension name must be a non-empty string")
    return True


#: operand kind -> (checker, flow role).  The role says which set of
#: :func:`_instr_flow` the registers or pcs the operand names land in:
#: ``def`` written on the fall-through path, ``use`` read, ``edge`` a branch
#: target, ``edge-def`` written on the branch edges only; a ``plan`` uses the
#: registers it captures, a ``group`` defines then uses; None names neither
#: a register nor a pc.
_KINDS = {
    "w": (_reg, "def"),
    "r": (_reg, "use"),
    "rs": (_registers, "use"),
    "c": (_index("TAM005", "constant index", "consts", "constant"), None),
    "k": (_code_index, None),
    "f": (_index("TAM004", "free slot", "free_names", "free slot"), None),
    "plan": (_closure_plan, "plan"),
    "group": (_group, "group"),
    "pc": (_pc, "edge"),
    "pcs": (_branch_targets, "edge"),
    "pc?": (_optional_pc, "edge"),
    "ew": (_reg, "edge-def"),
    "ew?": (_error_reg, "edge-def"),
    "name": (_name, None),
}


# ---------------------------------------------------------------------------
# control flow + definite assignment
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _roles(operands: tuple[str, ...]) -> tuple[tuple[int, str], ...]:
    """``(position in the instruction, flow role)`` of the operands of a row
    that have a role."""
    return tuple(
        (position, _KINDS[kind][1])
        for position, kind in enumerate(operands, start=1)
        if _KINDS[kind][1] is not None
    )


def _plan_reads(plan) -> list[int]:
    return [index for source, index in plan if source == "r"]


def _instr_flow(instr: tuple) -> tuple[set, set, list, bool]:
    """``(uses, fallthrough_defs, branch_edges, falls_through)`` for one instr.

    ``branch_edges`` is a list of ``(target_pc, defs_on_edge)``.
    """
    row = OPS[instr[0]]
    # edges are a list: two to the same pc are a join (``TAM012``)
    flow = {"use": set(), "def": set(), "edge": [], "edge-def": set()}
    for position, role in _roles(row.operands):
        operand = instr[position]
        if role == "edge" and operand is not None:
            flow[role] += operand if type(operand) is tuple else (operand,)
        elif type(operand) is int:
            flow[role].add(operand)
        elif role == "plan":
            flow["use"].update(_plan_reads(operand))
        elif role == "group":
            defs = flow["def"]
            defs.update(dst for dst, _k, _plan in operand)
            # plan registers are read after all group targets are assigned,
            # so self-references are fine: the targets are defined first
            flow["use"].update(
                reg for _dst, _k, plan in operand for reg in _plan_reads(plan)
                if reg not in defs
            )
        elif operand is not None:  # a tuple; None is an absent pc? / ew?
            flow[role].update(operand)
    edge_defs = frozenset(flow["edge-def"])
    branches = [(target, edge_defs) for target in flow["edge"]]
    return flow["use"], flow["def"], branches, not row.terminal


def _check_tree(flows: list, path: str, found: list[Diagnostic]) -> None:
    """``TAM012`` for each backward jump and each pc entered by more than one
    edge: :mod:`repro.machine.codegen` gives every jump its own forward label
    and emits the block it names after the code that jumps there."""
    entered = [0] * (len(flows) + 1)
    for pc, (_uses, _defs, branches, falls_through) in enumerate(flows):
        for target, _edge_defs in branches:
            if target <= pc:
                _err(found, "TAM012", f"backward jump to pc {target}", path, pc, target=target)
            entered[target] += 1
        entered[pc + 1] += falls_through
    for pc, edges in enumerate(entered[:-1]):
        if edges > 1:
            _err(found, "TAM012", f"{edges} edges enter pc {pc}: control flow joins", path, pc)


def _check_dataflow(code: CodeObject, path: str, found: list[Diagnostic]) -> None:
    limit = len(code.instrs)
    flows = [_instr_flow(instr) for instr in code.instrs]
    _check_tree(flows, path, found)

    # forward definite-assignment: IN[pc] = intersection over predecessors
    entry = frozenset(range(len(code.params)))
    defined_in: list[frozenset | None] = [None] * limit
    defined_in[0] = entry
    worklist = [0]
    while worklist:
        pc = worklist.pop()
        current = defined_in[pc]
        _uses, defs, branches, falls_through = flows[pc]
        # the regular destination register is written on the fallthrough path
        # only; exception edges carry just their own error-register def
        targets = [(target, current | edge_defs) for target, edge_defs in branches]
        if falls_through and pc + 1 < limit:
            targets.append((pc + 1, current | defs))
        for target, reaching in targets:
            existing = defined_in[target]
            updated = reaching if existing is None else existing & reaching
            if updated != existing:
                defined_in[target] = updated
                worklist.append(target)

    for pc, (uses, _defs, _branches, falls_through) in enumerate(flows):
        reached = defined_in[pc]
        if reached is None:
            continue  # unreachable; nothing to prove
        if falls_through and pc + 1 == limit:
            _err(
                found,
                "TAM009",
                f"control falls off the end after {code.instrs[pc][0]!r}",
                path,
                pc,
            )
        undefined = sorted(uses - reached)
        if undefined:
            _err(
                found,
                "TAM010",
                f"opcode {code.instrs[pc][0]!r} reads register(s) "
                f"{undefined} before any definition reaches them",
                path,
                pc,
                registers=tuple(undefined),
            )
