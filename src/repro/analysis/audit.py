"""Whole-image audit: verify + abstractly interpret every stored code object.

``python -m repro audit IMAGE`` is the static-analysis counterpart of
``fsck``: where fsck proves the *storage* layer intact (headers, checksums,
reachability), audit proves the *code* layer coherent — every stored
function structurally verifies, abstract interpretation finds no guaranteed
trap sites, every frozen inter-module binding resolves, and each function's
bytecode-level effect stays within the effect its persistent TML admits.

Findings (beyond everything :func:`repro.analysis.verify_tam.verify_code`
and :mod:`repro.analysis.absint` already report):

========  =======  ==========================================================
TAM105    ERROR    code effect exceeds the effect inferred from its PTML
TAM110    WARNING  function unreachable from any module's export surface
TAM111    ERROR    external reference into a stored module lacking the member
TAM112    INFO     stale analysis fact dropped (dependency hash moved)
========  =======  ==========================================================

Every function passes the bytecode verifier on every audit.  The
interprocedural analysis is incremental: the summary of a valid record in
the persisted fact cache (:mod:`repro.analysis.facts`, root
``analysis:facts``) is reused for a function that verifies, so a warm audit
after a partial redefinition re-analyzes exactly the invalidated slice of
the call graph.  Freshly computed facts for *clean* functions are installed
back into the image and the records of functions with an error finding are
dropped (``update_facts=False`` or ``--no-update`` is read-only).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.absint import Summary, summarize_graph
from repro.analysis.callgraph import ImageGraph
from repro.analysis.diagnostics import Diagnostic, Severity, severity_counts
from repro.analysis.effects import EFFECT_RANK, infer_effect
from repro.analysis.facts import FactRecord, FactStore
from repro.analysis.verify_tam import verify_code
from repro.primitives.effects import EffectClass
from repro.store.ptml import decode_ptml
from repro.store.serialize import Blob

__all__ = ["AuditReport", "audit_image", "audit_heap"]


@dataclass
class AuditReport:
    """Everything one audit pass found."""

    modules: int = 0
    functions: int = 0
    #: functions freshly analyzed this pass
    analyzed: int = 0
    #: functions whose cached summaries were still valid (absint skipped)
    reused: int = 0
    #: stale fact records dropped before analysis (TAM112)
    pruned: tuple = ()
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: qualified -> Summary for every function in the image
    summaries: dict = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def counts(self) -> dict:
        return severity_counts(self.diagnostics)

    @property
    def errors(self) -> int:
        return self.counts.get("error", 0)

    @property
    def ok(self) -> bool:
        return self.errors == 0

    def as_dict(self) -> dict:
        return {
            "schema": "repro.audit/v1",
            "ok": self.ok,
            "modules": self.modules,
            "functions": self.functions,
            "analyzed": self.analyzed,
            "reused": self.reused,
            "pruned": list(self.pruned),
            "counts": self.counts,
            "findings": [
                {
                    "code": d.code,
                    "severity": d.severity.name.lower(),
                    "path": d.path,
                    "message": d.message,
                }
                for d in self.diagnostics
            ],
            "summaries": {
                q: summary.as_dict() for q, summary in sorted(self.summaries.items())
            },
            "wall_s": round(self.wall_s, 6),
        }


def audit_image(path: str, registry=None, update_facts: bool = True) -> AuditReport:
    """Audit the image file at ``path`` (commits fresh facts back into it)."""
    from repro.store.heap import ObjectHeap

    heap = ObjectHeap(path)
    report = audit_heap(heap, registry=registry, update_facts=update_facts)
    if update_facts:
        heap.commit()
    return report


def audit_heap(
    heap,
    registry=None,
    update_facts: bool = True,
    facts: FactStore | None = None,
) -> AuditReport:
    """Audit every stored code object reachable through ``module:*`` roots.

    With ``update_facts`` the freshly-computed facts of *clean* functions
    (no error findings) are installed into ``facts``, the records of the
    others are dropped, and the store is flushed to the heap; the caller
    owns the commit.  A shared :class:`FactStore` (e.g.
    the daemon's) may be passed in; otherwise a private one is attached.
    """
    start = time.perf_counter()
    report = AuditReport()
    if registry is None:
        from repro.primitives.registry import default_registry

        registry = default_registry()

    if facts is None:
        facts = FactStore()
        facts.attach(heap)

    graph = ImageGraph.from_heap(heap)
    current = graph.current_hashes()
    report.modules = len(graph.exports)
    report.functions = len(graph.nodes)

    # ---- stale facts out first (TAM112), then seed from the valid rest
    report.pruned = tuple(sorted(set(facts.prune(current))))
    for name in report.pruned:
        report.diagnostics.append(Diagnostic(
            code="TAM112",
            severity=Severity.INFO,
            message="stale analysis fact dropped: a dependency's PTML moved",
            subject=name,
        ))

    # ---- the verifier gate, on every function: a record is keyed by a
    # hash that does not cover bytecode, so it cannot vouch for it
    clean: set[str] = set()
    for qualified, node in sorted(graph.nodes.items()):
        found = verify_code(node.code, name=qualified)
        report.diagnostics.extend(found)
        if not found:
            clean.add(qualified)

    seeded: dict[str, Summary] = {}
    for qualified in clean:
        node = graph.nodes[qualified]
        if node.ptml_hash is None:
            continue
        record = facts.lookup(node.ptml_hash, current)
        if record is not None and record.summary is not None:
            seeded[qualified] = record.summary
            report.summaries[qualified] = record.summary
    report.reused = len(seeded)

    # ---- broken frozen bindings (TAM111) — linking these functions fails
    for qualified, free_name, target in sorted(graph.broken):
        report.diagnostics.append(Diagnostic(
            code="TAM111",
            severity=Severity.ERROR,
            message=(
                f"external reference {free_name!r} resolves to {target!r}, "
                "which the stored target module does not define"
            ),
            subject=qualified,
        ))

    # ---- interprocedural abstract interpretation over the rest
    analyses = summarize_graph(graph, registry=registry, seeded=seeded)
    report.analyzed = len(analyses)
    for qualified, fa in sorted(analyses.items()):
        report.summaries[qualified] = fa.summary
        report.diagnostics.extend(fa.diagnostics)
        if any(d.severity is Severity.ERROR for d in fa.diagnostics):
            clean.discard(qualified)

    # ---- effect-class conformance (TAM105): code effect <= PTML effect
    for qualified, fa in sorted(analyses.items()):
        node = graph.nodes[qualified]
        term_effect = _ptml_effect(heap, node.code, registry)
        if term_effect is None:
            continue
        code_effect = EffectClass(fa.summary.effect)
        if EFFECT_RANK[code_effect] > EFFECT_RANK[term_effect]:
            clean.discard(qualified)
            report.diagnostics.append(Diagnostic(
                code="TAM105",
                severity=Severity.ERROR,
                message=(
                    f"stored code has effect class {code_effect.value!r} but "
                    f"its persistent TML admits at most {term_effect.value!r}: "
                    "the code does not implement its own source"
                ),
                subject=qualified,
                data={"code": code_effect.value, "term": term_effect.value},
            ))

    # ---- reachability from the export surface (TAM110)
    reachable = graph.reachable_from_exports()
    for qualified in sorted(set(graph.nodes) - reachable):
        report.diagnostics.append(Diagnostic(
            code="TAM110",
            severity=Severity.WARNING,
            message=(
                "stored function is unreachable from every module's export "
                "surface: dead code in the image"
            ),
            subject=qualified,
        ))

    # ---- install fresh facts for clean functions, drop the rest, flush
    if update_facts:
        for qualified, node in graph.nodes.items():
            if node.ptml_hash is not None and qualified not in clean:
                facts.invalidate(node.ptml_hash)
        transitive = _transitive_deps(graph)
        for qualified, fa in analyses.items():
            node = graph.nodes[qualified]
            if node.ptml_hash is None or qualified not in clean:
                continue
            deps = tuple(
                (dep, current.get(dep))
                for dep in sorted(transitive.get(qualified, ()))
                if dep != qualified
            )
            facts.install(FactRecord(
                key=node.ptml_hash,
                name=qualified,
                summary=fa.summary,
                deps=deps,
            ))
        facts.flush(heap)

    report.wall_s = time.perf_counter() - start
    return report


def _ptml_effect(heap, code, registry) -> EffectClass | None:
    """Effect class admitted by a code object's persistent TML, if loadable."""
    ref = code.ptml_ref
    if ref is None:
        return None
    if not isinstance(ref, Blob):
        try:
            ref = heap.load(ref)
        except Exception:
            return None
        if not isinstance(ref, Blob):
            return None
    try:
        decoded = decode_ptml(ref)
        return infer_effect(decoded.term, registry)
    except Exception:
        return None


def _transitive_deps(graph: ImageGraph) -> dict[str, set[str]]:
    """qualified -> every function its summary may depend on (transitively)."""
    # plain fixpoint: correct through cycles, and image graphs are small
    closure: dict[str, set[str]] = {
        q: set(graph.edges.get(q, ())) for q in graph.nodes
    }
    changed = True
    while changed:
        changed = False
        for q, deps in closure.items():
            grown = set(deps)
            for callee in graph.edges.get(q, ()):
                grown |= closure.get(callee, set())
            if grown != deps:
                closure[q] = grown
                changed = True
    return closure

