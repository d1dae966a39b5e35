"""Path-carrying traversal of TML terms, shared by the analyses here.

:func:`iter_with_paths` is a preorder traversal yielding ``(node, path)``
where ``path`` is the tuple of attribute steps from the root (the shape
:func:`repro.analysis.diagnostics.format_path` renders).  Like every core
traversal it is explicit-stack based: CPS chains are one application deep
per source statement and routinely exceed Python's recursion limit.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.syntax import Abs, App, PrimApp, Term

__all__ = ["Path", "iter_with_paths"]

#: A path is a tuple of steps: attribute names ("fn", "body") or
#: ("args", index) pairs; see diagnostics.format_path.
Path = tuple


def iter_with_paths(term: Term) -> Iterator[tuple[Term, Path]]:
    """Yield ``(node, path)`` for ``term`` and every subterm, preorder."""
    stack: list[tuple[Term, Path]] = [(term, ())]
    while stack:
        node, path = stack.pop()
        yield node, path
        if isinstance(node, Abs):
            stack.append((node.body, path + ("body",)))
        elif isinstance(node, App):
            for index in range(len(node.args) - 1, -1, -1):
                stack.append((node.args[index], path + (("args", index),)))
            stack.append((node.fn, path + ("fn",)))
        elif isinstance(node, PrimApp):
            for index in range(len(node.args) - 1, -1, -1):
                stack.append((node.args[index], path + (("args", index),)))
