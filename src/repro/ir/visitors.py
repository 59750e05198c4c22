"""Traversal and rewriting utilities over the immutable IR.

``walk`` yields every node; ``collect`` filters by type; ``transform``
rebuilds a tree bottom-up through a user callback; ``substitute`` replaces
variables by expressions.  ``loop_nest``/``perfect_nest`` expose the loop
structure the transformations operate on.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from operator import is_not

from repro.ir.nodes import (
    ArrayRef,
    Block,
    Expr,
    For,
    Node,
    Stmt,
    Var,
)

__all__ = [
    "walk",
    "collect",
    "transform",
    "substitute",
    "free_vars",
    "loop_nest",
    "perfect_nest",
    "loop_vars",
    "array_refs",
]


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of *node* and all descendants."""
    yield node
    for child in node.children():
        yield from walk(child)


def collect(node: Node, node_type: type | tuple[type, ...]) -> list[Node]:
    """All descendants (including *node*) of the given type(s), pre-order."""
    return [n for n in walk(node) if isinstance(n, node_type)]


def transform(node: Node, fn: Callable[[Node], Node | None]) -> Node:
    """Rebuild the tree bottom-up; *fn* may return a replacement for each
    node or ``None`` to keep it.  Children are transformed before parents,
    so *fn* sees already-rewritten subtrees.  A node none of whose
    children changed (by identity) is kept, not rebuilt."""
    children = node.children()
    new_children = [transform(child, fn) for child in children]
    if any(map(is_not, new_children, children)):
        node = node.with_children(new_children)
    replacement = fn(node)
    return node if replacement is None else replacement


def substitute(node: Node, mapping: dict[str, Expr]) -> Node:
    """Replace free occurrences of the named scalar variables.

    Loop index shadowing is respected: a substitution for ``i`` does not
    descend into a loop that re-binds ``i``.
    """
    if not mapping:
        return node
    if isinstance(node, Var) and node.name in mapping:
        return mapping[node.name]
    if isinstance(node, For) and node.var in mapping:
        inner = {k: v for k, v in mapping.items() if k != node.var}
        lower = substitute(node.lower, mapping)
        upper = substitute(node.upper, mapping)
        step = substitute(node.step, mapping)
        body = substitute(node.body, inner)
        return node.with_children([lower, upper, step, body])  # type: ignore[list-item]
    children = node.children()
    new_children = [substitute(child, mapping) for child in children]
    if any(map(is_not, new_children, children)):
        node = node.with_children(new_children)
    return node


def free_vars(node: Node) -> set[str]:
    """Names of scalar variables read in *node* that are not bound by an
    enclosing loop within *node*."""
    out: set[str] = set()

    def go(n: Node, bound: frozenset[str]) -> None:
        if isinstance(n, Var):
            if n.name not in bound:
                out.add(n.name)
            return
        if isinstance(n, For):
            go(n.lower, bound)
            go(n.upper, bound)
            go(n.step, bound)
            go(n.body, bound | {n.var})
            return
        for child in n.children():
            go(child, bound)

    go(node, frozenset())
    return out


def loop_nest(stmt: Stmt) -> list[For]:
    """The chain of loops starting at *stmt*, descending through bodies that
    contain exactly one statement.  Stops at the first non-loop or at a body
    with multiple statements (imperfect nesting boundary)."""
    nest: list[For] = []
    node: Node = stmt
    while isinstance(node, For):
        nest.append(node)
        body = node.body
        if isinstance(body, Block) and len(body.stmts) == 1:
            node = body.stmts[0]
        else:
            break
    return nest


def perfect_nest(stmt: Stmt) -> tuple[list[For], Stmt]:
    """Like :func:`loop_nest` but also returns the innermost body statement
    (the computation inside the perfect nest)."""
    nest = loop_nest(stmt)
    if not nest:
        return [], stmt
    inner = nest[-1].body
    if isinstance(inner, Block) and len(inner.stmts) == 1:
        inner = inner.stmts[0]
    return nest, inner


def loop_vars(stmt: Stmt) -> list[str]:
    return [loop.var for loop in loop_nest(stmt)]


def array_refs(node: Node) -> list[ArrayRef]:
    """All array references in the subtree, pre-order (reads and writes)."""
    return collect(node, ArrayRef)  # type: ignore[return-value]
