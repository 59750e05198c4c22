"""Algebraic simplification of IR expressions.

The transformations build expressions mechanically (`0 + (c // 1) * 1`,
`min(x, x)` …); this pass folds them so generated C and Python read like
hand-written code. Rules are conservative — integer-exact identities only:

* constant folding of ``+ - * // %`` on integer literals (and ``+ - *`` on
  float literals),
* additive/multiplicative identities (``x+0``, ``x-0``, ``x*1``, ``x*0``,
  ``x//1``, ``0//x``, ``x%1``),
* ``min(x, x) → x`` / ``max(x, x) → x`` and constant min/max,
* recursion through statements (bounds, steps, subscripts, bodies).

The rules run in one bottom-up pass over the tree (see :func:`simplify`
for why that single pass is already a fixpoint).

``x/x``, ``x-x`` etc. are *not* folded (no aliasing analysis needed here,
and the transformations never produce them).
"""

from __future__ import annotations

from repro.ir.nodes import (
    BinOp,
    Expr,
    FloatLit,
    IntLit,
    Max,
    Min,
    Node,
)
from repro.ir.visitors import transform

__all__ = ["simplify", "simplify_expr"]


def _fold_binop(node: BinOp) -> Expr | None:
    lhs, rhs = node.lhs, node.rhs
    op = node.op

    if isinstance(lhs, IntLit) and isinstance(rhs, IntLit):
        a, b = lhs.value, rhs.value
        if op == "+":
            return IntLit(a + b)
        if op == "-":
            return IntLit(a - b)
        if op == "*":
            return IntLit(a * b)
        if op == "//" and b != 0:
            return IntLit(a // b) if a >= 0 and b > 0 else None
        if op == "%" and b != 0:
            return IntLit(a % b) if a >= 0 and b > 0 else None
        return None

    if isinstance(lhs, FloatLit) and isinstance(rhs, FloatLit):
        a, b = lhs.value, rhs.value
        if op == "+":
            return FloatLit(a + b)
        if op == "-":
            return FloatLit(a - b)
        if op == "*":
            return FloatLit(a * b)
        return None

    # identities with an integer-literal operand
    if op == "+":
        if isinstance(rhs, IntLit) and rhs.value == 0:
            return lhs
        if isinstance(lhs, IntLit) and lhs.value == 0:
            return rhs
    elif op == "-":
        if isinstance(rhs, IntLit) and rhs.value == 0:
            return lhs
    elif op == "*":
        if isinstance(rhs, IntLit):
            if rhs.value == 1:
                return lhs
            if rhs.value == 0:
                return IntLit(0)
        if isinstance(lhs, IntLit):
            if lhs.value == 1:
                return rhs
            if lhs.value == 0:
                return IntLit(0)
    elif op == "//":
        if isinstance(rhs, IntLit) and rhs.value == 1:
            return lhs
        if isinstance(lhs, IntLit) and lhs.value == 0:
            return IntLit(0)
    elif op == "%":
        if isinstance(rhs, IntLit) and rhs.value == 1:
            return IntLit(0)
    return None


def _rule(node: Node) -> Node | None:
    if isinstance(node, BinOp):
        return _fold_binop(node)
    if isinstance(node, (Min, Max)):
        if node.lhs == node.rhs:
            return node.lhs
        if isinstance(node.lhs, IntLit) and isinstance(node.rhs, IntLit):
            pick = min if isinstance(node, Min) else max
            return IntLit(pick(node.lhs.value, node.rhs.value))
    return None


def simplify(node: Node) -> Node:
    """Simplify every expression in the subtree (statements included).

    One bottom-up pass reaches the fixpoint: a rule sees children that are
    already simplified, and it returns either one of them or a fresh
    literal, so nothing it produces can be simplified further.  A subtree
    with nothing to fold is returned as the same object, so
    ``simplify(simplify(x)) is simplify(x)``.
    """
    return transform(node, _rule)


def simplify_expr(expr: Expr) -> Expr:
    out = simplify(expr)
    assert isinstance(out, Expr)
    return out
