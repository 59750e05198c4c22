"""Tests for the IR simplifier."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import extract_regions
from repro.backend.cgen import function_to_c
from repro.driver import TuningDriver
from repro.frontend import get_kernel
from repro.ir.builder import assign, c, loop, var
from repro.ir.interp import eval_expr, run_function
from repro.ir.nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Block,
    Call,
    FloatLit,
    For,
    IntLit,
    Max,
    Min,
    UnOp,
    Var,
)
from repro.ir.printer import expr_to_source
from repro.ir.simplify import simplify, simplify_expr
from repro.ir.visitors import walk
from repro.transform import collapse, default_skeleton, tile
from tests import oracles


class TestRules:
    def test_constant_folding(self):
        assert simplify_expr(c(2) + c(3)) == IntLit(5)
        assert simplify_expr(c(2) * c(3)) == IntLit(6)
        assert simplify_expr(c(7) - c(3)) == IntLit(4)
        assert simplify_expr(c(7) // c(2)) == IntLit(3)
        assert simplify_expr(c(7) % c(2)) == IntLit(1)

    def test_negative_int_division_not_folded(self):
        # C and Python disagree on negative division; leave it alone
        e = BinOp("//", IntLit(-7), IntLit(2))
        assert simplify_expr(e) == e

    def test_identities(self):
        x = var("x")
        assert simplify_expr(x + 0) == x
        assert simplify_expr(0 + x) == x
        assert simplify_expr(x - 0) == x
        assert simplify_expr(x * 1) == x
        assert simplify_expr(1 * x) == x
        assert simplify_expr(x * 0) == IntLit(0)
        assert simplify_expr(x // 1) == x
        assert simplify_expr(x % 1) == IntLit(0)

    def test_min_max(self):
        x = var("x")
        assert simplify_expr(Min(x, x)) == x
        assert simplify_expr(Max(x, x)) == x
        assert simplify_expr(Min(c(3), c(5))) == IntLit(3)
        assert simplify_expr(Max(c(3), c(5))) == IntLit(5)

    def test_nested_cascades(self):
        e = (c(0) + (var("c") // c(1)) * c(1)) + c(0)
        assert expr_to_source(simplify_expr(e)) == "c"

    def test_float_folding(self):
        e = BinOp("*", FloatLit(2.0), FloatLit(0.25))
        assert simplify_expr(e) == FloatLit(0.5)

    def test_non_foldable_untouched(self):
        e = var("x") + var("y")
        assert simplify_expr(e) == e


class TestSemanticsPreserved:
    @given(
        a=st.integers(min_value=0, max_value=50),
        b=st.integers(min_value=0, max_value=50),
        xv=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60)
    def test_property_value_preserved(self, a, b, xv):
        x = var("x")
        exprs = [
            (x + a) * b,
            (x * a + b) // max(1, b),
            Min(x + a, x * 2) + Max(c(a), c(b)),
            (x - 0) % max(1, a),
        ]
        env = {"x": xv}
        for e in exprs:
            assert eval_expr(simplify_expr(e), env, {}) == eval_expr(e, env, {})

    def test_simplified_tiled_collapsed_mm_executes_correctly(self, rng):
        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        nest = collapse(tile(region.nest, {"i": 4, "j": 5, "k": 3}), 2)
        from repro.transform import replace_at_path

        fn = replace_at_path(k.function, region.path, nest)
        simplified = simplify(fn)
        inputs = k.make_inputs({"N": 13}, rng)
        out = run_function(simplified, inputs, {"N": 13})  # type: ignore[arg-type]
        ref = k.reference(inputs, {"N": 13})
        assert np.allclose(out["C"], ref["C"])


class TestBackendIntegration:
    def test_generated_c_is_clean(self):
        from repro.backend import function_to_c

        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        sk = default_skeleton(region, {"N": 100}, 8)
        fn = sk.instantiate(
            {"tile_i": 10, "tile_j": 10, "tile_k": 10, "threads": 4}
        ).apply()
        import re

        src = function_to_c(fn)
        assert not re.search(r"\* 1\b", src)
        assert not re.search(r"\+ 0\b", src)
        assert not re.search(r"/ 1\b", src)

    def test_generated_python_is_clean(self):
        from repro.backend.pygen import function_to_python

        k = get_kernel("mm")
        region = extract_regions(k.function)[0]
        sk = default_skeleton(region, {"N": 100}, 8)
        fn = sk.instantiate(
            {"tile_i": 10, "tile_j": 10, "tile_k": 10, "threads": 4}
        ).apply()
        import re

        src = function_to_python(fn)
        assert not re.search(r"\* 1\b", src)
        assert not re.search(r"\+ 0\b", src)


# -- differential oracle: one pass vs the fixpoint loop --------------------------

_leaves = st.one_of(
    st.sampled_from(["i", "j", "N"]).map(Var),
    st.integers(min_value=-3, max_value=6).map(IntLit),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]).map(FloatLit),
)


def _compound(sub):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "//", "%"]), sub, sub),
        st.builds(Min, sub, sub),
        st.builds(Max, sub, sub),
        st.builds(UnOp, st.just("-"), sub),
        st.builds(lambda a: Call("sqrt", (a,)), sub),
        st.builds(lambda a, b: ArrayRef("A", (a, b)), sub, sub),
    )


_exprs = st.recursive(_leaves, _compound, max_leaves=24)

#: a loop whose bounds, step and stored value are random expressions
_loops = st.builds(
    lambda lo, hi, step, val: For(
        "i", lo, hi, step, Block((Assign(ArrayRef("C", (Var("i"),)), val),))
    ),
    _exprs,
    _exprs,
    _exprs,
    _exprs,
)


def _assert_matches_oracle(node) -> None:
    once = simplify(node)
    assert once == oracles.simplify(node)
    # printed forms too: == cannot tell IntLit(1) from IntLit(1.0)
    assert repr(once) == repr(oracles.simplify(node))
    # a fixpoint without a rebuild: nothing left to fold
    assert simplify(once) is once


def _assert_same_children(node) -> None:
    for n in walk(node):
        got, want = n.children(), oracles.node_children(n)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want)), type(n).__name__


class TestDifferentialOracle:
    """One-pass ``simplify`` must equal the pre-change fixpoint loop."""

    @given(_exprs)
    @settings(max_examples=300, deadline=None)
    def test_random_expressions(self, e):
        _assert_matches_oracle(e)
        _assert_same_children(e)

    @given(_loops)
    @settings(max_examples=100, deadline=None)
    def test_random_loops(self, loop_):
        _assert_matches_oracle(loop_)
        _assert_same_children(loop_)

    def test_every_kernel_version(self, kernel, machine):
        """Every skeleton instantiation of the paper kernels, at the
        parameter corners and at random interior points."""
        _, _, skeleton = TuningDriver(machine=machine).make_problem(
            kernel.function, kernel.sizes(), kernel=kernel
        )
        rng = np.random.default_rng(8)
        samples = [
            {p.name: p.span()[0] for p in skeleton.parameters},
            {p.name: p.span()[1] for p in skeleton.parameters},
        ]
        for _ in range(10):
            samples.append(
                {
                    p.name: int(rng.choice(p.choices))
                    if p.is_categorical
                    else int(rng.integers(p.lo, p.hi + 1))
                    for p in skeleton.parameters
                }
            )
        for values in samples:
            fn = skeleton.instantiate(values).apply()
            _assert_matches_oracle(fn)
            _assert_same_children(fn)
            assert function_to_c(simplify(fn)) == function_to_c(oracles.simplify(fn))

    def test_idempotent_on_unfoldable_input(self):
        e = var("x") + var("y")
        assert simplify(e) is e
