"""Multi-versioned C output (paper Fig. 6).

For a tuned region, generates one translation unit containing:

* the outlined region function in one specialized variant per Pareto point
  (``<kernel>_v0``, ``<kernel>_v1`` …, each with fixed tile sizes and a
  baked thread count),
* a statically initialized version table with the trade-off metadata,
* a weighted-sum selection helper mirroring the runtime's default policy,
* a dispatch wrapper with the original kernel signature.

The paper argues multi-versioning with fixed parameters lets the binary
compiler generate better code than a parameterized variant; fixing the tile
sizes as literals here is exactly that.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.backend.cgen import C_PRELUDE, function_to_c
from repro.backend.meta import VersionMeta
from repro.ir.nodes import Function
from repro.ir.types import ArrayType

__all__ = ["MultiVersionUnit", "build_multiversion_c"]


@dataclass(frozen=True)
class MultiVersionUnit:
    """A generated multi-versioned translation unit."""

    kernel: str
    source: str
    versions: tuple[VersionMeta, ...]


def _signature(fn: Function) -> tuple[str, str]:
    """(parameter declaration list, argument forwarding list)."""
    decls, args = [], []
    for p in fn.params:
        if isinstance(p.type, ArrayType):
            dims = "".join(f"[{d}]" for d in p.type.shape)
            decls.append(f"{p.type.elem.cname} {p.name}{dims}")
        else:
            decls.append(f"{p.type.cname} {p.name}")
        args.append(p.name)
    return ", ".join(decls), ", ".join(args)


def build_multiversion_c(
    kernel_name: str,
    variants: Sequence[tuple[Function, VersionMeta]],
) -> MultiVersionUnit:
    """Aggregate specialized variants into one multi-versioned C unit.

    :param variants: (specialized function IR, metadata) per Pareto point,
        all sharing the original kernel signature.
    """
    if not variants:
        raise ValueError("need at least one version")
    base_fn = variants[0][0]
    decls, args = _signature(base_fn)

    parts = [C_PRELUDE]
    metas = []
    for fn, meta in variants:
        parts.append(function_to_c(fn, name=f"{kernel_name}_v{meta.index}", prelude=False))
        metas.append(meta)

    fn_ptr_type = f"{kernel_name}_fn_t"
    parts.append(
        f"""
typedef void (*{fn_ptr_type})({decls});

typedef struct {{
    {fn_ptr_type} fn;
    double time;        /* measured region wall time [s] */
    double resources;   /* threads x time [cpu-s] */
    int threads;        /* tuned thread count */
    const char *params; /* parameter assignment */
}} {kernel_name}_version_t;

static const {kernel_name}_version_t {kernel_name}_versions[] = {{"""
    )
    for fn, meta in variants:
        params_str = " ".join(f"{k}={v}" for k, v in meta.values)
        parts.append(
            f'    {{ {kernel_name}_v{meta.index}, {meta.time!r}, '
            f'{meta.resources!r}, {meta.threads}, "{params_str}" }},'
        )
    parts.append(
        f"""}};

enum {{ {kernel_name}_num_versions = sizeof({kernel_name}_versions) / sizeof({kernel_name}_versions[0]) }};

/* Default runtime policy (paper section IV): pick the version minimizing
 * the user-weighted objective sum  w_time * t(v) + w_res * r(v). */
static int {kernel_name}_select_version(double w_time, double w_res)
{{
    int best = 0;
    double best_score = w_time * {kernel_name}_versions[0].time
                      + w_res * {kernel_name}_versions[0].resources;
    for (int i = 1; i < {kernel_name}_num_versions; ++i) {{
        double score = w_time * {kernel_name}_versions[i].time
                     + w_res * {kernel_name}_versions[i].resources;
        if (score < best_score) {{
            best_score = score;
            best = i;
        }}
    }}
    return best;
}}

/* Dispatch wrapper: delegates the region invocation to the runtime-selected
 * version (label 6 in the paper's Fig. 3). */
void {kernel_name}_dispatch(double w_time, double w_res, {decls})
{{
    int v = {kernel_name}_select_version(w_time, w_res);
    {kernel_name}_versions[v].fn({args});
}}
"""
    )
    return MultiVersionUnit(
        kernel=kernel_name,
        source="\n".join(parts),
        versions=tuple(metas),
    )
