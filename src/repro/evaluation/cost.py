"""Analytical execution-time and energy model for tiled parallel loop nests.

This is the simulation substrate standing in for the paper's physical
Westmere and Barcelona machines (see DESIGN.md §2 for the substitution
rationale).  Given a region's affine access streams, a machine model, tile
sizes and a thread count, it predicts wall time from first principles:

1. **Reuse units.**  After tiling, execution decomposes into nested units:
   the whole problem (``W``), one full tile (``s=0``), the suffix of point
   loops from depth ``s`` (``0 < s < n``) down to a single innermost
   iteration (``s=n``).  For each cache level the model picks the largest
   unit whose working set fits the level's *effective* capacity — shared
   levels are divided by the number of threads co-resident on the socket,
   which is exactly the mechanism the paper names as the reason optimal
   tile sizes depend on thread count (§II).

2. **Traffic.**  A stream (all references of an array with identical linear
   subscript parts) is re-fetched once per iteration of every loop outside
   its reuse unit up to and including the innermost loop it depends on; its
   per-unit footprint is counted in cache lines, so strided column walks
   (e.g. ``B[k][j]`` in IJK mm) pay full lines for single elements.

3. **Time.**  Roofline-style combination: compute + loop overhead versus
   per-level fill bandwidths, per-core DRAM bandwidth, and per-socket DRAM
   bandwidth shared by the threads placed there (the source of the
   speedup/efficiency trade-off).  Load imbalance multiplies the critical
   path by ``ceil(P/T)·T/P`` with ``P`` the worksharing iteration count
   after collapsing — the mechanism that makes collapsing worthwhile and
   penalises huge tiles at large thread counts.

4. **Energy.**  Active sockets draw idle power and busy cores active power
   for the whole run; every DRAM byte costs a fixed energy.

The model has a single, vectorized implementation:
:meth:`RegionCostModel.breakdown` evaluates B configurations at once with
NumPy and returns the time together with the components the energy model
needs.  :meth:`~RegionCostModel.time_batch` and
:meth:`~RegionCostModel.energy_batch` are views of one such evaluation, and
the single-configuration :meth:`~RegionCostModel.time` and
:meth:`~RegionCostModel.energy` are one-row batches.

The model is deterministic; measurement noise is layered on top by
:class:`repro.evaluation.simulator.SimulatedTarget`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.analysis.features import analyze_features
from repro.analysis.polyhedral import AccessFunction, access_functions
from repro.analysis.regions import TunableRegion
from repro.machine.model import MachineModel

__all__ = ["CostBreakdown", "RegionCostModel", "Stream"]


@dataclass(frozen=True)
class Stream:
    """All references of one array sharing a linear subscript part.

    :param coeff_dims: per array dimension, the (var, coeff) terms of the
        subscript's linear part.
    :param const_span: per dimension, (max-min) over the group's subscript
        constants — the halo widening of e.g. stencil reads.
    :param depends: band variables occurring anywhere in the subscripts.
    """

    array: str
    coeff_dims: tuple[tuple[tuple[str, int], ...], ...]
    const_span: tuple[int, ...]
    depends: frozenset[str]
    has_write: bool
    elem_size: int


class CostBreakdown(NamedTuple):
    """One evaluation of the model over B configurations (arrays of
    shape ``(B,)``)."""

    #: predicted seconds per kernel invocation
    time: np.ndarray
    #: bytes filled into each cache level per sweep, in ``machine.levels``
    #: order
    level_traffic: tuple[np.ndarray, ...]
    #: DRAM bytes moved by the whole invocation (all sweeps, all threads)
    dram_bytes: np.ndarray
    #: sockets holding at least one thread
    active_sockets: np.ndarray


class _Extents(NamedTuple):
    """Per-dimension data extents of one stream over a stack of spans:
    the product of the outer dimensions (None for rank <= 1) and the
    innermost extent (1 for rank 0)."""

    outer: np.ndarray | None
    inner: np.ndarray

    def footprint(self, line_size: int, elem_size: int) -> np.ndarray:
        """Bytes touched, counted in whole lines on the innermost
        dimension only — outer dimensions are strided."""
        lines = np.ceil(self.inner / max(1, line_size // elem_size))
        if self.outer is not None:
            lines = self.outer * lines
        return lines * line_size


class RegionCostModel:
    """Predicts region execution time and energy on a machine for
    (tiles, threads).

    The constructor performs all per-region analysis once; evaluation is
    NumPy arithmetic over a batch of configurations, suitable for the
    O(10^5)-point grids of brute-force sweeps.

    :param region: the tunable region (untransformed nest).
    :param bindings: problem-size values for all symbolic extents.
    :param machine: target machine description.
    :param flops_per_iteration: override for the arithmetic per innermost
        iteration (defaults to the static feature count).
    :param parallel_spec: how the generated code workshares, matching
        :meth:`repro.transform.skeleton.TransformationSkeleton.parallel_spec`:
        ``("collapse", n)`` — the outer *n* tile loops are coalesced into
        the parallel loop (default, n = min(2, band)); ``("tile", var)`` —
        var's tile loop alone is parallel; ``("point", var)`` — the untiled
        loop *var* is parallel (n-body's ``i`` under a hoisted ``j`` tile
        loop), incurring one fork/join per enclosing tile-loop iteration.
    """

    def __init__(
        self,
        region: TunableRegion,
        bindings: dict[str, int],
        machine: MachineModel,
        flops_per_iteration: float | None = None,
        parallel_spec: tuple[str, object] | None = None,
    ) -> None:
        self.region = region
        self.machine = machine
        self.bindings = dict(bindings)
        self.parallel_spec = parallel_spec

        feats = analyze_features(region, bindings)
        self.flops_per_iteration = (
            float(flops_per_iteration)
            if flops_per_iteration is not None
            else float(feats.flops_per_iteration)
        )
        self.sweep_factor = feats.sweep_factor
        self.total_iterations = feats.total_iterations

        self.band = tuple(lv for lv in region.domain.vars)
        self.extent = {v: region.domain.extent(v, bindings) for v in self.band}
        self.streams = self._build_streams()

        arrays = region.function.arrays
        self._elem_size = max(
            (at.elem.size for at in arrays.values()), default=8
        )
        self._ext = np.array([self.extent[v] for v in self.band], dtype=np.int64)

    # ------------------------------------------------------------------
    # stream extraction
    # ------------------------------------------------------------------

    def _build_streams(self) -> tuple[Stream, ...]:
        arrays = self.region.function.arrays
        groups: dict[tuple, list[AccessFunction]] = {}
        for acc in access_functions(self.region.nest):
            if acc.array not in arrays:
                continue
            key = (acc.array, acc.linear_part())
            groups.setdefault(key, []).append(acc)

        streams = []
        band_set = set(self.band)
        for (array, linear), accs in groups.items():
            rank = accs[0].rank
            coeff_dims: list[tuple[tuple[str, int], ...]] = []
            const_span: list[int] = []
            depends: set[str] = set()
            for d in range(rank):
                consts = []
                coeffs: tuple[tuple[str, int], ...] = ()
                for acc in accs:
                    sub = acc.subscripts[d]
                    if sub is None:
                        # non-affine subscript: treat as touching the dim fully
                        coeffs = ()
                        consts = [0]
                        break
                    coeffs = tuple((v, c) for v, c in sub.coeffs if v in band_set)
                    consts.append(sub.const)
                coeff_dims.append(coeffs)
                const_span.append(max(consts) - min(consts) if consts else 0)
                depends.update(v for v, _ in coeffs)
            streams.append(
                Stream(
                    array=array,
                    coeff_dims=tuple(coeff_dims),
                    const_span=tuple(const_span),
                    depends=frozenset(depends),
                    has_write=any(a.is_write for a in accs),
                    elem_size=arrays[array].elem.size,
                )
            )
        return tuple(streams)

    def _extents(self, stream: Stream, spans: np.ndarray) -> _Extents:
        """Data extents of *stream* when each band var covers ``spans[...,
        pos]`` consecutive values (spans of shape (..., n))."""
        dims = []
        for coeffs, extra in zip(stream.coeff_dims, stream.const_span):
            e = np.full(spans.shape[:-1], 1 + extra, dtype=np.float64)
            for var, coeff in coeffs:
                e = e + abs(coeff) * (spans[..., self.band.index(var)] - 1)
            dims.append(e)
        if not dims:
            return _Extents(None, np.ones(spans.shape[:-1]))
        outer = None
        for e in dims[:-1]:
            outer = e if outer is None else outer * e
        return _Extents(outer, dims[-1])

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def breakdown(
        self,
        tiles: np.ndarray,
        threads: np.ndarray,
        collapsed: int | None = None,
    ) -> CostBreakdown:
        """Evaluate B configurations.

        :param tiles: int array (B, len(band)) — tile sizes in band order,
            clipped into ``[1, extent]``.
        :param threads: int array (B,) of worksharing thread counts (1 =
            sequential, no parallel overhead).
        :param collapsed: how many outer tile loops are collapsed into the
            worksharing loop; overrides the constructor's ``parallel_spec``.
        :raises ValueError: on misshapen input or a thread count outside
            ``[1, machine.total_cores]``.
        """
        machine = self.machine
        band = self.band
        n = len(band)
        tiles = np.asarray(tiles, dtype=np.int64)
        threads = np.asarray(threads, dtype=np.int64)
        if tiles.ndim != 2 or tiles.shape[1] != n:
            raise ValueError(f"tiles must have shape (B, {n})")
        B = tiles.shape[0]
        if threads.shape != (B,):
            raise ValueError("threads must have shape (B,)")
        if B and (threads.min() < 1 or threads.max() > machine.total_cores):
            raise ValueError(
                f"thread counts must lie in [1, {machine.total_cores}] "
                f"on {machine.name}"
            )

        ext = self._ext
        t = np.clip(tiles, 1, ext[None, :])
        trips = -(-ext[None, :] // t)  # ceil div, (B, n)

        # thread placement: sockets fill one after another
        cps = machine.cores_per_socket
        max_per_socket = np.minimum(threads, cps)
        active_sockets = -(-threads // cps)

        # ---- load imbalance over the worksharing loop --------------------
        spec = self.parallel_spec
        if collapsed is not None:
            spec = ("collapse", collapsed)
        if spec is None:
            spec = ("collapse", min(2, n))
        kind, arg = spec
        invocations = np.ones(B)  # parallel regions entered per kernel call
        if kind == "collapse":
            depth = max(1, min(int(arg or 1), n))
            par_iters = np.prod(trips[:, :depth], axis=1)
        elif kind == "tile":
            par_iters = trips[:, band.index(str(arg))]
        elif kind == "point":
            # one fork/join per iteration of the enclosing tile loops (the
            # tile loops of all tiled vars sit above the point loop)
            pos = band.index(str(arg))
            par_iters = np.full(B, ext[pos])
            for j in range(n):
                if j != pos:
                    invocations = invocations * np.where(t[:, j] < ext[j], trips[:, j], 1)
        elif kind == "none":
            par_iters = np.ones(B)
        else:
            raise ValueError(f"unknown parallel spec {spec!r}")
        share = np.where(
            threads > 1, np.ceil(par_iters / threads) / par_iters, 1.0
        )  # busiest thread's work fraction

        # ---- traffic per cache level -------------------------------------
        # Reuse unit s (0..n) fixes the first s band vars (span 1) and lets
        # the rest cover a full tile; row n + 1 is the whole problem.
        spans = np.repeat(t[None, :, :], n + 2, axis=0)
        for s in range(1, n + 1):
            spans[s, :, :s] = 1
        spans[n + 1] = ext
        # A stream is re-fetched once per combined iteration of the loops
        # outside the innermost loop d it depends on: all tile loops, then
        # the point loops above the unit.  Loop d itself is merged into the
        # footprint (its span expanded by its iteration count), so that
        # consecutive fetches along a contiguous dimension share cache lines
        # instead of paying a full line each — this is what makes a column
        # walk (``B[k][j]`` untiled) expensive and a row walk cheap.
        loops = [trips[:, i] for i in range(n)] + [t[:, i] for i in range(n)]
        prefix = [np.ones(B)]  # prefix[k]: product of the first k loop counts
        for counts in loops[:-1]:
            prefix.append(prefix[-1] * counts)
        plain, refetched = [], []
        for stream in self.streams:
            plain.append(self._extents(stream, spans))
            deps = [pos for pos, v in enumerate(band) if v in stream.depends]
            fetches = np.ones((n + 1, B))
            expanded = spans[: n + 1].copy()
            for s in range(n + 1):
                if not deps:
                    break
                inner = [pos for pos in deps if pos < s]
                pos = (inner or deps)[-1]
                depth = n + pos if inner else pos  # its point or tile loop
                fetches[s] = prefix[depth]
                expanded[s, :, pos] = np.minimum(ext[pos], loops[depth] * spans[s, :, pos])
            weight = 2.0 if stream.has_write else 1.0
            refetched.append((weight, weight * fetches, self._extents(stream, expanded)))

        per_line: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

        def traffic_into(line_size: int, capacity, whole_capacity: float) -> np.ndarray:
            """Traffic (B,) into a level holding *capacity* bytes of a unit:
            that of the first unit whose working set fits (else the last),
            floored at the compulsory traffic — every touched line once,
            twice for written streams — which is all there is when the
            whole problem fits *whole_capacity*."""
            if line_size not in per_line:
                ws = np.zeros((n + 2, B))
                unit_traffic = np.zeros((n + 1, B))
                compulsory = np.zeros(B)
                for stream, extents, (weight, weighted_fetches, expanded) in zip(
                    self.streams, plain, refetched
                ):
                    fp = extents.footprint(line_size, stream.elem_size)
                    ws += fp
                    compulsory += weight * fp[n + 1]
                    unit_traffic += weighted_fetches * expanded.footprint(
                        line_size, stream.elem_size
                    )
                per_line[line_size] = ws, unit_traffic, compulsory
            ws, unit_traffic, compulsory = per_line[line_size]
            fits = ws[: n + 1] <= capacity
            chosen = np.where(fits.any(axis=0), fits.argmax(axis=0), n)
            traffic = np.take_along_axis(unit_traffic, chosen[None, :], axis=0)[0]
            traffic = np.maximum(traffic, compulsory)
            return np.where(ws[n + 1] <= whole_capacity, compulsory, traffic)

        level_traffic = []
        prev = None
        for level in machine.levels:
            cap_unit = (
                level.size / max_per_socket if level.shared else float(level.size)
            )
            traffic = traffic_into(level.line_size, cap_unit, float(level.size))
            if prev is not None:
                traffic = np.minimum(traffic, prev)
            prev = traffic
            level_traffic.append(traffic)

        # ---- per-thread times --------------------------------------------
        freq = machine.freq_hz
        flops = self.flops_per_iteration * self.total_iterations
        compute_t = flops * share / (machine.flops_per_cycle * freq)

        # loop overhead: iterations of non-innermost loops plus loop entries
        # of the tiled nest (tile loops outermost, point loops inside).
        # Innermost-loop bookkeeping is folded into the sustained flop rate.
        counts = [trips[:, i] for i in range(n)] + [t[:, i].astype(float) for i in range(n)]
        iters = np.zeros(B)
        entries = np.ones(B)
        cumulative = np.ones(B)
        for level_idx, c in enumerate(counts):
            entries = entries + cumulative
            cumulative = cumulative * c
            if level_idx < len(counts) - 1:
                iters = iters + cumulative
        overhead_t = (
            iters * machine.loop_overhead_cycles + entries * machine.loop_entry_cycles
        ) * share / freq

        # TLB: same reuse-unit machinery at page granularity; column walks
        # through more pages than the TLB holds pay a walk per new page.
        reach = float(machine.tlb_reach)
        tlb_traffic = traffic_into(machine.page_size, reach, reach)
        overhead_t += (
            tlb_traffic / machine.page_size * machine.tlb_miss_cycles * share / freq
        )

        mem_times = [
            traffic * share / level.fetch_bw
            for level, traffic in zip(machine.levels, level_traffic)
        ]
        dram_traffic = level_traffic[-1]
        mem_times.append(dram_traffic * share / machine.dram_bw_per_core)
        mem_times.append(
            dram_traffic * share * max_per_socket / machine.dram_bw_per_socket
        )

        # roofline with a residual: compute and memory mostly overlap, but
        # a fraction of the smaller term stays exposed (out-of-order windows
        # are finite) — this keeps secondary traffic gradients visible even
        # for compute-bound configurations
        work_t = compute_t + overhead_t
        mem_t = mem_times[0]
        for mt in mem_times[1:]:
            mem_t = np.maximum(mem_t, mt)
        busy = np.maximum(work_t, mem_t) + machine.mem_overlap_residual * np.minimum(
            work_t, mem_t
        )

        # coherence / NUMA tax: populated sockets contend on shared chip
        # resources; extra active sockets add snoop/cross-socket coherence
        # cost.  This (plus DRAM saturation and imbalance) produces the
        # efficiency decay of the paper's Table III.
        par_mask = threads > 1
        fill = (max_per_socket - 1) / max(1, cps - 1)
        tax = 1.0 + machine.smp_tax * fill + machine.numa_tax * (active_sockets - 1)
        busy = np.where(par_mask, busy * tax, busy)
        busy = np.where(
            par_mask,
            busy
            + (machine.fork_join_base + machine.fork_join_per_thread * threads)
            * invocations,
            busy,
        )
        return CostBreakdown(
            time=busy * self.sweep_factor,
            level_traffic=tuple(level_traffic),
            dram_bytes=dram_traffic * self.sweep_factor,
            active_sockets=active_sockets,
        )

    def time_batch(
        self,
        tiles: np.ndarray,
        threads: np.ndarray,
        collapsed: int | None = None,
    ) -> np.ndarray:
        """Predicted seconds per invocation, float array (B,); arguments as
        in :meth:`breakdown`."""
        return self.breakdown(tiles, threads, collapsed).time

    def energy_batch(
        self,
        tiles: np.ndarray,
        threads: np.ndarray,
        collapsed: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(seconds, joules) per invocation, float arrays (B,), from one
        evaluation; arguments as in :meth:`breakdown`.

        Power model: active sockets draw their idle/uncore power for the
        whole run, each busy core adds its active power, and every byte
        moved from DRAM costs a fixed energy (see the machine's
        ``*_power``/``dram_energy_per_byte`` parameters).  Energy is the
        paper's third example objective (§III-B1) and exhibits its own
        optimum: few threads waste idle power over a long runtime, many
        threads burn core power against sublinear speedup.
        """
        parts = self.breakdown(tiles, threads, collapsed)
        machine = self.machine
        power = (
            parts.active_sockets * machine.idle_power_per_socket
            + np.asarray(threads, dtype=np.int64) * machine.active_power_per_core
        )
        energy = parts.time * power + parts.dram_bytes * machine.dram_energy_per_byte
        return parts.time, energy

    def _row(self, tile_sizes: dict[str, int]) -> np.ndarray:
        """One-row tiles array; vars omitted default to their full extent."""
        return np.array(
            [[tile_sizes.get(v, self.extent[v]) for v in self.band]], dtype=np.int64
        )

    def time(
        self,
        tile_sizes: dict[str, int],
        threads: int,
        collapsed: int | None = None,
    ) -> float:
        """Predicted wall time in seconds for one kernel invocation.

        :param tile_sizes: tile size per band var; vars omitted default to
            their full extent (``tile_sizes={}`` models the untiled code).
        :param threads: worksharing thread count.
        :param collapsed: as in :meth:`breakdown`.
        """
        return float(self.time_batch(self._row(tile_sizes), [threads], collapsed)[0])

    def energy(
        self,
        tile_sizes: dict[str, int],
        threads: int,
        collapsed: int | None = None,
    ) -> float:
        """Predicted energy in joules for one kernel invocation (see
        :meth:`energy_batch`); arguments as in :meth:`time`."""
        _, energy = self.energy_batch(self._row(tile_sizes), [threads], collapsed)
        return float(energy[0])

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of everything that determines :meth:`time`.

        Two models with equal fingerprints produce identical times for
        every (tiles, threads) configuration, so the fingerprint can key
        a persistent measurement cache across processes.  Every repr used
        is deterministic — ``Stream.depends`` (a frozenset, whose repr
        order follows hash randomization) is sorted explicitly."""
        h = hashlib.blake2b(digest_size=16)

        def feed(part: object) -> None:
            h.update(repr(part).encode())
            h.update(b"\x00")

        feed(self.machine)
        feed(sorted(self.bindings.items()))
        feed(self.band)
        feed(sorted(self.extent.items()))
        feed(self.flops_per_iteration)
        feed(self.sweep_factor)
        feed(self.total_iterations)
        feed(self.parallel_spec)
        feed(self._elem_size)
        for stream in self.streams:
            feed(
                (
                    stream.array,
                    stream.coeff_dims,
                    stream.const_span,
                    tuple(sorted(stream.depends)),
                    stream.has_write,
                    stream.elem_size,
                )
            )
        return h.hexdigest()

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def baseline_time(self) -> float:
        """Sequential untiled execution ("GCC -O3" reference row)."""
        return self.time({}, threads=1)

