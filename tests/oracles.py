"""Differential oracles: frozen scalar implementations that ``src/`` has
replaced with vectorized ones.

They are kept verbatim (modulo ``self`` → ``model``) so the tests can assert
that the production paths compute the same numbers bit for bit:

- :class:`ScalarCostModel` — the per-configuration analytical model that
  ``RegionCostModel.breakdown`` vectorizes (time, energy, per-level
  traffic).
- :func:`noise_factors` — the per-key lognormal factors that
  ``SimulatedTarget._noise_factor_matrix`` computes for a whole chunk.
- :func:`hv3d_slabs` — the 3-D hypervolume that recomputed a 2-D
  hypervolume per z-slab, which ``repro.optimizer.hypervolume._hv3d``
  sweeps with one incrementally maintained staircase.
- :func:`select_pairs_scalar` — the pairwise phase of ``GDE3.select``
  with two scalar ``dominates`` calls per pair, which ``select`` does in
  one broadcasted comparison.
- :func:`non_dominated_mask_scalar` — the per-row general-m sweep that
  ``repro.optimizer.pareto`` replaced with a blocked broadcast.
- :func:`non_dominated_mask_2d_scalar` — the per-group bi-objective sweep
  that ``repro.optimizer.pareto`` replaced with a vectorized group scan.
- :func:`bandit_select_scalar` — ``BanditSelector.select``'s UCB1 score,
  one arm at a time.
- :func:`simplify` — the fixpoint simplifier over the field-inspecting,
  deep-``!=`` :func:`transform` that ``repro.ir.simplify.simplify`` turned
  into one identity-checked bottom-up pass.
- :func:`run_lockstep` — the serial region-by-region multi-region loop
  that ``MultiRegionTuner.run`` schedules over one shared engine session
  (also the wall-clock baseline of the multi-region benchmark).

Do not "fix" these: a change here changes what the tests hold the
production code to.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np

from repro.driver.multiregion import MultiRegionResult, MultiRegionTuner, _RegionState
from repro.evaluation.cost import RegionCostModel, Stream
from repro.evaluation.parallel_eval import EngineStats
from repro.ir.nodes import Node
from repro.ir.simplify import _rule
from repro.obs import DISABLED
from repro.optimizer.config import Configuration
from repro.optimizer.hypervolume import _hv2d
from repro.optimizer.pareto import dominates
from repro.machine.topology import place_threads
from repro.util.rng import spawn_seed
from repro.util.stats import ndtri

__all__ = [
    "ScalarCostModel",
    "noise_factors",
    "hv3d_slabs",
    "select_pairs_scalar",
    "non_dominated_mask_scalar",
    "non_dominated_mask_2d_scalar",
    "bandit_select_scalar",
    "node_children",
    "simplify",
    "transform",
    "run_lockstep",
]

_U64 = float(1 << 64)


# -- stream footprints ---------------------------------------------------------


def extents(stream: Stream, spans: dict[str, int]) -> tuple[int, ...]:
    """Data extent touched per dimension when each loop var covers
    ``spans[var]`` consecutive values."""
    out = []
    for coeffs, extra in zip(stream.coeff_dims, stream.const_span):
        extent = 1 + extra
        for var, coeff in coeffs:
            extent += abs(coeff) * (spans.get(var, 1) - 1)
        out.append(extent)
    return tuple(out)


def footprint_lines(stream: Stream, spans: dict[str, int], line_elems: int) -> float:
    """Cache lines touched per unit execution (line granularity on the
    innermost dimension only — outer dimensions are strided)."""
    ext = extents(stream, spans)
    lines = math.ceil(ext[-1] / line_elems) if ext else 1
    for e in ext[:-1]:
        lines *= e
    return float(lines)


def footprint_bytes(stream: Stream, spans: dict[str, int], line_size: int) -> float:
    line_elems = max(1, line_size // stream.elem_size)
    return footprint_lines(stream, spans, line_elems) * line_size


# -- the scalar cost model -----------------------------------------------------


class ScalarCostModel:
    """One configuration at a time, over a :class:`RegionCostModel`'s
    analysis (band, extents, streams, machine)."""

    def __init__(self, model: RegionCostModel) -> None:
        self.model = model

    def time(self, tile_sizes: dict[str, int], threads: int, collapsed=None) -> float:
        return self.evaluate(tile_sizes, threads, collapsed)["time"]

    def energy(self, tile_sizes: dict[str, int], threads: int, collapsed=None) -> float:
        parts = self.evaluate(tile_sizes, threads, collapsed)
        machine = self.model.machine
        placement = parts["placement"]
        t = parts["time"]
        power = (
            placement.active_sockets * machine.idle_power_per_socket
            + threads * machine.active_power_per_core
        )
        dram_bytes = parts["dram_bytes_total"]
        return t * power + dram_bytes * machine.dram_energy_per_byte

    def level_traffic(self, tile_sizes: dict[str, int], threads: int) -> list[float]:
        return self.evaluate(tile_sizes, threads)["level_traffic"]

    def evaluate(self, tile_sizes: dict[str, int], threads: int, collapsed=None) -> dict:
        model = self.model
        machine = model.machine
        tiles = {v: int(min(max(1, tile_sizes.get(v, model.extent[v])), model.extent[v]))
                 for v in model.band}
        trips = {v: math.ceil(model.extent[v] / tiles[v]) for v in model.band}

        placement = place_threads(machine, threads)

        # ---- load imbalance over the worksharing loop --------------------
        par_iters, invocations = self._parallel_structure(tiles, trips, collapsed)
        if threads > 1:
            chunks = math.ceil(par_iters / threads)
            share = chunks / par_iters  # busiest thread's work fraction
        else:
            share = 1.0

        # ---- traffic per cache level -------------------------------------
        spans_units = self._unit_spans(tiles)
        whole_spans = {v: model.extent[v] for v in model.band}

        level_traffic: list[float] = []
        prev = math.inf
        for level in machine.levels:
            if level.shared:
                cap_unit = level.size / placement.max_threads_per_socket
                cap_whole = float(level.size)
            else:
                cap_unit = float(level.size)
                cap_whole = float(level.size)

            ws_whole = sum(
                footprint_bytes(s, whole_spans, level.line_size) for s in model.streams
            )
            if ws_whole <= cap_whole:
                traffic = self._compulsory_traffic(whole_spans, level.line_size)
            else:
                s_idx = self._fitting_unit(spans_units, cap_unit, level.line_size)
                traffic = self._unit_traffic(
                    spans_units[s_idx], s_idx, tiles, trips, level.line_size
                )
                compulsory = self._compulsory_traffic(whole_spans, level.line_size)
                traffic = max(traffic, compulsory)
            traffic = min(traffic, prev) if level_traffic else traffic
            prev = traffic
            level_traffic.append(traffic)

        # ---- per-thread times --------------------------------------------
        freq = machine.freq_hz
        flops = model.flops_per_iteration * model.total_iterations
        compute_t = flops * share / (machine.flops_per_cycle * freq)

        loop_iters, loop_entries = self._loop_overhead_counts(tiles, trips)
        overhead_t = (
            loop_iters * machine.loop_overhead_cycles
            + loop_entries * machine.loop_entry_cycles
        ) * share / freq

        mem_times = []
        for level, traffic in zip(machine.levels, level_traffic):
            mem_times.append(traffic * share / level.fetch_bw)

        tlb_idx = self._fitting_unit(spans_units, machine.tlb_reach, machine.page_size)
        tlb_ws_whole = sum(
            footprint_bytes(s, whole_spans, machine.page_size) for s in model.streams
        )
        tlb_compulsory = self._compulsory_traffic(whole_spans, machine.page_size)
        if tlb_ws_whole <= machine.tlb_reach:
            tlb_traffic = tlb_compulsory
        else:
            tlb_traffic = max(
                self._unit_traffic(
                    spans_units[tlb_idx], tlb_idx, tiles, trips, machine.page_size
                ),
                tlb_compulsory,
            )
        tlb_misses = tlb_traffic / machine.page_size
        overhead_t += tlb_misses * machine.tlb_miss_cycles * share / freq

        dram_traffic = level_traffic[-1]
        mem_times.append(dram_traffic * share / machine.dram_bw_per_core)
        per_socket_threads = placement.max_threads_per_socket
        mem_times.append(
            dram_traffic * share * per_socket_threads / machine.dram_bw_per_socket
        )

        work_t = compute_t + overhead_t
        mem_t = max(mem_times)
        busy = max(work_t, mem_t) + machine.mem_overlap_residual * min(work_t, mem_t)

        if threads > 1:
            cps = machine.cores_per_socket
            fill = (placement.max_threads_per_socket - 1) / max(1, cps - 1)
            tax = 1.0 + machine.smp_tax * fill
            tax += machine.numa_tax * (placement.active_sockets - 1)
            busy *= tax
            busy += (
                machine.fork_join_base + machine.fork_join_per_thread * threads
            ) * invocations

        return {
            "time": busy * model.sweep_factor,
            "placement": placement,
            "dram_bytes_total": dram_traffic * model.sweep_factor,
            "share": share,
            "level_traffic": level_traffic,
        }

    def _parallel_structure(self, tiles, trips, collapsed) -> tuple[int, int]:
        model = self.model
        spec = model.parallel_spec
        if collapsed is not None:
            spec = ("collapse", collapsed)
        if spec is None:
            spec = ("collapse", min(2, len(model.band)))
        kind, arg = spec
        if kind == "collapse":
            n = max(1, min(int(arg or 1), len(model.band)))
            par = 1
            for v in model.band[:n]:
                par *= trips[v]
            return par, 1
        if kind == "tile":
            return trips[str(arg)], 1
        if kind == "point":
            var = str(arg)
            invocations = 1
            for v in model.band:
                if v != var and tiles[v] < model.extent[v]:
                    invocations *= trips[v]
            return model.extent[var], invocations
        if kind == "none":
            return 1, 1
        raise ValueError(f"unknown parallel spec {spec!r}")

    def _unit_spans(self, tiles: dict[str, int]) -> list[dict[str, int]]:
        units = []
        for s in range(len(self.model.band) + 1):
            spans = {}
            for pos, v in enumerate(self.model.band):
                spans[v] = 1 if pos < s else tiles[v]
            units.append(spans)
        return units

    def _fitting_unit(self, spans_units, capacity: float, line_size: int) -> int:
        for s, spans in enumerate(spans_units):
            ws = sum(footprint_bytes(s_, spans, line_size) for s_ in self.model.streams)
            if ws <= capacity:
                return s
        return len(spans_units) - 1

    def _unit_traffic(self, spans, s_idx, tiles, trips, line_size) -> float:
        model = self.model
        outer: list[tuple[str, int]] = [(v, trips[v]) for v in model.band]
        outer += [(v, tiles[v]) for v in model.band[:s_idx]]

        total = 0.0
        for stream in model.streams:
            depth = -1
            for idx, (v, _count) in enumerate(outer):
                if v in stream.depends:
                    depth = idx
            if depth < 0:
                bytes_total = footprint_bytes(stream, spans, line_size)
            else:
                fetches = 1.0
                for idx in range(depth):
                    fetches *= outer[idx][1]
                d_var, d_count = outer[depth]
                expanded = dict(spans)
                expanded[d_var] = min(model.extent[d_var], d_count * spans.get(d_var, 1))
                bytes_total = fetches * footprint_bytes(stream, expanded, line_size)
            weight = 2.0 if stream.has_write else 1.0
            total += bytes_total * weight
        return total

    def _compulsory_traffic(self, whole_spans, line_size: int) -> float:
        total = 0.0
        for stream in self.model.streams:
            weight = 2.0 if stream.has_write else 1.0
            total += footprint_bytes(stream, whole_spans, line_size) * weight
        return total

    def _loop_overhead_counts(self, tiles, trips) -> tuple[float, float]:
        band = self.model.band
        counts = [trips[v] for v in band] + [tiles[v] for v in band]
        iters = 0.0
        entries = 1.0
        cumulative = 1.0
        for level, c in enumerate(counts):
            entries += cumulative
            cumulative *= c
            if level < len(counts) - 1:
                iters += cumulative
        return iters, entries


# -- measurement noise -----------------------------------------------------------


def noise_factors(target, key: tuple, reps: int) -> np.ndarray:
    """Deterministic lognormal factors for each repetition of *key*, one
    blake2b hash per (key, repetition)."""
    u = np.array(
        [(spawn_seed(target.seed, key, rep) + 0.5) / _U64 for rep in range(reps)]
    )
    return np.exp(target.noise * ndtri(u))


# -- hypervolume -----------------------------------------------------------------


def hv3d_slabs(pts: np.ndarray, ref: np.ndarray) -> float:
    """Exact 3-D hypervolume by sweeping z-slabs: between consecutive z
    values the dominated volume is the 2-D hypervolume of all points with
    smaller-or-equal z, times the slab height.  O(n^2 log n), fine for
    front-sized sets."""
    order = np.argsort(pts[:, 2], kind="stable")
    total = 0.0
    active: list[np.ndarray] = []
    n = len(order)
    for i, idx in enumerate(order):
        active.append(pts[idx, :2])
        z = pts[idx, 2]
        z_next = pts[order[i + 1], 2] if i + 1 < n else ref[2]
        if z_next > z:
            area = _hv2d(np.array(active), ref[:2])
            total += area * (z_next - z)
    return float(total)


# -- Pareto selection ------------------------------------------------------------


def select_pairs_scalar(
    population: list[Configuration], trial_configs: list[Configuration]
) -> list[Configuration]:
    """The pairwise phase of ``GDE3.select`` (before truncation)."""
    next_pop: list[Configuration] = []
    for target, trial in zip(population, trial_configs):
        if dominates(trial.objectives, target.objectives):
            next_pop.append(trial)
        elif dominates(target.objectives, trial.objectives):
            next_pop.append(target)
        else:
            next_pop.append(target)
            next_pop.append(trial)
    return next_pop


def non_dominated_mask_2d_scalar(objs: np.ndarray) -> np.ndarray:
    """The per-group bi-objective sweep: sort by the first objective, keep
    points strictly improving the running second-objective minimum (exact
    duplicates are all retained)."""
    n = objs.shape[0]
    mask = np.zeros(n, dtype=bool)
    order = np.lexsort((objs[:, 1], objs[:, 0]))
    best1 = np.inf
    i = 0
    while i < n:
        # group of equal first objective
        j = i
        v0 = objs[order[i], 0]
        group_min = np.inf
        while j < n and objs[order[j], 0] == v0:
            group_min = min(group_min, objs[order[j], 1])
            j += 1
        # the first group is never dominated, even at an infinite minimum
        if i == 0 or group_min < best1:
            for k in range(i, j):
                idx = order[k]
                if objs[idx, 1] == group_min:
                    mask[idx] = True
            best1 = group_min
        i = j
    return mask


def non_dominated_mask_scalar(objs: np.ndarray) -> np.ndarray:
    """The per-row non-dominated sweep for any number of objectives."""
    n = objs.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        o = objs[i]
        dominated_by_i = (objs >= o).all(axis=1) & (objs > o).any(axis=1)
        mask &= ~dominated_by_i
        mask[i] = True
        # if i itself is dominated by any currently-alive point, kill it
        alive = np.flatnonzero(mask)
        dominates_i = (objs[alive] <= o).all(axis=1) & (objs[alive] < o).any(axis=1)
        if dominates_i.any():
            mask[i] = False
    return mask


# -- online version selection ----------------------------------------------------


def bandit_select_scalar(bandit, table):
    """The version *bandit* selects from *table*, scored arm by arm through
    the same statistics and floating-point operations as ``select``."""
    if bandit.strategy == "epsilon":
        return bandit.select(table)
    cols = table.columns()
    prior = cols.times
    scale = prior.max() - prior.min()
    scale = scale or prior.max() or 1.0
    counts, sums, total = bandit._snapshot(table)
    w = bandit.prior_weight
    best, best_pos = None, 0
    for pos in range(len(table.versions)):
        n = counts[pos] + w
        mean = (sums[pos] + w * prior[pos]) / n
        bonus = bandit.exploration * scale * np.sqrt(
            2 * np.log(max(1, total) + 1) / n
        )
        score = mean - bonus
        if best is None or score < best:
            best, best_pos = score, pos
    return table.versions[best_pos]


# -- the IR rewriter -------------------------------------------------------------


def node_children(node: Node) -> tuple[Node, ...]:
    """The node's children, found by inspecting every dataclass field."""
    out: list[Node] = []
    for f_ in fields(node):
        val = getattr(node, f_.name)
        if isinstance(val, Node):
            out.append(val)
        elif isinstance(val, tuple):
            out.extend(v for v in val if isinstance(v, Node))
    return tuple(out)


def node_with_children(node: Node, new_children: list[Node]) -> Node:
    """Rebuild *node* with its Node-valued fields replaced in order."""
    it = iter(new_children)
    updates = {}
    for f_ in fields(node):
        val = getattr(node, f_.name)
        if isinstance(val, Node):
            updates[f_.name] = next(it)
        elif isinstance(val, tuple) and any(isinstance(v, Node) for v in val):
            updates[f_.name] = tuple(
                next(it) if isinstance(v, Node) else v for v in val
            )
    return replace(node, **updates)


def transform(node: Node, fn) -> Node:
    """Bottom-up rebuild; a node is rebuilt when its children compare
    unequal (deep ``!=``) after rewriting."""
    new_children = [transform(child, fn) for child in node_children(node)]
    if new_children != list(node_children(node)):
        node = node_with_children(node, new_children)
    replacement = fn(node)
    return node if replacement is None else replacement


def simplify(node: Node) -> Node:
    """The simplification rules run to a fixpoint, at most four passes."""
    prev = node
    for _ in range(4):
        nxt = transform(prev, _rule)
        if nxt == prev:
            return nxt
        prev = nxt
    return prev


# -- multi-region scheduling -----------------------------------------------------


def run_lockstep(tuner: MultiRegionTuner, seed: int = 0) -> MultiRegionResult:
    """Each program generation, every unfinished region proposes its
    trials, evaluates them through its own serial engine and selects,
    region by region."""
    obs = tuner.obs or DISABLED
    problems = tuner._build_problems()
    states = [
        _RegionState(i, p, tuner.settings, seed) for i, p in enumerate(problems)
    ]

    for st in states:
        vectors = st.full.sample(st.rng, tuner.settings.gde3.population_size)
        st.values = st.problem.decode(vectors)
        st.batch = st.problem.evaluation_engine.evaluate_batch(
            st.problem.config_keys(st.values)
        )
        st.advance(obs)

    while any(not st.finished for st in states):
        for st in states:
            if st.finished:
                continue
            vectors = st.optimizer.propose(st.population, st.boundary, st.rng)
            st.values = st.problem.decode(vectors)
            st.batch = st.problem.evaluation_engine.evaluate_batch(
                st.problem.config_keys(st.values)
            )
            st.advance(obs)

    stats = EngineStats()
    for st in states:
        stats.merge(st.problem.evaluation_engine.stats)
    generations = max(st.gen for st in states)
    return MultiRegionResult(
        results=tuple(st.result(generations) for st in states),
        program_runs=tuner.settings.gde3.population_size * (1 + generations),
        generations=generations,
        engine_stats=stats,
    )
