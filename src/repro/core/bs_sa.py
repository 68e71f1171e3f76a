"""BS-SA: beam-search + simulated-annealing decomposition (paper §III).

Two pieces, mirroring the paper:

* :func:`find_best_settings` — Algorithm 2.  A simulated-annealing walk
  over variable partitions (neighbour = swap one free variable with one
  bound variable) that calls ``OptForPart`` on each newly visited
  partition, keeps a global top-``N_beam`` list of settings, and stops
  after ``P`` distinct partitions or three stalled iterations.

* :func:`run_bssa` — Algorithm 1.  Round 1 walks the output bits from
  MSB to LSB keeping the ``N_beam`` best *setting sequences* (beam
  search), with the not-yet-approximated LSBs handled by the §III-B
  predictive model.  Later rounds re-optimise each bit greedily in its
  full fixed context; when a reconfigurable architecture is targeted,
  the per-bit BTO / ND candidate settings are produced there too and
  the §IV mode-selection rule is applied.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .. import blas, caching, obs
from ..boolean.function import BooleanFunction
from ..boolean.partition import Partition, partition_count, random_partition
from ..metrics import distributions
from .config import AlgorithmConfig
from .cost import (
    BitCosts,
    apply_objective,
    cost_vectors_accurate_lsb,
    cost_vectors_fixed,
    cost_vectors_predictive,
)
from .modes import select_mode
from .nondisjoint import optimize_nondisjoint
from .opt_for_part import (
    KernelContext,
    opt_for_part,
    opt_for_part_bto,
    opt_for_part_many,
)
from .result import ApproximationResult, SearchStats
from .settings import Setting, SettingBits, SettingSequence

__all__ = ["find_best_settings", "run_bssa", "FindBestSettingsResult"]


@dataclass
class FindBestSettingsResult:
    """Output of Algorithm 2 plus the auxiliary BTO candidate.

    ``settings`` holds the global top-``N_beam`` normal-mode settings
    in ascending error order; ``bto`` is the best bound-table-only
    setting over the same visited partitions (``None`` unless
    requested).
    """

    settings: List[Setting]
    bto: Optional[Setting] = None

    @property
    def best(self) -> Setting:
        return self.settings[0]


class _Beam:
    """Fixed-capacity list of the lowest-error settings."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.items: List[Setting] = []

    def push(self, setting: Setting) -> None:
        self.items.append(setting)
        self.items.sort(key=lambda s: s.error)
        if len(self.items) > self.capacity:
            self.items.pop()

    def worst_error(self) -> float:
        return self.items[-1].error if self.items else math.inf


def _collect_neighbours(
    neighbours: List[Partition], visited: dict, budget: int
) -> Tuple[List[Partition], List[Partition]]:
    """Split one SA iteration's neighbour list for batched evaluation.

    Mirrors the serial scan exactly: the walk stops at the first
    unvisited neighbour that would exceed the ``P`` budget, and
    neighbours past that point are excluded from the move-selection
    scan too.  Returns ``(scan, fresh)`` — the neighbours the serial
    loop would have considered, and the subset needing an OptForPart
    call, both in encounter order.
    """
    scan: List[Partition] = []
    fresh: List[Partition] = []
    fresh_set: set = set()
    for neighbour in neighbours:
        if neighbour not in visited and neighbour not in fresh_set:
            if len(visited) + len(fresh) >= budget:
                break
            fresh.append(neighbour)
            fresh_set.add(neighbour)
        scan.append(neighbour)
    return scan, fresh


def _draw_patterns(
    partitions: List[Partition], config: AlgorithmConfig, rng: np.random.Generator
) -> np.ndarray:
    """Initial-pattern draws for a batch, stacked, in serial call order.

    Taking the draws here — one per partition, in encounter order —
    consumes the generator stream exactly as a loop of single
    ``opt_for_part`` calls would, which is what keeps every later draw
    (SA acceptance tests, subsequent bits) bit-identical.  The draws
    land directly in one preallocated ``(N, Z, cols)`` stack, so the
    whole generation is materialised once per batch instead of once
    per item.
    """
    z = config.n_initial_patterns
    cols = partitions[0].n_cols if partitions else 0
    stacked = np.empty((len(partitions), z, cols), dtype=np.uint8)
    for index, partition in enumerate(partitions):
        stacked[index] = rng.integers(
            0, 2, size=(z, partition.n_cols), dtype=np.uint8
        )
    return stacked


def find_best_settings(
    costs: BitCosts,
    p: np.ndarray,
    n_inputs: int,
    config: AlgorithmConfig,
    rng: np.random.Generator,
    stats: Optional[SearchStats] = None,
    *,
    n_beam: Optional[int] = None,
    collect_bto: bool = False,
    partition_search: str = "sa",
) -> FindBestSettingsResult:
    """Algorithm 2: SA over partitions for one output bit.

    ``costs`` already encodes the context of the other output bits, so
    this function is context-agnostic — exactly the paper's
    ``FindBestSettings(G, Ĝ, k, N_beam)`` once the cost vectors are
    formed.

    When ``collect_bto`` is set, every visited partition additionally
    gets an exact bound-table-only optimisation (cheap: one vectorised
    pass) and the best such setting is reported alongside.

    ``partition_search="random"`` replaces the SA walk with DALTA-style
    independent random partitions under the same ``P`` budget — the
    ablation isolating the SA contribution.
    """
    if partition_search not in ("sa", "random"):
        raise ValueError(f"unknown partition_search {partition_search!r}")
    if stats is None:
        stats = SearchStats()
    if n_beam is None:
        n_beam = config.n_beam
    beam = _Beam(n_beam)
    best_bto: Optional[Setting] = None
    budget = min(config.partition_limit, partition_count(n_inputs, config.bound_size))
    # One kernel context per (costs, p): every OptForPart call of this
    # search shares its gate verdict and weighted grids.
    context = KernelContext(costs, p, n_inputs)

    def record(partition: Partition, result) -> float:
        """Fold one OptForPart result into beam/BTO/stats bookkeeping."""
        nonlocal best_bto
        stats.opt_for_part_calls += 1
        beam.push(Setting(result.error, result.decomposition))
        if collect_bto:
            bto = opt_for_part_bto(costs, p, partition, n_inputs, context=context)
            if best_bto is None or bto.error < best_bto.error:
                best_bto = Setting(bto.error, bto.decomposition)
        return result.error

    def visit(partition: Partition) -> float:
        """OptForPart on a new partition; updates beam and BTO best."""
        result = opt_for_part(
            costs,
            p,
            partition,
            n_inputs,
            n_initial_patterns=config.n_initial_patterns,
            rng=rng,
            context=context,
        )
        obs.incr("sa.partitions_evaluated")
        return record(partition, result)

    def visit_batch(
        partitions: List[Partition], patterns: Union[np.ndarray, List[np.ndarray]]
    ) -> List[float]:
        """Batched OptForPart over same-shape partitions, serial order.

        ``patterns`` must have been drawn from ``rng`` in exactly the
        order a loop of ``visit`` calls would draw them; the batch then
        evaluates through the stacked kernel, and every result is
        bitwise equal to its serial counterpart (see
        ``opt_for_part_many``).
        """
        if not partitions:
            return []
        results = opt_for_part_many(
            costs,
            p,
            partitions,
            n_inputs,
            context=context,
            initial_patterns=patterns,
        )
        obs.incr("sa.partitions_evaluated", len(partitions))
        return [
            record(partition, result)
            for partition, result in zip(partitions, results)
        ]

    if partition_search == "random":
        # Ablation mode: DALTA-style independent random sampling.
        sampled = set()
        if caching.fast_paths_enabled():
            # Take every generator draw (partition, then its initial
            # patterns) in serial order, but defer the evaluation to one
            # batch — all partitions share the (b, n-b) shape.
            order: List[Partition] = []
            drawn: List[np.ndarray] = []
            attempts = 0
            while len(sampled) < budget and attempts < 20 * budget:
                attempts += 1
                partition = random_partition(n_inputs, config.bound_size, rng)
                if partition in sampled:
                    continue
                sampled.add(partition)
                order.append(partition)
                # one direct draw per accepted partition (the stream
                # interleaves with partition sampling, so the batch
                # stack cannot be preallocated up front)
                drawn.append(
                    rng.integers(
                        0,
                        2,
                        size=(config.n_initial_patterns, partition.n_cols),
                        dtype=np.uint8,
                    )
                )
            visit_batch(order, drawn)
        else:
            attempts = 0
            while len(sampled) < budget and attempts < 20 * budget:
                attempts += 1
                partition = random_partition(n_inputs, config.bound_size, rng)
                if partition in sampled:
                    continue
                sampled.add(partition)
                visit(partition)
        stats.partitions_visited += len(sampled)
        return FindBestSettingsResult(beam.items, best_bto)

    # Lines 1-3: one random initial partition per SA chain.  The paper
    # runs several chains concurrently sharing the visited set Φ (its
    # implementation uses 10 to feed 44 threads); we interleave them
    # round-robin, which is semantically the same shared-Φ search.
    visited: dict = {}
    best_error = math.inf
    chains: List[dict] = []
    for _ in range(config.n_chains):
        if len(visited) >= budget:
            break
        start = random_partition(n_inputs, config.bound_size, rng)
        if start not in visited:
            visited[start] = visit(start)
        error = visited[start]
        best_error = min(best_error, error)
        chains.append(
            {
                "current": start,
                "error": error,
                "temperature": config.initial_temperature,
            }
        )
    stall = 0

    # Lines 4-19: the SA main loop.
    while len(visited) < budget and chains:
        changed = False
        for chain_index, chain in enumerate(chains):
            if len(visited) >= budget:
                break
            with obs.span(
                "bssa.sa_iteration",
                chain=chain_index,
                visited=len(visited),
            ):
                neighbours = chain["current"].sample_neighbours(
                    config.n_neighbours, rng
                )
                stats.sa_iterations += 1
                obs.incr("sa.iterations")
                best_nb: Optional[Partition] = None
                best_nb_error = math.inf
                if caching.fast_paths_enabled():
                    # All of this iteration's unvisited neighbours go
                    # through one stacked OptForPart call.  No generator
                    # use happens between the (already completed)
                    # neighbour sampling and the pattern draws, so the
                    # stream matches the serial walk exactly.
                    scan, fresh = _collect_neighbours(
                        neighbours, visited, budget
                    )
                    errors = visit_batch(
                        fresh, _draw_patterns(fresh, config, rng)
                    )
                    for neighbour, error in zip(fresh, errors):
                        visited[neighbour] = error
                        changed = True
                        if error < best_error:
                            best_error = error
                    for neighbour in scan:
                        error = visited[neighbour]
                        if error < best_nb_error:
                            best_nb, best_nb_error = neighbour, error
                else:
                    for neighbour in neighbours:
                        if neighbour not in visited:
                            if len(visited) >= budget:
                                break
                            error = visit(neighbour)
                            visited[neighbour] = error
                            changed = True
                            if error < best_error:
                                best_error = error
                        else:
                            error = visited[neighbour]
                        if error < best_nb_error:
                            best_nb, best_nb_error = neighbour, error

                if best_nb is not None:
                    if best_nb_error <= chain["error"]:
                        # positive delta = improvement (error decrease)
                        obs.observe(
                            "sa.accepted_delta", chain["error"] - best_nb_error
                        )
                        chain["current"], chain["error"] = best_nb, best_nb_error
                        obs.incr("sa.moves_accepted")
                    else:
                        denom = chain["temperature"] * best_error
                        if denom > 0:
                            accept = math.exp(
                                (chain["error"] - best_nb_error) / denom
                            )
                        else:
                            accept = 0.0
                        if rng.random() < accept:
                            # negative delta = accepted uphill move
                            obs.observe(
                                "sa.accepted_delta",
                                chain["error"] - best_nb_error,
                            )
                            chain["current"], chain["error"] = (
                                best_nb,
                                best_nb_error,
                            )
                            obs.incr("sa.moves_accepted_uphill")
                        else:
                            obs.incr("sa.moves_rejected")
                chain["temperature"] *= config.cooling_factor

        stall = stall + 1 if not changed else 0
        if stall >= config.stall_iterations:
            break
        if best_error == 0.0:
            break  # exact decomposition found; nothing can improve

    stats.partitions_visited += len(visited)
    return FindBestSettingsResult(beam.items, best_bto)


def _nd_setting(
    costs: BitCosts,
    p: np.ndarray,
    n_inputs: int,
    candidates: List[Setting],
    config: AlgorithmConfig,
    rng: np.random.Generator,
    stats: SearchStats,
) -> Optional[Setting]:
    """Best non-disjoint setting over the top SA partitions.

    The paper enumerates the shared bit over the whole bound set for
    the partition under consideration; we do that for the best
    ``nd_candidates`` partitions returned by the SA (see DESIGN.md §4).
    """
    best: Optional[Setting] = None
    for candidate in candidates[: config.nd_candidates]:
        partition = candidate.decomposition.partition
        if partition.n_bound < 2:
            continue  # ND needs a non-empty reduced bound table
        result = optimize_nondisjoint(
            costs,
            p,
            partition,
            n_inputs,
            n_initial_patterns=config.n_initial_patterns,
            rng=rng,
        )
        stats.nd_optimizations += 1
        stats.opt_for_part_calls += 2 * partition.n_bound
        if best is None or result.error < best.error:
            best = Setting(result.error, result.decomposition)
    return best


@blas.single_threaded
def run_bssa(
    target: BooleanFunction,
    config: Optional[AlgorithmConfig] = None,
    p: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    architecture: str = "normal",
    lsb_model: str = "predictive",
    partition_search: str = "sa",
) -> ApproximationResult:
    """Algorithm 1: the full BS-SA flow.

    Parameters
    ----------
    architecture:
        ``"normal"`` (plain BS-SA, what Table II evaluates),
        ``"bto-normal"`` or ``"bto-normal-nd"`` — during the later
        rounds the corresponding extra candidate settings are produced
        and the §IV mode-selection rule decides each bit's mode.
    lsb_model:
        Round-1 model for the not-yet-approximated LSBs:
        ``"predictive"`` (the paper's §III-B contribution) or
        ``"accurate"`` (DALTA's model — the ablation baseline).
    partition_search:
        ``"sa"`` (Algorithm 2) or ``"random"`` (DALTA-style sampling
        under the same budget — the SA ablation).

    The whole search runs BLAS on one thread (:mod:`repro.blas`), its
    cost and MED dot products as well as the kernel.
    """
    start = time.perf_counter()
    if architecture not in ("normal", "bto-normal", "bto-normal-nd"):
        raise ValueError(f"unknown architecture {architecture!r}")
    if lsb_model not in ("predictive", "accurate"):
        raise ValueError(f"unknown lsb_model {lsb_model!r}")
    if config is None:
        config = AlgorithmConfig.paper_bssa()
    config = config.for_inputs(target.n_inputs)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if p is None:
        p = distributions.uniform(target.n_inputs)
    else:
        p = distributions.validate(p, target.n_inputs)

    stats = SearchStats()
    m = target.n_outputs
    history: List[float] = []
    # every setting's truth table is evaluated once per run
    bits = SettingBits(target.n_inputs)

    with obs.span(
        "bssa.run",
        benchmark=target.name,
        architecture=architecture,
        n_inputs=target.n_inputs,
        n_outputs=m,
    ):
        # --------------------------------------------------------------
        # Round 1 (Algorithm 1 lines 1-10): beam search, MSB -> LSB, with
        # the predictive model standing in for the not-yet-approximated
        # LSBs.
        # --------------------------------------------------------------
        beams: List[Tuple[float, SettingSequence]] = [
            (math.inf, SettingSequence(m))
        ]
        for k in range(m - 1, -1, -1):
            with obs.span("bssa.beam_round", bit=k, beam=len(beams)):
                pool: List[Tuple[float, SettingSequence]] = []
                for _, sequence in beams:
                    msb = sequence.msb_word(target, k, bits)
                    if lsb_model == "predictive":
                        costs = cost_vectors_predictive(target, msb, k)
                        obs.incr("bssa.predictive_model_calls")
                    else:
                        costs = cost_vectors_accurate_lsb(target, msb, k)
                    costs = apply_objective(costs, config.objective)
                    found = find_best_settings(
                        costs,
                        p,
                        target.n_inputs,
                        config,
                        rng,
                        stats,
                        partition_search=partition_search,
                    )
                    for setting in found.settings:
                        pool.append((setting.error, sequence.replace(k, setting)))
                pool.sort(key=lambda item: item[0])
                beams = pool[: config.n_beam]
        best_sequence = beams[0][1]
        history.append(best_sequence.med(target, p, bits))

        # --------------------------------------------------------------
        # Later rounds (lines 11-15): greedy refinement in the fixed
        # context, with architecture-aware mode selection when requested.
        # --------------------------------------------------------------
        refinement_rounds = config.rounds - 1
        if architecture != "normal":
            refinement_rounds = max(1, refinement_rounds)
        for round_index in range(refinement_rounds):
            with obs.span("bssa.refine_round", round=round_index + 2):
                for k in range(m - 1, -1, -1):
                    with obs.span("bssa.refine_bit", bit=k):
                        rest = best_sequence.rest_word(target, k, bits)
                        costs = apply_objective(
                            cost_vectors_fixed(target, rest, k), config.objective
                        )
                        found = find_best_settings(
                            costs,
                            p,
                            target.n_inputs,
                            config,
                            rng,
                            stats,
                            n_beam=max(1, config.nd_candidates)
                            if architecture == "bto-normal-nd"
                            else 1,
                            collect_bto=architecture != "normal",
                            partition_search=partition_search,
                        )
                        normal = found.best
                        current = best_sequence[k]
                        if config.monotone_rounds and current is not None:
                            # Re-evaluate the incumbent in the *current*
                            # context so the comparison is apples-to-apples.
                            incumbent_error = costs.evaluate(bits(current), p)
                            if (
                                incumbent_error <= normal.error
                                and current.mode == "normal"
                            ):
                                normal = Setting(
                                    incumbent_error, current.decomposition
                                )

                        nd = None
                        if architecture == "bto-normal-nd":
                            nd = _nd_setting(
                                costs,
                                p,
                                target.n_inputs,
                                found.settings,
                                config,
                                rng,
                                stats,
                            )
                        chosen = select_mode(
                            normal, found.bto, nd, config, architecture
                        )
                        best_sequence = best_sequence.replace(k, chosen)
            history.append(best_sequence.med(target, p, bits))

    elapsed = time.perf_counter() - start
    return ApproximationResult(
        algorithm="bs-sa" if architecture == "normal" else f"bs-sa/{architecture}",
        target=target,
        sequence=best_sequence,
        med=best_sequence.med(target, p, bits),
        elapsed_seconds=elapsed,
        stats=stats,
        round_history=history,
    )
