"""DALTA's heuristic approximate-decomposition algorithm (baseline).

Re-implemented from the paper's description (§II-B): the algorithm
optimises the output bits from MSB to LSB for ``R`` rounds.  For each
bit it draws ``P`` random variable partitions, runs ``OptForPart`` on
each, and greedily keeps the single best setting.  In the first round
the not-yet-optimised LSBs are fixed to their *accurate* versions
(the model the paper's §III-B improves upon).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .. import blas, caching, obs
from ..boolean.function import BooleanFunction
from ..boolean.partition import partition_count, random_partition
from ..metrics import distributions
from .config import AlgorithmConfig
from .cost import apply_objective, cost_vectors_fixed
from .opt_for_part import (
    KernelContext,
    draw_patterns,
    opt_for_part,
    opt_for_part_many,
)
from .result import ApproximationResult, SearchStats
from .settings import Setting, SettingBits, SettingSequence

__all__ = ["run_dalta"]


@blas.single_threaded
def run_dalta(
    target: BooleanFunction,
    config: Optional[AlgorithmConfig] = None,
    p: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> ApproximationResult:
    """Run DALTA's greedy algorithm on ``target``.

    Parameters
    ----------
    target:
        The accurate function ``G``.
    config:
        Hyperparameters; ``partition_limit`` is the paper's ``P``.
        Defaults to :meth:`AlgorithmConfig.paper_dalta` clamped to the
        function's input width.
    p:
        Input distribution (uniform when omitted).
    rng:
        Random generator; overrides ``config.seed`` when given.

    The whole search runs BLAS on one thread (:mod:`repro.blas`), its
    cost and MED dot products as well as the kernel.
    """
    start = time.perf_counter()
    if config is None:
        config = AlgorithmConfig.paper_dalta()
    config = config.for_inputs(target.n_inputs)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if p is None:
        p = distributions.uniform(target.n_inputs)
    else:
        p = distributions.validate(p, target.n_inputs)

    stats = SearchStats()
    sequence = SettingSequence(target.n_outputs)
    history = []
    # every setting's truth table is evaluated once per run
    bits = SettingBits(target.n_inputs)
    max_partitions = partition_count(target.n_inputs, config.bound_size)

    with obs.span(
        "dalta.run",
        benchmark=target.name,
        n_inputs=target.n_inputs,
        n_outputs=target.n_outputs,
    ):
        for round_index in range(config.rounds):
            with obs.span("dalta.round", round=round_index + 1):
                for k in range(target.n_outputs - 1, -1, -1):
                    with obs.span("dalta.bit", bit=k):
                        # Fixed-context costs: unoptimised bits read as
                        # accurate (round 1), optimised bits as their
                        # latest versions.
                        rest = sequence.rest_word(target, k, bits)
                        costs = apply_objective(
                            cost_vectors_fixed(target, rest, k),
                            config.objective,
                        )

                        best_setting: Optional[Setting] = None
                        seen = set()
                        budget = min(config.partition_limit, max_partitions)
                        attempts = 0
                        context = KernelContext(costs, p, target.n_inputs)
                        if caching.fast_paths_enabled():
                            # Take every generator draw (partition, then
                            # its initial patterns) in the order the
                            # serial loop would, then evaluate the whole
                            # sample through one stacked OptForPart call
                            # — results are bitwise identical per item.
                            order = []
                            drawn = []
                            while len(seen) < budget and attempts < 20 * budget:
                                attempts += 1
                                partition = random_partition(
                                    target.n_inputs, config.bound_size, rng
                                )
                                if partition in seen:
                                    continue
                                seen.add(partition)
                                order.append(partition)
                                drawn.append(
                                    draw_patterns(
                                        rng,
                                        [partition],
                                        config.n_initial_patterns,
                                    )[0]
                                )
                            results = opt_for_part_many(
                                costs,
                                p,
                                order,
                                target.n_inputs,
                                context=context,
                                initial_patterns=drawn,
                            )
                            if order:
                                obs.incr(
                                    "dalta.partitions_evaluated", len(order)
                                )
                            stats.opt_for_part_calls += len(order)
                            for result in results:
                                if (
                                    best_setting is None
                                    or result.error < best_setting.error
                                ):
                                    best_setting = Setting(
                                        result.error, result.decomposition
                                    )
                        else:
                            while len(seen) < budget and attempts < 20 * budget:
                                attempts += 1
                                partition = random_partition(
                                    target.n_inputs, config.bound_size, rng
                                )
                                if partition in seen:
                                    continue
                                seen.add(partition)
                                result = opt_for_part(
                                    costs,
                                    p,
                                    partition,
                                    target.n_inputs,
                                    n_initial_patterns=config.n_initial_patterns,
                                    rng=rng,
                                    context=context,
                                )
                                stats.opt_for_part_calls += 1
                                obs.incr("dalta.partitions_evaluated")
                                if (
                                    best_setting is None
                                    or result.error < best_setting.error
                                ):
                                    best_setting = Setting(
                                        result.error, result.decomposition
                                    )
                        stats.partitions_visited += len(seen)
                        sequence = sequence.replace(k, best_setting)
            history.append(sequence.med(target, p, bits))

    elapsed = time.perf_counter() - start
    return ApproximationResult(
        algorithm="dalta",
        target=target,
        sequence=sequence,
        med=sequence.med(target, p, bits),
        elapsed_seconds=elapsed,
        stats=stats,
        round_history=history,
    )
