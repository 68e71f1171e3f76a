"""The three workloads.  Each returns a :class:`Outcome` of metric values.

* ``table2`` — the Table-II campaign as ``repro run table2`` runs it
  (campaign engine, ``spawn`` backend, 2 workers, default scale), one
  campaign after another in a closed loop.
* ``compile16`` — in-process ``compile_one`` of cos, exp and multiplier
  at the paper's 16-bit kernel shape, serially in a closed loop.
* ``serve-mixed`` — open-loop HTTP traffic against an in-process
  ``ServeDaemon`` at two offered rates, ``lo`` then ``hi``.

Every output is checked after the timed part (``checks.py``).  With
``trace`` on, the layer wrappers of ``tracer.py`` are installed around
the traced part, and the per-layer metrics are derived from them.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

from . import checks, loadgen, plan, stats, tracer

#: serve-mixed request mix
SERVE_LO_SHARE = 0.3  # of the run's seconds spent at the lo rate
SERVE_REPEAT_SHARE = 0.5  # requests that repeat an earlier key
SERVE_RECENT_MEAN = 8  # mean distance back, in distinct keys, of a repeat
SERVE_RAW_SHARE = 0.1  # new keys sent as raw truth tables
SERVE_CONNECTIONS = 2
#: a served answer counts toward goodput when it is correct within this
GOODPUT_LIMIT_S = 1.0


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work_dir: str
    expected: Dict[str, Any]
    lo_rps: float
    hi_rps: float


@dataclass
class Outcome:
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


def cpu_seconds() -> float:
    """CPU time of this process and every child it has waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def units(seconds: float, unit_s: float) -> int:
    """How many whole units (a campaign, a round of compiles) a closed
    loop runs: a fixed count for a given ``--seconds``, so that every run
    does the same work however fast the machine is that day."""
    return max(1, round(seconds / unit_s))


def closed_loop_metrics(
    out: Outcome, walls: List[float], latencies: List[float], cpu: float, meds: List[float]
) -> None:
    wall = sum(walls)
    compiles = len(latencies)
    summary = stats.summarize(latencies)
    correct = out.attempted - len(out.failures)
    out.metrics.update(
        {
            "compiles_per_s": compiles / wall,
            "cpu_s_per_compile": cpu / compiles,
            "compile_p50_s": summary.p50,
            "compile_tail_s": stats.tail_or_max(summary),
            "goodput_rps": correct / wall,
            "med_geomean": checks.shifted_geomean(meds),
        }
    )
    out.report.append(f"compile latency: {summary.describe()}")


def layer_metrics(collected: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics shared by every workload, from a tracer's numbers."""
    layers = collected["layers"]

    def get(layer: str, name: str) -> float:
        return layers.get(layer, {}).get(name, 0)

    kernel_s = get(tracer.KERNEL, "union_s")
    calls = get(tracer.KERNEL, "calls")
    items = get(tracer.KERNEL, "items")
    search_s = get(tracer.SEARCH, "union_s")
    search_self = tracer.self_time(layers, tracer.SEARCH)
    counters = collected["counters"]
    hits = counters.get("kernel.memo_hits", 0)
    misses = counters.get("kernel.memo_misses", 0)
    return {
        "kernel.s": kernel_s,
        "kernel.calls": calls,
        "kernel.items": items,
        "kernel.us_per_item": 1e6 * kernel_s / items if items else 0.0,
        "kernel.share": kernel_s / search_s if search_s else 0.0,
        "kernel.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "search.self_s": search_self,
        "search.self_s_per_batch": search_self / calls if calls else 0.0,
        "search.items_per_batch": items / calls if calls else 0.0,
        "compile.target_s": get(tracer.TARGET, "union_s"),
        "compile.artifact_s": get(tracer.ARTIFACT, "union_s"),
    }


def overhead_frac(collected: Dict[str, Any], traced_cpu: float) -> float:
    """Estimated CPU the wrappers added, as a share of the traced CPU."""
    calls = sum(
        fields["calls"] + fields["passes"] for fields in collected["layers"].values()
    )
    spent = calls * tracer.wrapper_cost() + collected["counters"].get("trace.flush_s", 0)
    return spent / traced_cpu if traced_cpu else 0.0


def _traced(ctx: Context) -> tracer.Tracer:
    flush_dir = os.path.join(ctx.work_dir, "trace")
    os.makedirs(flush_dir, exist_ok=True)
    return tracer.Tracer(flush_dir)


# ======================================================================
# table2
# ======================================================================
@dataclass
class _Campaign:
    base_seed: int
    outcome: Any
    wall: float
    parent_cpu: float
    child_cpu: float


def _run_campaign(ctx: Context, index: int, base_seed: int) -> _Campaign:
    from repro.experiments.engine import EngineConfig, run_experiment_campaign

    directory = os.path.join(ctx.work_dir, f"campaign-{index}")
    before = os.times()
    started = time.perf_counter()
    _, outcome = run_experiment_campaign(
        "table2",
        plan.TABLE2_SCALE,
        base_seed=base_seed,
        campaign_dir=directory,
        config=EngineConfig(n_jobs=plan.TABLE2_WORKERS),
    )
    wall = time.perf_counter() - started
    after = os.times()
    shutil.rmtree(directory)
    return _Campaign(
        base_seed,
        outcome,
        wall,
        after.user + after.system - before.user - before.system,
        after.children_user
        + after.children_system
        - before.children_user
        - before.children_system,
    )


def _check_campaign(ctx: Context, out: Outcome, campaign: _Campaign) -> List[float]:
    expected = ctx.expected["table2"][str(campaign.base_seed)]
    meds = []
    for index, result in enumerate(campaign.outcome.results):
        out.attempted += 1
        if result is None:
            out.fail(f"table2 base seed {campaign.base_seed} job {index}: no result")
            continue
        reference = expected[index] if index < len(expected) else None
        reason, med = checks.check_result(
            reference, result.med, result.target.table, result.approx_function.table
        )
        meds.append(med)
        if reason:
            out.fail(f"table2 base seed {campaign.base_seed} job {index}: {reason}")
    return meds


def table2(ctx: Context) -> Outcome:
    rng = np.random.default_rng(ctx.seed)
    order = [int(s) for s in rng.permutation(plan.TABLE2_BASE_SEEDS)]
    out = Outcome()
    if not ctx.trace:
        campaigns = [
            _run_campaign(ctx, index, order[index % len(order)])
            for index in range(units(ctx.seconds, plan.TABLE2_CAMPAIGN_S))
        ]
        meds: List[float] = []
        for campaign in campaigns:
            meds += _check_campaign(ctx, out, campaign)
        elapsed = [r.elapsed_seconds for c in campaigns for r in c.outcome.results if r is not None]
        closed_loop_metrics(
            out,
            [c.wall for c in campaigns],
            elapsed,
            sum(c.parent_cpu + c.child_cpu for c in campaigns),
            meds,
        )
        out.report.append(
            "campaigns: "
            + ", ".join(f"base seed {c.base_seed} {c.wall:.2f} s" for c in campaigns)
        )
        return out

    # traced pass: one untraced campaign for the campaign.* numbers, then
    # the same protocol with the layer wrappers on
    plain = _run_campaign(ctx, 0, order[0])
    probe = _traced(ctx)
    cpu_before = cpu_seconds()
    with probe:
        traced = _run_campaign(ctx, 1, order[1])
        collected = probe.collect()
    traced_cpu = cpu_seconds() - cpu_before
    for campaign in (plain, traced):
        _check_campaign(ctx, out, campaign)
    job_s = sum(r.elapsed_seconds for r in plain.outcome.results if r is not None)
    out.metrics.update(layer_metrics(collected))
    traced_job_s = sum(r.elapsed_seconds for r in traced.outcome.results if r is not None)
    search_s = collected["layers"].get(tracer.SEARCH, {}).get("union_s", 0.0)
    out.metrics.update(
        {
            "campaign.job_s": job_s,
            "campaign.overhead_s": plain.wall * plan.TABLE2_WORKERS - job_s,
            "campaign.parent_cpu_s": plain.parent_cpu,
            "campaign.child_cpu_s": plain.child_cpu,
            "campaign.retries": plain.outcome.retries,
            "trace.overhead_frac": overhead_frac(collected, traced_cpu),
            # job time the search wrappers did not see, over the campaign's capacity
            "trace.unattributed_frac": (traced_job_s - search_s)
            / (traced.wall * plan.TABLE2_WORKERS),
        }
    )
    out.report.append(
        f"untraced campaign {plain.wall:.2f} s, traced campaign {traced.wall:.2f} s"
    )
    return out


# ======================================================================
# compile16
# ======================================================================
def compile16(ctx: Context) -> Outcome:
    from repro import compile_api
    from repro import workloads as registry

    rng = np.random.default_rng(ctx.seed)
    seeds = {f: [int(s) for s in rng.permutation(plan.COMPILE16_SEEDS)] for f in plan.COMPILE16_FUNCTIONS}
    config = plan.compile16_config()
    out = Outcome()
    done = []  # (function, seed, wall, payload)
    probe = _traced(ctx) if ctx.trace else None
    cpu_before = cpu_seconds()
    if probe:
        probe.install()
    try:
        for round_index in range(units(ctx.seconds, plan.COMPILE16_ROUND_S)):
            for function in plan.COMPILE16_FUNCTIONS:
                seed = seeds[function][round_index % len(plan.COMPILE16_SEEDS)]
                started = time.perf_counter()
                artifact = compile_api.compile_one(
                    function, bits=plan.COMPILE16_BITS, config=config, seed=seed
                )
                done.append((function, seed, time.perf_counter() - started, artifact.payload))
    finally:
        if probe:
            probe.uninstall()
    cpu = cpu_seconds() - cpu_before
    targets = {f: registry.get(f, plan.COMPILE16_BITS) for f in plan.COMPILE16_FUNCTIONS}
    meds = []
    for function, seed, _, payload in done:
        out.attempted += 1
        reason, med = checks.check_artifact(
            ctx.expected["compile16"].get(f"{function}:{seed}"), payload, targets[function]
        )
        meds.append(med)
        if reason:
            out.fail(f"compile16 {function}:{seed}: {reason}")
    walls = [wall for _, _, wall, _ in done]
    if not probe:
        closed_loop_metrics(out, walls, walls, cpu, meds)
        return out
    collected = probe.collect()
    out.metrics.update(layer_metrics(collected))
    attributed = (
        collected["layers"].get(tracer.SEARCH, {}).get("union_s", 0.0)
        + out.metrics["compile.target_s"]
        + out.metrics["compile.artifact_s"]
    )
    out.metrics["trace.overhead_frac"] = overhead_frac(collected, cpu)
    out.metrics["trace.unattributed_frac"] = 1.0 - attributed / sum(walls)
    return out


# ======================================================================
# serve-mixed
# ======================================================================
def _balanced(rng: np.random.Generator, share: float, block: int = 10):
    """Endless booleans, True in exactly ``share`` of every ``block``."""
    while True:
        flags = np.arange(block) < round(share * block)
        yield from (bool(flag) for flag in rng.permutation(flags))


def serve_shots(rng: np.random.Generator, ctx: Context) -> List[loadgen.Shot]:
    """The request schedule: ``lo`` then ``hi`` rate, keys per SERVE_*.

    New keys walk the (function, bits) combinations in shuffled passes,
    a fresh one at the start of each phase, and the repeat and raw-table
    choices are balanced in blocks of ten, so every seed offers the
    daemon nearly the same mix of work.
    """
    seeds = {}
    for form, keys in plan.serve_keys().items():
        for _, function, bits, seed in keys:
            seeds.setdefault((form, function, bits), []).append(seed)
    for choices in seeds.values():
        rng.shuffle(choices)
    combos = sorted({(f, b) for _, f, b in seeds})
    deck: List[Tuple[str, int]] = []
    repeats = _balanced(rng, SERVE_REPEAT_SHARE)
    raws = _balanced(rng, SERVE_RAW_SHARE)
    lo_s = SERVE_LO_SHARE * ctx.seconds
    dues = [(d, "lo") for d in loadgen.schedule(ctx.lo_rps, 0.0, lo_s)]
    dues += [(d, "hi") for d in loadgen.schedule(ctx.hi_rps, lo_s, ctx.seconds - lo_s)]
    history: List[plan.Key] = []
    bodies: Dict[plan.Key, bytes] = {}
    shots = []
    for due, phase in dues:
        if shots and shots[-1].phase != phase:
            deck = []  # each phase starts a fresh pass over the combinations
        if next(repeats) and history:
            back = min(int(rng.geometric(1.0 / SERVE_RECENT_MEAN)) - 1, len(history) - 1)
            key = history[-1 - back]
        else:
            if not deck:
                deck = [combos[i] for i in rng.permutation(len(combos))]
            function, bits = deck.pop()
            form = "table" if next(raws) and seeds[("table", function, bits)] else "benchmark"
            key = (form, function, bits, seeds[(form, function, bits)].pop())
            history.append(key)
            bodies[key] = json.dumps(plan.request_document(key)).encode()
        shots.append(loadgen.Shot(due, phase, key, bodies[key]))
    return shots


def _check_answers(ctx: Context, out: Outcome, answers) -> Tuple[List[bool], Dict]:
    """Check every answer: whether each is correct, and the recomputed
    MED of each distinct key."""
    expected = ctx.expected["serve-mixed"]
    verdicts: Dict[Any, Any] = {}
    meds: Dict[plan.Key, float] = {}
    correct = []
    for key, status, document, error in answers:
        out.attempted += 1
        name = plan.key_name(key)
        if status != 200 or document is None:
            out.fail(f"serve {name}: HTTP {status} {error or document}")
            correct.append(False)
            continue
        payload = document["artifact"]
        digest = checks.artifact_digest(payload)
        if (key, digest) not in verdicts:
            verdicts[(key, digest)] = checks.check_artifact(
                expected.get(name), payload, plan.key_target(key)
            )
        reason, med = verdicts[(key, digest)]
        meds[key] = med
        correct.append(reason is None)
        if reason:
            out.fail(f"serve {name}: {reason}")
    return correct, meds


def _serve_config():
    """The daemon's default config, with no more pool workers than cores."""
    from repro.serve.service import ServeConfig

    return ServeConfig(jobs=min(ServeConfig().jobs, nproc()))


def serve_mixed(ctx: Context) -> Outcome:
    from repro.serve.daemon import ServeDaemon

    rng = np.random.default_rng(ctx.seed)
    shots = serve_shots(rng, ctx)
    warm = plan.SERVE_WARM_KEY
    warm_body = json.dumps(plan.request_document(warm)).encode()
    out = Outcome()
    probe = _traced(ctx) if ctx.trace else None
    if probe:
        probe.install()
    try:
        daemon = ServeDaemon(_serve_config()).start()
        try:
            send = loadgen.http_sender(daemon.url)
            warm_answer = send(warm_body)
            cpu_before = cpu_seconds()
            started = time.perf_counter()
            results = loadgen.OpenLoop(send, min(SERVE_CONNECTIONS, nproc())).run(shots)
            wall = time.perf_counter() - started
            cache_stats = daemon.service.cache.stats()
        finally:
            daemon.stop()
        cpu = cpu_seconds() - cpu_before
        collected = probe.collect() if probe else None
    finally:
        if probe:
            probe.uninstall()

    documents = [json.loads(r.body) if r.body else None for r in results]
    answers = [(warm, warm_answer[0], json.loads(warm_answer[1]), None)]
    answers += [
        (r.shot.key, r.status, document, r.error) for r, document in zip(results, documents)
    ]
    correct, meds = _check_answers(ctx, out, answers)
    correct = correct[1:]  # drop the warm-up answer
    sources = [document.get("source") if document else None for document in documents]
    latency: Dict[str, List[float]] = {}
    for ok, source, r in zip(correct, sources, results):
        if not ok:
            continue
        kind = {"memory": "hit", "disk": "hit", "computed": "miss"}.get(source, source)
        latency.setdefault(f"{r.shot.phase}.{kind}", []).append(r.latency)
    summaries = {name: stats.summarize(values) for name, values in latency.items()}
    for name in sorted(summaries):
        out.report.append(f"{name}: {summaries[name].describe()}")
    late = stats.summarize(r.late for r in results)
    out.report.append(f"generator lateness: {late.describe()}")
    if stats.tail_or_max(late) > loadgen.LATE_LIMIT:
        out.report.append(
            f"INVALID: the generator itself ran {stats.tail_or_max(late):.3f} s late "
            f"(limit {loadgen.LATE_LIMIT} s)"
        )
    computed = sum(len(v) for k, v in latency.items() if k.endswith(".miss"))
    hi_s = ctx.seconds * (1 - SERVE_LO_SHARE)
    good_hi = sum(
        1
        for ok, r in zip(correct, results)
        if ok and r.shot.phase == "hi" and r.latency <= GOODPUT_LIMIT_S
    )
    miss_hi = summaries.get("hi.miss")
    phase_metrics = {
        "lo.miss_p50_s": summaries["lo.miss"].p50 if "lo.miss" in summaries else 0.0,
        "hi.miss_p50_s": miss_hi.p50 if miss_hi else 0.0,
        "hi.miss_tail_s": stats.tail_or_max(miss_hi) if miss_hi else 0.0,
        "hi.hit_p50_s": summaries["hi.hit"].p50 if "hi.hit" in summaries else 0.0,
        "hi.goodput_rps": good_hi / hi_s,
        "loadgen.late_max_s": late.max,
    }
    out.report.append(
        f"{len(results)} requests, {len(meds)} distinct keys, "
        f"{computed} computed, cache {cache_stats}"
    )
    if not probe:
        out.metrics.update(phase_metrics)
        out.metrics.update(
            {
                "compiles_per_s": computed / wall,
                "cpu_s_per_compile": cpu / computed,
                "goodput_rps": phase_metrics["hi.goodput_rps"],
                "med_geomean": checks.shifted_geomean(meds.values()),
            }
        )
        return out

    layers = collected["layers"]

    def per_call(layer: str) -> float:
        fields = layers.get(layer, {})
        return fields.get("sum_s", 0.0) / fields["calls"] if fields.get("calls") else 0.0

    batches = layers.get(tracer.EXEC, {}).get("calls", 0)
    counters = collected["counters"]
    hits = counters.get("serve.cache_hits", 0)
    lookups = hits + counters.get("serve.cache_misses", 0)
    exec_per_batch = tracer.self_time(layers, tracer.EXEC) / batches if batches else 0.0
    misses = latency.get("hi.miss", [])
    out.metrics.update(layer_metrics(collected))
    out.metrics.update(phase_metrics)
    out.metrics.update(
        {
            "serve.parse_s": per_call(tracer.PARSE),
            "serve.cache_get_s": per_call(tracer.CACHE_GET),
            "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "serve.exec_s": exec_per_batch,
            "serve.batch_size_mean": (
                layers[tracer.EXEC]["items"] / batches if batches else 0.0
            ),
            "serve.coalesced": sources.count("coalesced"),
            "serve.wait_s": (
                statistics.fmean(misses)
                - per_call(tracer.PARSE)
                - per_call(tracer.CACHE_GET)
                - exec_per_batch
                - per_call(tracer.ARTIFACT)
                if misses
                else 0.0
            ),
            "trace.overhead_frac": overhead_frac(collected, cpu),
        }
    )
    return out


# ======================================================================
# set-up, as a fresh process pays it
# ======================================================================
def setup_probe(workload: str) -> None:
    """Everything a workload needs before its first compile, from a cold
    interpreter: imports, targets, specs, and for serve-mixed a started
    daemon that has answered one request."""
    if workload == "table2":
        from repro.experiments import engine  # noqa: F401
        from repro.experiments.runner import ExperimentScale, build_suite

        build_suite(ExperimentScale.by_name(plan.TABLE2_SCALE))
    elif workload == "compile16":
        from repro import compile_api

        for function in plan.COMPILE16_FUNCTIONS:
            target = compile_api.build_target(function, bits=plan.COMPILE16_BITS)
            compile_api.build_run_spec(target, config=plan.compile16_config())
    elif workload == "serve-mixed":
        from repro.serve.daemon import ServeDaemon

        with ServeDaemon(_serve_config()) as daemon:
            status, _ = loadgen.http_sender(daemon.url)(
                json.dumps(plan.request_document(plan.SERVE_WARM_KEY)).encode()
            )
        if status != 200:
            raise RuntimeError(f"warm-up request failed with HTTP {status}")
    else:
        raise ValueError(f"unknown workload {workload!r}")


RUNNERS = {"table2": table2, "compile16": compile16, "serve-mixed": serve_mixed}
