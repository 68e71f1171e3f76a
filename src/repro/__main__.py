"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the benchmark suite (Table I).
``compile``
    Compile a benchmark into an approximate LUT, print its report and
    optionally save the configuration / RTL.
``experiment``
    Rerun one of the paper's experiments (table1/table2/fig5/fig6 or an
    ablation) at a chosen scale.
``run``
    Run a paper experiment as a fault-tolerant, checkpointed campaign
    under a campaign directory.
``resume``
    Resume an interrupted campaign from its checkpoint directory.
``status``
    Show a campaign directory's progress (done / pending /
    quarantined).
``info``
    Describe a saved configuration file.
``summarize``
    Per-phase breakdown of a JSONL telemetry trace file.
``top``
    Live terminal view of a running ``--metrics-port`` campaign.
``serve``
    Run the compiler as a long-lived HTTP/JSON daemon: ``POST
    /compile`` with a truth table, workload name, or full spec;
    responses are byte-identical to offline ``repro compile``
    (see ``docs/serving.md``).

Every command accepts ``--trace out.jsonl`` (record a JSONL telemetry
trace plus a run manifest) and ``--verbose`` (stderr progress lines);
see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import compile_api, obs, workloads
from .core import serialize
from .experiments.runner import SCALE_NAMES, ExperimentScale

# The harnesses and the campaign engine are imported inside the commands
# that run them, so ``compile``, ``info`` or ``--help`` never load them.

#: named search budgets (shared with the serve daemon's request knob)
_CONFIGS = compile_api.BUDGETS


def _cmd_list(_args) -> int:
    from .experiments.table1 import run_table1

    print(run_table1(16, build=False).render())
    return 0


def _cmd_compile(args) -> int:
    print(
        f"compiling {args.benchmark} ({args.bits}-bit) onto "
        f"{args.architecture} with {args.algorithm} ..."
    )
    # The serve daemon runs the same RunSpec and artifact_from_result()
    # per request — byte-identical outputs (tests/serve pins this).
    artifact = compile_api.compile_one(
        args.benchmark,
        bits=args.bits,
        architecture=args.architecture,
        algorithm=args.algorithm,
        budget=args.budget,
        seed=args.seed,
    )
    lut = artifact.lut
    print(f"MED: {lut.med:.4f}   modes: {lut.mode_counts()}")
    print(lut.hardware().report())
    if args.save:
        serialize.save(lut, args.save)
        print(f"configuration saved to {args.save}")
    if args.verilog:
        with open(args.verilog, "w") as handle:
            handle.write(lut.to_verilog())
        print(f"RTL written to {args.verilog}")
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import (
        run_ablation,
        run_fig5,
        run_fig6,
        run_shared_bits_study,
        run_table1,
        run_table2,
    )

    scale = ExperimentScale.by_name(args.scale)
    runners = {
        "table1": lambda: run_table1(scale.n_inputs),
        "table2": lambda: run_table2(scale, base_seed=args.seed or 0),
        "fig5": lambda: run_fig5(scale, base_seed=args.seed or 0),
        "fig6": lambda: run_fig6("cos", scale, base_seed=args.seed or 0),
        "ablation-predictive": lambda: run_ablation("predictive_model", scale),
        "ablation-beam": lambda: run_ablation("beam_width", scale),
        "ablation-sa": lambda: run_ablation("partition_search", scale),
        "shared-bits": lambda: run_shared_bits_study(scale),
    }
    result = runners[args.name]()
    print(result.render())
    return 0


def _cmd_info(args) -> int:
    import json

    with open(args.path) as handle:
        payload = json.load(handle)
    target = payload.get("target", {})
    print(f"file:        {args.path}")
    print(f"format:      {payload.get('format')} v{payload.get('version')}")
    print(
        f"target:      {target.get('name')} "
        f"({target.get('n_inputs')}-in / {target.get('n_outputs')}-out)"
    )
    print(f"architecture: {payload.get('architecture')}")
    print(f"recorded MED: {payload.get('med')}")
    modes: dict = {}
    for setting in payload.get("settings", []):
        modes[setting["mode"]] = modes.get(setting["mode"], 0) + 1
    print(f"modes:       {modes}")
    return 0


def _jobs_arg(text: str) -> int:
    """argparse type for ``--jobs``: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (got {value}); omit --jobs to use all CPUs"
        )
    return value


def _campaign_setup(args):
    """Engine config and ``REPRO_FAULTS`` plan of ``run``/``resume``.

    Raises ``ValueError`` for a bad option or fault plan, which the
    commands report as a configuration error (exit 2).
    """
    from . import faults
    from .experiments.engine import EngineConfig, resolve_jobs

    config = EngineConfig(
        n_jobs=resolve_jobs(args.jobs),
        job_timeout=args.timeout,
        max_retries=args.retries,
        metrics_port=args.metrics_port,
    )
    return config, faults.from_env()


def _report_outcome(outcome) -> int:
    from .experiments import reporting

    summary = reporting.format_campaign_summary(outcome)
    first, _, details = summary.partition("\n")
    print(first)
    if outcome.quarantined:
        print(details, file=sys.stderr)
        return 3
    return 0


def _cmd_run(args) -> int:
    from .experiments.engine import run_experiment_campaign

    try:
        config, plan = _campaign_setup(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, outcome = run_experiment_campaign(
        args.experiment,
        args.scale,
        base_seed=args.seed or 0,
        campaign_dir=args.dir,
        config=config,
        faults=plan,
    )
    print(result.render())
    return _report_outcome(outcome)


def _cmd_resume(args) -> int:
    from .experiments.engine import CampaignError, resume_campaign

    try:
        config, plan = _campaign_setup(args)
        result, outcome = resume_campaign(args.dir, config=config, faults=plan)
    except (ValueError, CampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    return _report_outcome(outcome)


def _cmd_status(args) -> int:
    from .experiments.engine import CampaignError, campaign_status

    try:
        print(campaign_status(args.dir).render())
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_summarize(args) -> int:
    try:
        records, bad_lineno = obs.summarize.load_trace_tolerant(args.path)
    except FileNotFoundError:
        print(f"error: trace file not found: {args.path}", file=sys.stderr)
        return 2
    if bad_lineno is not None and not records:
        # the first non-blank line is no JSON record: a whole-file JSON
        # document or some other file, not a truncated trace
        print(
            f"error: {args.path} is not a JSONL telemetry trace", file=sys.stderr
        )
        return 2
    if bad_lineno is not None:
        print(
            f"warning: {args.path} is truncated at line {bad_lineno} "
            f"(summarising the {len(records)} record(s) before it)",
            file=sys.stderr,
        )
    print(obs.summarize.summarize(records).render())
    return 0


def _cmd_top(args) -> int:
    import json
    import time
    import urllib.error
    import urllib.request

    address = args.address
    if "://" not in address:
        address = "http://" + address
    base = address.rstrip("/")
    first = True
    while True:
        try:
            with urllib.request.urlopen(base + "/state", timeout=5) as response:
                state = json.load(response)
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            if first:
                print(f"error: cannot reach {base}/state: {exc}", file=sys.stderr)
                return 2
            # The campaign stops its server when it finishes; a later
            # refresh failing is the normal end of a `top` session.
            print(f"[repro top] endpoint gone ({exc}); campaign over?")
            return 0
        frame = obs.exposition.render_top(state)
        if not args.once and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        elif not first:
            print("---")
        print(frame, end="")
        if args.once:
            return 0
        first = False
        time.sleep(args.interval)


def _cmd_serve(args) -> int:
    import signal

    from .experiments.engine import resolve_jobs
    from .serve import ServeConfig, ServeDaemon

    try:
        config = ServeConfig(
            jobs=resolve_jobs(args.jobs),
            artifact_dir=args.artifact_dir,
            cache_size=args.cache_size,
            batch_window=args.batch_window,
            max_batch=args.max_batch,
            max_retries=args.retries,
            rate=args.rate,
            burst=args.burst,
            request_timeout=args.request_timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    daemon = ServeDaemon(config, host=args.host, port=args.port)
    try:
        daemon.start()
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    try:
        print(
            f"repro serve listening on {daemon.url} "
            f"(jobs={config.jobs})"
        )
        print(
            "POST /compile — metrics at /metrics, health at /healthz "
            "(docs/serving.md)"
        )
        # `kill <pid>` stops the daemon like Ctrl-C: the pool closes and
        # the shared-memory table segments are unlinked
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        daemon.serve_forever()
        print("shutting down")
    finally:
        daemon.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--trace",
        metavar="PATH",
        help="record a JSONL telemetry trace (plus run manifest) here",
    )
    telemetry.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="print progress/span lines to stderr while running",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="show the benchmark suite", parents=[telemetry]
    ).set_defaults(func=_cmd_list)

    compile_parser = sub.add_parser(
        "compile", help="compile a benchmark", parents=[telemetry]
    )
    compile_parser.add_argument("benchmark", choices=workloads.names())
    compile_parser.add_argument("--bits", type=int, default=10)
    compile_parser.add_argument(
        "--architecture",
        default="bto-normal-nd",
        choices=["dalta", "bto-normal", "bto-normal-nd"],
    )
    compile_parser.add_argument(
        "--algorithm", default="bs-sa", choices=["bs-sa", "dalta"]
    )
    compile_parser.add_argument(
        "--budget", default="reduced", choices=sorted(_CONFIGS)
    )
    compile_parser.add_argument("--seed", type=int, default=0)
    compile_parser.add_argument("--save", help="write configuration JSON here")
    compile_parser.add_argument("--verilog", help="write RTL here")
    compile_parser.set_defaults(func=_cmd_compile)

    experiment_parser = sub.add_parser(
        "experiment", help="rerun a paper experiment", parents=[telemetry]
    )
    experiment_parser.add_argument(
        "name",
        choices=[
            "table1",
            "table2",
            "fig5",
            "fig6",
            "ablation-predictive",
            "ablation-beam",
            "ablation-sa",
            "shared-bits",
        ],
    )
    experiment_parser.add_argument(
        "--scale", default="default", choices=sorted(SCALE_NAMES)
    )
    experiment_parser.add_argument("--seed", type=int)
    experiment_parser.set_defaults(func=_cmd_experiment)

    engine_opts = argparse.ArgumentParser(add_help=False)
    engine_opts.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=None,
        help=(
            "concurrent worker processes "
            "(default: all CPUs, clamped to the job count)"
        ),
    )
    engine_opts.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock timeout in seconds",
    )
    engine_opts.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retries per job before quarantine",
    )
    engine_opts.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve live Prometheus /metrics + /healthz on this port "
            "while the campaign runs (0 = pick a free port; watch it "
            "with `repro top`)"
        ),
    )

    run_parser = sub.add_parser(
        "run",
        help="run an experiment as a checkpointed campaign",
        parents=[telemetry, engine_opts],
    )
    run_parser.add_argument("experiment", choices=["table2", "fig5"])
    run_parser.add_argument(
        "--dir", required=True, help="campaign checkpoint directory"
    )
    run_parser.add_argument("--scale", default="smoke", choices=sorted(SCALE_NAMES))
    run_parser.add_argument("--seed", type=int)
    run_parser.set_defaults(func=_cmd_run)

    resume_parser = sub.add_parser(
        "resume",
        help="resume an interrupted campaign",
        parents=[telemetry, engine_opts],
    )
    resume_parser.add_argument("dir", help="campaign checkpoint directory")
    resume_parser.set_defaults(func=_cmd_resume)

    status_parser = sub.add_parser(
        "status", help="show a campaign directory's progress"
    )
    status_parser.add_argument("dir", help="campaign checkpoint directory")
    status_parser.set_defaults(func=_cmd_status)

    info_parser = sub.add_parser(
        "info", help="describe a saved configuration", parents=[telemetry]
    )
    info_parser.add_argument("path")
    info_parser.set_defaults(func=_cmd_info)

    summarize_parser = sub.add_parser(
        "summarize",
        help="per-phase breakdown of a JSONL telemetry trace file",
    )
    summarize_parser.add_argument("path")
    summarize_parser.set_defaults(func=_cmd_summarize)

    top_parser = sub.add_parser(
        "top", help="live terminal view of a --metrics-port campaign"
    )
    top_parser.add_argument(
        "address",
        help="host:port (or URL) printed by the campaign's --metrics-port",
    )
    top_parser.add_argument(
        "--interval", type=float, default=2.0, help="refresh period (s)"
    )
    top_parser.add_argument(
        "--once", action="store_true", help="print one frame and exit"
    )
    top_parser.set_defaults(func=_cmd_top)

    serve_parser = sub.add_parser(
        "serve",
        help="run the compiler as an HTTP/JSON daemon",
        parents=[telemetry],
    )
    serve_parser.add_argument(
        "--port", type=int, default=8642, help="listen port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (loopback default)"
    )
    serve_parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=None,
        help="pool worker processes (default: all CPUs)",
    )
    serve_parser.add_argument(
        "--artifact-dir",
        default=None,
        metavar="DIR",
        help=(
            "disk layer of the artifact cache: compiled artifacts are "
            "stored content-addressed here and survive daemon restarts"
        ),
    )
    serve_parser.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="in-memory artifact LRU capacity (default %(default)s)",
    )
    serve_parser.add_argument(
        "--batch-window",
        type=float,
        default=0.02,
        metavar="SECONDS",
        help=(
            "how long the dispatcher gathers concurrent requests into "
            "one pool batch (default %(default)ss)"
        ),
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="largest request batch per dispatch round (default %(default)s)",
    )
    serve_parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retries per job after a worker error/death (default %(default)s)",
    )
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="PER_SECOND",
        help=(
            "token-bucket rate limit; over-limit requests get 429 + "
            "Retry-After (default: unlimited)"
        ),
    )
    serve_parser.add_argument(
        "--burst",
        type=int,
        default=16,
        help="token-bucket burst depth (default %(default)s)",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="504 deadline for one compile request (default %(default)s)",
    )
    serve_parser.set_defaults(func=_cmd_serve)
    return parser


def _run_traced(args) -> int:
    """Execute a command under a telemetry session.

    Builds the sinks requested on the command line, wraps the command
    in a root span, then (when tracing to a file) appends a run
    manifest — config hash of the full invocation, spawned seeds, git
    revision, per-phase timings — and prints the phase breakdown.
    """
    from .experiments import reporting

    memory = obs.MemorySink()
    sinks: list = [memory]
    if args.trace:
        sinks.append(obs.JsonlSink(args.trace))
    if args.verbose:
        sinks.append(obs.StderrSink(verbose=True))

    with obs.session(*sinks):
        with obs.span(f"cli.{args.command}"):
            status = args.func(args)

    summary = obs.summarize.summarize(memory.records)
    if args.trace:
        invocation = {
            key: value
            for key, value in vars(args).items()
            if key not in ("func",)
        }
        manifest = obs.RunManifest.build(
            command=f"repro {args.command}",
            config=invocation,
            base_seed=getattr(args, "seed", None),
            counters=summary.counters,
            phase_timings=summary.phase_timings(),
        )
        for record in memory.events("run.seeded"):
            manifest.add_seed(record.get("attrs", {}))
        manifest.append_to(args.trace)
        print(f"telemetry trace + manifest written to {args.trace}")
    if summary.phases:
        print(reporting.format_phase_timings(summary.phase_timings()))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace", None) or getattr(args, "verbose", False):
        return _run_traced(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
