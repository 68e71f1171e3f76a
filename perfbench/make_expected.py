"""Write ``perfbench/expected.json``: every pool member's reference output.

Runs the reference kernels (``caching.fast_paths(False)``) over every
input a benchmark run can draw (see ``plan.py``).  Run it once from the
repository root, and again only when ``plan.py`` changes::

    python3 perfbench/make_expected.py [table2] [compile16] [serve-mixed]

Sections not named keep their current contents (all are rebuilt when
none is named).  Takes about ten minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import checks, plan  # noqa: E402


def table2_section(work_dir: str) -> dict:
    from repro.experiments.engine import EngineConfig, run_experiment_campaign

    section = {}
    for base_seed in plan.TABLE2_BASE_SEEDS:
        campaign_dir = os.path.join(work_dir, f"table2-{base_seed}")
        _, outcome = run_experiment_campaign(
            "table2",
            plan.TABLE2_SCALE,
            base_seed=base_seed,
            campaign_dir=campaign_dir,
            config=EngineConfig(n_jobs=plan.TABLE2_WORKERS),
        )
        section[str(base_seed)] = [
            checks.result_record(r.target.table, r.approx_function.table)
            for r in outcome.require_complete()
        ]
        shutil.rmtree(campaign_dir)
        print(f"table2 base seed {base_seed}: {len(section[str(base_seed)])} jobs")
    return section


def compile16_section() -> dict:
    from repro import compile_api, workloads

    section = {}
    for function in plan.COMPILE16_FUNCTIONS:
        target = workloads.get(function, plan.COMPILE16_BITS)
        for seed in plan.COMPILE16_SEEDS:
            artifact = compile_api.compile_one(
                function,
                bits=plan.COMPILE16_BITS,
                config=plan.compile16_config(),
                seed=seed,
            )
            section[f"{function}:{seed}"] = checks.artifact_record(
                artifact.payload, target
            )
            print(f"compile16 {function}:{seed}: MED {artifact.med}")
    return section


def serve_section() -> dict:
    from repro import compile_api
    from repro.serve.schema import parse_compile_request

    keys = [plan.SERVE_WARM_KEY]
    for pool in plan.serve_keys().values():
        keys.extend(pool)
    section = {}
    for key in keys:
        spec = parse_compile_request(plan.request_document(key)).spec
        payload = compile_api.artifact_from_result(spec, spec.execute()).payload
        section[plan.key_name(key)] = checks.artifact_record(
            payload, plan.key_target(key)
        )
    print(f"serve-mixed: {len(section)} keys")
    return section


def main(argv) -> int:
    from repro import caching

    names = argv or list(plan.WORKLOADS)
    unknown = set(names) - set(plan.WORKLOADS)
    if unknown:
        print(f"unknown workload(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    expected = (
        checks.load_expected() if os.path.exists(checks.EXPECTED_PATH) else {}
    )
    work_dir = os.path.join(ROOT, "perfbench", ".work", f"expected-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    # forked campaign workers inherit the switch
    caching.set_fast_paths(False)
    try:
        if "table2" in names:
            expected["table2"] = table2_section(work_dir)
        if "compile16" in names:
            expected["compile16"] = compile16_section()
        if "serve-mixed" in names:
            expected["serve-mixed"] = serve_section()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(checks.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, sort_keys=True, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
