"""What each workload compiles: seed pools, configurations, requests.

Every input a run uses is drawn from ``--seed`` out of the fixed pools
below.  ``make_expected.py`` computes the output of every pool member
once, on the reference kernels, so a run is checked against values the
code under test never produced.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

WORKLOADS = ("table2", "compile16", "serve-mixed")

# --- table2: the `repro run table2` campaign at the default scale -----
TABLE2_SCALE = "default"
TABLE2_WORKERS = 2
#: campaign base seeds a run may draw (each is 60 jobs)
TABLE2_BASE_SEEDS = tuple(range(6))
#: nominal seconds of one campaign on two cores; a run does
#: round(--seconds / this) campaigns
TABLE2_CAMPAIGN_S = 18.0

# --- compile16: in-process compile_one at the paper's 16-bit shape ----
COMPILE16_FUNCTIONS = ("cos", "exp", "multiplier")
COMPILE16_BITS = 16
COMPILE16_SEEDS = (0, 1)
#: nominal seconds of one round (one compile per function); a run does
#: round(--seconds / this) rounds
COMPILE16_ROUND_S = 18.0

# --- serve-mixed: open-loop HTTP traffic against ServeDaemon -----------
SERVE_BUDGET = "fast"
#: benchmark-form keys draw their seed from here ...
SERVE_SEEDS = tuple(range(12))
#: ... raw-table keys from here
SERVE_RAW_SEEDS = tuple(range(3))
#: the set-up probe's warm-up request; outside the pools on purpose
SERVE_WARM_KEY = ("benchmark", "cos", 6, 99)

Key = Tuple[str, str, int, int]  # (form, function, bits, seed)


def compile16_config():
    """Paper BS-SA (b = 9, Z = 30) with the partition limit and rounds cut."""
    from repro.core.config import AlgorithmConfig

    return replace(AlgorithmConfig.paper_bssa(), partition_limit=3, rounds=1)


def serve_bits(function: str) -> Tuple[int, ...]:
    """6 to 10 bits; the two-operand functions need an even width."""
    from repro import workloads

    if function in workloads.continuous_names():
        return (6, 7, 8, 9, 10)
    return (6, 8, 10)


def serve_keys() -> Dict[str, List[Key]]:
    """The request key pools, by form, over all ten registered functions."""
    from repro import workloads

    pools: Dict[str, List[Key]] = {"benchmark": [], "table": []}
    for function in workloads.names():
        for bits in serve_bits(function):
            for seed in SERVE_SEEDS:
                pools["benchmark"].append(("benchmark", function, bits, seed))
            for seed in SERVE_RAW_SEEDS:
                pools["table"].append(("table", function, bits, seed))
    return pools


def key_name(key: Key) -> str:
    return ":".join(str(part) for part in key)


def request_document(key: Key) -> dict:
    """The ``POST /compile`` body for one key."""
    from repro import workloads

    form, function, bits, seed = key
    if form == "benchmark":
        return {
            "benchmark": function,
            "bits": bits,
            "budget": SERVE_BUDGET,
            "seed": seed,
        }
    target = workloads.get(function, bits)
    return {
        "table": np.asarray(target.table).tolist(),
        "n_outputs": target.n_outputs,
        "name": f"raw-{function}",
        "budget": SERVE_BUDGET,
        "seed": seed,
    }


def key_target(key: Key):
    """The target function a key's artifact must approximate."""
    from repro import workloads

    return workloads.get(key[1], key[2])
