"""``compile_one`` — the shared offline/served compilation body.

The load-bearing property: wrapping a compilation in a ``RunSpec``
(what the daemon and the warm pool execute) changes nothing about the
search, so ``compile_one`` is byte-identical to calling
``repro.approximate`` directly — same settings document, same MED,
same Verilog text.
"""

import json

import pytest

from repro import approximate, workloads
from repro.compile_api import (
    BUDGETS,
    budget_config,
    build_run_spec,
    build_target,
    canonical_json,
    compile_one,
    requested_architecture,
)
from repro.core import serialize

from .conftest import BENCHMARK_FINGERPRINT


class TestBuilders:
    def test_budget_config_seeds(self):
        config = budget_config("fast", seed=7)
        assert config.seed == 7
        with pytest.raises(ValueError, match="unknown budget"):
            budget_config("exhaustive")

    def test_budgets_cover_cli_choices(self):
        assert set(BUDGETS) == {"fast", "reduced", "paper"}

    def test_build_target_exclusive_arguments(self):
        with pytest.raises(ValueError, match="exactly one"):
            build_target()
        with pytest.raises(ValueError, match="exactly one"):
            build_target("cos", table=[0, 1])
        with pytest.raises(ValueError, match="n_outputs"):
            build_target(table=[0, 1, 1, 0])
        with pytest.raises(ValueError, match="power of two"):
            build_target(table=[0, 1, 1], n_outputs=1)
        with pytest.raises(ValueError, match="too large"):
            build_target(table=[0] * (1 << 17), n_outputs=1)

    def test_build_run_spec_validates_names(self):
        target = build_target("cos", bits=4)
        with pytest.raises(ValueError, match="unknown architecture"):
            build_run_spec(target, architecture="systolic")
        with pytest.raises(ValueError, match="unknown algorithm"):
            build_run_spec(target, algorithm="greedy")

    def test_architecture_mapping_is_a_bijection(self):
        # dalta hardware searches in plain "normal" mode and back; the
        # BTO architectures map to themselves.  This is what lets one
        # fingerprint name one artifact.
        for hardware in ("dalta", "bto-normal", "bto-normal-nd"):
            target = build_target("cos", bits=4)
            spec = build_run_spec(
                target, hardware, config=budget_config("fast")
            )
            assert requested_architecture(spec) == hardware


class TestCompileOne:
    def test_matches_direct_approximate(self, fast_config):
        artifact = compile_one(
            "cos", bits=6, budget="fast", seed=7, architecture="bto-normal-nd"
        )
        lut = approximate(
            workloads.get("cos", n_inputs=6),
            architecture="bto-normal-nd",
            algorithm="bs-sa",
            config=fast_config,
        )
        assert artifact.payload["med"] == lut.med
        assert artifact.payload["verilog"] == lut.to_verilog()
        assert artifact.payload["config"] == json.loads(serialize.dumps(lut))
        assert artifact.fingerprint == BENCHMARK_FINGERPRINT

    def test_dalta_matches_direct_approximate(self, fast_config):
        artifact = compile_one(
            "multiplier",
            bits=6,
            budget="fast",
            seed=7,
            architecture="dalta",
            algorithm="dalta",
        )
        lut = approximate(
            workloads.get("multiplier", n_inputs=6),
            architecture="dalta",
            algorithm="dalta",
            config=fast_config,
        )
        assert artifact.payload["med"] == lut.med
        assert artifact.payload["verilog"] == lut.to_verilog()
        assert artifact.payload["architecture"] == "dalta"
        assert set(artifact.payload["mode_counts"]) == {"normal"}

    def test_raw_table_path(self):
        table = [0, 1, 3, 2, 6, 7, 5, 4]  # 3-bit Gray code
        artifact = compile_one(
            table=table, n_outputs=3, name="gray3", budget="fast", seed=0
        )
        assert artifact.payload["target"] == {
            "name": "gray3",
            "n_inputs": 3,
            "n_outputs": 3,
        }
        assert artifact.payload["error"]["med"] == artifact.med

    def test_payload_is_json_stable(self):
        artifact = compile_one("cos", bits=5, budget="fast", seed=3)
        text = canonical_json(artifact.payload)
        assert canonical_json(json.loads(text)) == text
        assert artifact.canonical() == text
        assert artifact.payload["schema"] == 1

    def test_determinism_across_calls(self):
        first = compile_one("tan", bits=5, budget="fast", seed=11)
        second = compile_one("tan", bits=5, budget="fast", seed=11)
        assert first.canonical() == second.canonical()

    def test_seed_changes_fingerprint(self):
        first = compile_one("cos", bits=5, budget="fast", seed=0)
        second = compile_one("cos", bits=5, budget="fast", seed=1)
        assert first.fingerprint != second.fingerprint
