"""Request-schema validation for ``POST /compile``."""

import dataclasses

import pytest

from repro.compile_api import budget_config
from repro.serve.schema import RequestError, parse_compile_request

from .conftest import bench_doc


def spec_doc(**overrides):
    """A minimal valid spec-form document (2-bit Gray code)."""
    fields = {
        "algorithm": "bs-sa",
        "table": [0, 1, 3, 2],
        "n_inputs": 2,
        "n_outputs": 2,
        "name": "gray2",
        "config": dataclasses.asdict(budget_config("fast", 7)),
        "architecture": "bto-normal-nd",
        "direct_seed": 7,
    }
    fields.update(overrides)
    for key in [key for key, value in fields.items() if value is None]:
        del fields[key]
    return {"spec": fields}


class TestDispatch:
    def test_rejects_non_object(self):
        for body in (None, 3, "cos", [1, 2]):
            with pytest.raises(RequestError, match="JSON object"):
                parse_compile_request(body)

    def test_requires_exactly_one_form(self):
        with pytest.raises(RequestError, match="exactly one"):
            parse_compile_request({})
        with pytest.raises(RequestError, match="exactly one"):
            parse_compile_request({"benchmark": "cos", "table": [0, 1]})


class TestBenchmarkForm:
    def test_parses_and_fingerprints(self):
        request = parse_compile_request(bench_doc())
        assert request.form == "benchmark"
        assert request.architecture == "bto-normal-nd"
        assert len(request.fingerprint) == 16

    def test_unknown_benchmark_is_404(self):
        with pytest.raises(RequestError) as excinfo:
            parse_compile_request(bench_doc(benchmark="fft"))
        assert excinfo.value.status == 404

    def test_unknown_keys_rejected(self):
        with pytest.raises(RequestError, match="unknown keys"):
            parse_compile_request(bench_doc(timeout=5))

    def test_bits_bounds(self):
        for bits in (1, 17, "ten", True):
            with pytest.raises(RequestError):
                parse_compile_request(bench_doc(bits=bits))

    def test_knob_validation(self):
        with pytest.raises(RequestError, match="unknown architecture"):
            parse_compile_request(bench_doc(architecture="systolic"))
        with pytest.raises(RequestError, match="unknown algorithm"):
            parse_compile_request(bench_doc(algorithm="greedy"))
        with pytest.raises(RequestError, match="unknown budget"):
            parse_compile_request(bench_doc(budget="exhaustive"))
        with pytest.raises(RequestError, match="seed"):
            parse_compile_request(bench_doc(seed="seven"))

    @pytest.mark.parametrize("budget", [["x"], {}], ids=["list", "object"])
    def test_non_string_budget_is_a_400(self, budget):
        with pytest.raises(RequestError, match="unknown budget") as excinfo:
            parse_compile_request(bench_doc(budget=budget))
        assert excinfo.value.status == 400

    def test_negative_seed_rejected(self):
        with pytest.raises(RequestError, match="non-negative") as excinfo:
            parse_compile_request(bench_doc(seed=-1))
        assert excinfo.value.status == 400

    def test_seed_selects_distinct_artifacts(self):
        first = parse_compile_request(bench_doc(seed=0))
        second = parse_compile_request(bench_doc(seed=1))
        assert first.fingerprint != second.fingerprint


class TestTableForm:
    def test_parses_raw_table(self):
        request = parse_compile_request(
            {"table": [0, 1, 3, 2], "n_outputs": 2, "name": "gray2"}
        )
        assert request.form == "table"
        assert request.spec.target_function().n_inputs == 2

    def test_requires_n_outputs(self):
        with pytest.raises(RequestError, match="n_outputs"):
            parse_compile_request({"table": [0, 1, 3, 2]})

    def test_table_entry_types(self):
        with pytest.raises(RequestError, match="non-empty array"):
            parse_compile_request({"table": [], "n_outputs": 1})
        with pytest.raises(RequestError, match="integers"):
            parse_compile_request({"table": [0, True], "n_outputs": 1})
        with pytest.raises(RequestError, match="integers"):
            parse_compile_request({"table": [0, 1.5], "n_outputs": 1})

    def test_oversize_table_is_413(self):
        with pytest.raises(RequestError) as excinfo:
            parse_compile_request(
                {"table": [0] * ((1 << 16) + 1), "n_outputs": 1}
            )
        assert excinfo.value.status == 413

    def test_bad_name_rejected(self):
        with pytest.raises(RequestError, match="name"):
            parse_compile_request(
                {"table": [0, 1], "n_outputs": 1, "name": "no spaces!"}
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(RequestError, match="non-negative") as excinfo:
            parse_compile_request(
                {"table": [0, 1, 3, 2], "n_outputs": 2, "seed": -1}
            )
        assert excinfo.value.status == 400

    def test_non_power_of_two_rejected(self):
        with pytest.raises(RequestError, match="power of two"):
            parse_compile_request({"table": [0, 1, 1], "n_outputs": 1})


class TestSpecForm:
    def test_parses_full_spec(self):
        request = parse_compile_request(spec_doc())
        assert request.form == "spec"
        assert request.architecture == "bto-normal-nd"
        assert request.spec.config.seed == 7

    def test_normal_search_arch_means_dalta_hardware(self):
        request = parse_compile_request(
            spec_doc(architecture="normal", algorithm="dalta")
        )
        assert request.architecture == "dalta"

    def test_top_level_architecture_rejected(self):
        # the hardware architecture is derived from the spec's search
        # architecture — a free-floating override would break the
        # fingerprint -> artifact bijection
        doc = spec_doc()
        doc["architecture"] = "dalta"
        with pytest.raises(RequestError, match="unknown keys"):
            parse_compile_request(doc)

    def test_requires_a_seed(self):
        with pytest.raises(RequestError, match="base_seed or direct_seed"):
            parse_compile_request(spec_doc(direct_seed=None))

    def test_base_seed_alone_is_enough(self):
        request = parse_compile_request(
            spec_doc(direct_seed=None, base_seed=42, spawn_index=3)
        )
        assert request.spec.base_seed == 42

    @pytest.mark.parametrize(
        "seeds",
        [
            {"direct_seed": -1},
            {"direct_seed": None, "base_seed": -1},
            {"direct_seed": 7, "base_seed": -1},
        ],
    )
    def test_negative_seed_rejected(self, seeds):
        with pytest.raises(RequestError, match="non-negative") as excinfo:
            parse_compile_request(spec_doc(**seeds))
        assert excinfo.value.status == 400

    def test_spawn_index_must_be_non_negative(self):
        with pytest.raises(RequestError, match="spawn_index"):
            parse_compile_request(spec_doc(spawn_index=-1))

    def test_missing_and_unknown_keys(self):
        doc = spec_doc()
        del doc["spec"]["config"]
        with pytest.raises(RequestError, match="missing keys"):
            parse_compile_request(doc)
        with pytest.raises(RequestError, match="unknown keys"):
            parse_compile_request(spec_doc(priority=1))

    def test_config_validation(self):
        with pytest.raises(RequestError, match="config must be an object"):
            parse_compile_request(spec_doc(config="fast"))
        with pytest.raises(RequestError, match="unknown config keys"):
            parse_compile_request(spec_doc(config={"steps": 5}))

    def test_table_length_must_match_n_inputs(self):
        with pytest.raises(RequestError, match="expected 8"):
            parse_compile_request(spec_doc(n_inputs=3))

    def test_search_architecture_names(self):
        with pytest.raises(RequestError, match="search architecture"):
            parse_compile_request(spec_doc(architecture="dalta"))

    def test_spec_form_matches_benchmark_form_fingerprint(self):
        # replaying a campaign spec addresses the same artifact as the
        # equivalent benchmark request — one fingerprint, one artifact
        from repro import workloads

        target = workloads.get("cos", n_inputs=6)
        bench = parse_compile_request(bench_doc())
        spec = parse_compile_request(
            spec_doc(
                table=[int(v) for v in target.table],
                n_inputs=6,
                n_outputs=target.n_outputs,
                name=target.name,
            )
        )
        assert spec.fingerprint == bench.fingerprint
