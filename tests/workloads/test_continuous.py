"""Unit tests for the continuous benchmarks."""

import hashlib
import math

import numpy as np
import pytest

from repro.boolean.function import BooleanFunction
from repro.workloads import CONTINUOUS, build_continuous

#: SHA-256 of the little-endian int64 erf table at each width, built on
#: ``scipy.special.erf`` before erf moved to ``math.erf``
ERF_TABLE_SHA256 = {
    2: "5cce1c2c5058a9ecbe78b360130f5dcf2037e509b9084206c5e816965f5cae2c",
    3: "ffc9e5f9fea70cce389c420b24e0b3a6843ddb1318fd69b7d5ca4e3de604b88e",
    4: "4bc1c5ba373408020260834304a7a2b3c4b4ae9ded3e75960a4662efa5ab0a0f",
    5: "dc42d1147f0016040d8a5efd29a67fbcdd1668b9c1ebc6366e690cfeb420ebb8",
    6: "1fb234901cbdc77576471499bdc271e3806239137dbc98b0bd59de19893365e2",
    7: "eeb1277f707b25bf5a848f9ffcaff19f7c063fabf77a31a16b6dee8751c893bb",
    8: "ba976b8ba7e06755fe0f2b1abebdb24ceff32445bef5d6e7ad13c04c0d5f44ac",
    9: "5f048009fbb7f08dff492d19ae4ae98c9e961414b7a278d3481f406a48cd6c32",
    10: "ed7ed70f593951591b649743b5117b63b3f7d703d441d71c10733585446d227f",
    11: "bdf5e046a0cec2d4709cd5f2cec6a2c2a479244a0e461a27d0b143d341f0740e",
    12: "ff1b2f8600f539796fe1c540defb0f47526dd9ca39c684040449b7bffe08ec6d",
    13: "effb877f592a1cca182bd27ec6ef8fe7d7c737cb7904efd11a0d71996531009c",
    14: "9af9d0fe2058d3365437c41258cc8d0ea5030314dedf1c339bb5ea6c9e3c7b31",
    15: "20704c611f503a1cb32997c647a80ad46ccdb2e7ee63d189e697c36ec4744eab",
    16: "0b6e67a7540047cfbc9daffde18c599ec70eb76695650fb5df03fa798a6ab27d",
}


class TestRegistryContents:
    def test_all_six_present(self):
        assert set(CONTINUOUS) == {"cos", "tan", "exp", "ln", "erf", "denoise"}

    def test_table1_domains(self):
        assert CONTINUOUS["cos"].domain == (0.0, math.pi / 2)
        assert CONTINUOUS["tan"].domain == (0.0, 2 * math.pi / 5)
        assert CONTINUOUS["exp"].domain == (0.0, 3.0)
        assert CONTINUOUS["ln"].domain == (1.0, 10.0)
        assert CONTINUOUS["erf"].domain == (0.0, 3.0)
        assert CONTINUOUS["denoise"].domain == (0.0, 3.0)

    def test_table1_ranges(self):
        assert CONTINUOUS["cos"].value_range == (0.0, 1.0)
        assert CONTINUOUS["tan"].value_range == (0.0, 3.08)
        assert CONTINUOUS["exp"].value_range == (0.0, 20.09)
        assert CONTINUOUS["ln"].value_range == (0.0, 2.30)
        assert CONTINUOUS["erf"].value_range == (0.0, 1.0)
        assert CONTINUOUS["denoise"].value_range == (0.0, 0.81)

    def test_describe(self):
        assert "cos(x)" in CONTINUOUS["cos"].describe()


class TestQuantisation:
    @pytest.mark.parametrize("name", sorted(CONTINUOUS))
    def test_builds_at_small_width(self, name):
        f = build_continuous(name, n_inputs=8)
        assert f.n_inputs == 8
        assert f.n_outputs == 8
        assert f.table.min() >= 0
        assert f.table.max() <= 255

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            build_continuous("sinh")

    def test_cos_monotone_decreasing(self):
        f = build_continuous("cos", 10)
        diffs = np.diff(f.table)
        assert np.all(diffs <= 0)

    def test_exp_monotone_increasing(self):
        f = build_continuous("exp", 10)
        assert np.all(np.diff(f.table) >= 0)

    def test_exp_covers_range(self):
        f = build_continuous("exp", 10)
        # exp(0) = 1 on the [0, 20.09] range -> level round(1023/20.09)
        assert f.table[0] == round(1023 / 20.09)
        # exp(3) = 20.0855 against range max 20.09: top level reached
        assert f.table[-1] == (1 << 10) - 1

    def test_denoise_matches_declared_range(self):
        f = build_continuous("denoise", 10)
        assert f.table[0] == (1 << 10) - 1  # peak 0.81 at x = 0
        assert f.table[-1] <= 2  # essentially zero at x = 3

    def test_ln_endpoints(self):
        f = build_continuous("ln", 10)
        assert f.table[0] == 0  # ln(1) = 0
        # ln(10) = 2.3026 vs range max 2.30 -> clipped to full scale
        assert f.table[-1] == (1 << 10) - 1

    def test_quantisation_error_bounded(self):
        """Quantised cos must track the analytic function closely."""
        n = 10
        f = build_continuous("cos", n)
        xs = np.linspace(0, math.pi / 2, 1 << n)
        analytic = np.cos(xs) * ((1 << n) - 1)
        assert np.max(np.abs(f.table - analytic)) <= 1.0


class TestErfTables:
    """erf is evaluated with ``math.erf``; its tables must not move."""

    @pytest.mark.parametrize("n", sorted(ERF_TABLE_SHA256))
    def test_pinned_digest(self, n):
        table = build_continuous("erf", n).table.astype("<i8")
        assert hashlib.sha256(table.tobytes()).hexdigest() == ERF_TABLE_SHA256[n]

    @pytest.mark.parametrize("n", range(2, 21))
    def test_matches_scipy(self, n):
        special = pytest.importorskip("scipy.special")
        spec = CONTINUOUS["erf"]
        want = BooleanFunction.from_real_function(
            special.erf, spec.domain, spec.value_range, n, n
        )
        assert build_continuous("erf", n).table.tobytes() == want.table.tobytes()
