"""Unit tests for the bit-manipulation utilities."""

from itertools import combinations, product

import numpy as np
import pytest

from repro.boolean import ops


class TestAllInputs:
    def test_enumerates_words(self):
        assert ops.all_inputs(3).tolist() == list(range(8))

    def test_zero_inputs(self):
        assert ops.all_inputs(0).tolist() == [0]

    def test_dtype_is_int64(self):
        assert ops.all_inputs(4).dtype == np.int64

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ops.all_inputs(-1)

    def test_huge_rejected(self):
        with pytest.raises(ValueError):
            ops.all_inputs(40)


class TestBitOf:
    def test_extracts_bits(self):
        words = np.array([0b0000, 0b0001, 0b0010, 0b0110])
        assert ops.bit_of(words, 0).tolist() == [0, 1, 0, 0]
        assert ops.bit_of(words, 1).tolist() == [0, 0, 1, 1]
        assert ops.bit_of(words, 2).tolist() == [0, 0, 0, 1]

    def test_returns_uint8(self):
        assert ops.bit_of(np.array([3]), 0).dtype == np.uint8


class TestSetBit:
    def test_sets_and_clears(self):
        words = np.array([0b000, 0b111])
        out = ops.set_bit(words, 1, np.array([1, 0]))
        assert out.tolist() == [0b010, 0b101]

    def test_original_untouched(self):
        words = np.array([0])
        ops.set_bit(words, 0, np.array([1]))
        assert words.tolist() == [0]


class TestExtractDeposit:
    def test_extract_reorders(self):
        # word 0b1010: bit3=1, bit1=1
        out = ops.extract_bits(np.array([0b1010]), [3, 1])
        assert out.tolist() == [0b11]
        out = ops.extract_bits(np.array([0b1010]), [1, 0])
        assert out.tolist() == [0b01]

    def test_deposit_is_inverse(self):
        positions = [4, 2, 0]
        packed = np.arange(8)
        full = ops.deposit_bits(packed, positions)
        assert ops.extract_bits(full, positions).tolist() == packed.tolist()

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 1 << 10, size=100)
        positions = [9, 7, 4, 2, 0]
        packed = ops.extract_bits(words, positions)
        redeposited = ops.deposit_bits(packed, positions)
        # redeposited keeps only the selected bits
        assert ops.extract_bits(redeposited, positions).tolist() == packed.tolist()


def _deposit_gather(values, n_inputs, fixed):
    """Reference cofactor: scatter the reduced words, then gather."""
    keep = [i for i in range(n_inputs) if i not in fixed]
    assignment = sum(value << bit for bit, value in fixed.items())
    reduced = ops.all_inputs(n_inputs - len(fixed))
    return values[ops.deposit_bits(reduced, keep) | assignment]


class TestCofactor:
    @pytest.mark.parametrize("n_inputs", range(1, 11))
    def test_matches_deposit_gather(self, n_inputs):
        values = np.random.default_rng(n_inputs).random(1 << n_inputs)
        for size in (1, 2, 3):
            for bits in combinations(range(n_inputs), size):
                for assignment in product((0, 1), repeat=size):
                    fixed = dict(zip(bits, assignment))
                    out = ops.cofactor(values, n_inputs, fixed)
                    expected = _deposit_gather(values, n_inputs, fixed)
                    assert out.tobytes() == expected.tobytes(), fixed

    @pytest.mark.parametrize(
        "fixed",
        [{0: 0}, {0: 1}, {15: 0}, {15: 1}, {7: 1}, {8: 0}, {3: 0, 8: 1, 12: 1}],
    )
    def test_sixteen_inputs(self, fixed):
        values = np.random.default_rng(16).integers(0, 1 << 40, 1 << 16)
        out = ops.cofactor(values, 16, fixed)
        assert out.tobytes() == _deposit_gather(values, 16, fixed).tobytes()

    def test_returns_contiguous_copy(self):
        values = np.arange(16, dtype=np.float64)
        for fixed in ({3: 0}, {0: 1}, {}):
            out = ops.cofactor(values, 4, fixed)
            assert out.flags["C_CONTIGUOUS"]
            assert not np.shares_memory(out, values)
            out[:] = -1.0
        assert values.tolist() == list(range(16))

    def test_keeps_dtype(self):
        values = np.arange(8, dtype=np.uint8)
        assert ops.cofactor(values, 3, {1: 1}).dtype == np.uint8
        assert ops.cofactor(values, 3, {1: 1}).tolist() == [2, 3, 6, 7]

    @pytest.mark.parametrize(
        "values,n_inputs,fixed,match",
        [
            (np.zeros(8), 4, {0: 0}, "shape"),
            (np.zeros((4, 4)), 4, {0: 0}, "shape"),
            (np.zeros(16), 4, {4: 0}, "out of range"),
            (np.zeros(16), 4, {-1: 0}, "out of range"),
            (np.zeros(16), 4, {0: 2}, "expected 0 or 1"),
            (np.zeros(16), 4, {0: -1}, "expected 0 or 1"),
            (np.zeros(16), 4, {1: 0, 1.0: 1, "1": 0}, "fixed twice"),
        ],
    )
    def test_rejects_malformed_input(self, values, n_inputs, fixed, match):
        with pytest.raises(ValueError, match=match):
            ops.cofactor(values, n_inputs, fixed)


class TestWordBitConversions:
    def test_words_to_bits_lsb_first(self):
        bits = ops.words_to_bits(np.array([0b0110]), 4)
        assert bits.tolist() == [[0, 1, 1, 0]]

    def test_bits_to_words_roundtrip(self):
        words = np.arange(16)
        assert ops.bits_to_words(ops.words_to_bits(words, 4)).tolist() == list(
            range(16)
        )

    def test_popcount(self):
        assert ops.popcount(np.array([0, 1, 3, 7, 15]), 4).tolist() == [
            0,
            1,
            2,
            3,
            4,
        ]

    def test_parity(self):
        assert ops.parity(np.array([0, 1, 3, 7]), 4).tolist() == [0, 1, 0, 1]


class TestValidatePositions:
    def test_accepts_valid(self):
        assert ops.validate_positions([2, 0, 1], 3) == (2, 0, 1)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            ops.validate_positions([0, 0], 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ops.validate_positions([3], 3)
