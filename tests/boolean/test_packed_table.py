"""Property tests of the bit-packed primitives.

The packed representation (one ``uint64`` bit-plane per 0/1 vector)
underlies the OptForPart exactness gate's ``WeightPlanes``, so the
invariants here are representational, not algorithmic:

* ``pack_bits`` lays every 0/1 array out exactly as numpy's
  ``np.unpackbits(..., bitorder="little")`` reads it back — including
  non-power-of-two lengths and planes spanning multiple words — and
  pad bits are always zero, so byte equality is content equality;
* popcount-based error counts equal the reference (unpacked numpy)
  error distances bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean import pack_bits, popcount
from repro.boolean.packed import WORD_BITS, n_words
from repro.metrics import distributions


@st.composite
def bit_arrays(draw):
    """A 0/1 array of 1..300 entries (covers multi-word planes)."""
    length = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=length, dtype=np.uint8)


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(bit_arrays())
    def test_pack_unpack_round_trip(self, bits):
        words = pack_bits(bits)
        assert words.shape == (n_words(bits.shape[0]),)
        unpacked = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert np.array_equal(unpacked[: bits.shape[0]], bits)

    @settings(max_examples=100, deadline=None)
    @given(bit_arrays())
    def test_pad_bits_are_zero(self, bits):
        """Byte equality must be content equality: no garbage past len."""
        words = pack_bits(bits)
        length = bits.shape[0]
        used = int(words[-1])
        tail = length - (words.shape[0] - 1) * WORD_BITS
        assert used >> tail == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2**31 - 1))
    def test_batched_pack_matches_per_row(self, length, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 2, size=(5, length), dtype=np.uint8)
        batched = pack_bits(rows)
        for row, packed_row in zip(rows, batched):
            assert np.array_equal(pack_bits(row), packed_row)

    def test_pack_rejects_scalars(self):
        with pytest.raises(ValueError):
            pack_bits(np.uint8(1))


class TestPopcount:
    @settings(max_examples=100, deadline=None)
    @given(bit_arrays())
    def test_popcount_equals_sum(self, bits):
        assert popcount(pack_bits(bits)) == int(bits.sum())

    @settings(max_examples=50, deadline=None)
    @given(bit_arrays(), st.integers(0, 2**31 - 1))
    def test_hamming_equals_unpacked_distance(self, bits, seed):
        rng = np.random.default_rng(seed)
        other = rng.integers(0, 2, size=bits.shape[0], dtype=np.uint8)
        distance = popcount(np.bitwise_xor(pack_bits(bits), pack_bits(other)))
        assert distance == int(np.sum(bits != other))

    def test_popcount_words_per_word(self):
        words = np.array([0, 1, 0xFFFFFFFFFFFFFFFF, 1 << 63], dtype=np.uint64)
        assert popcount(words[:, None], axis=-1).tolist() == [0, 1, 64, 1]


class TestMedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2**31 - 1))
    def test_packed_med_equals_reference_med(self, n, seed):
        """Word-XOR + popcount reproduces the numpy MED exactly."""
        rng = np.random.default_rng(seed)
        exact = rng.integers(0, 2, size=1 << n, dtype=np.int64)
        approx = rng.integers(0, 2, size=1 << n, dtype=np.int64)
        p = distributions.uniform(n)
        reference = float(np.sum(p * np.abs(exact - approx)))
        count = popcount(np.bitwise_xor(pack_bits(exact), pack_bits(approx)))
        assert count / (1 << n) == reference
        assert float(p[0]) * count == reference

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_component_error_counts_match_reference(self, n, k, seed):
        rng = np.random.default_rng(seed)
        exact = rng.integers(0, 1 << k, size=1 << n, dtype=np.int64)
        approx = rng.integers(0, 1 << k, size=1 << n, dtype=np.int64)
        shifts = np.arange(k)[:, None]
        counts = popcount(
            np.bitwise_xor(
                pack_bits((exact[None, :] >> shifts) & 1),
                pack_bits((approx[None, :] >> shifts) & 1),
            ),
            axis=-1,
        )
        for bit in range(k):
            expected = int(np.sum(((exact >> bit) & 1) != ((approx >> bit) & 1)))
            assert int(counts[bit]) == expected

