"""Unit tests for input distributions."""

import numpy as np
import pytest

from repro.metrics import distributions as dist


class TestBasicDistributions:
    def test_uniform_sums_to_one(self):
        p = dist.uniform(6)
        assert p.shape == (64,)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p == p[0])

    def test_validate_accepts_uniform(self):
        dist.validate(dist.uniform(4), 4)

    def test_validate_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            dist.validate(np.ones(8) / 8, 4)

    def test_validate_rejects_negative(self):
        p = np.ones(4) / 4
        p[0] = -p[0]
        p[1] += 0.5
        with pytest.raises(ValueError, match="non-negative"):
            dist.validate(p, 2)

    def test_validate_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            dist.validate(np.ones(4), 2)

    def test_normalized(self):
        p = dist.normalized(np.array([1.0, 3.0]))
        assert p.tolist() == [0.25, 0.75]

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError):
            dist.normalized(np.zeros(4))

    def test_from_weights(self):
        p = dist.from_weights(np.ones(8), 3)
        assert p.sum() == pytest.approx(1.0)


class TestShapedDistributions:
    def test_truncated_gaussian_peaks_at_mean(self):
        p = dist.truncated_gaussian(6, mean=0.5, std=0.1)
        assert p.sum() == pytest.approx(1.0)
        assert np.argmax(p) in (31, 32)

    def test_geometric_bit(self):
        p = dist.geometric_bit(3, p_one=0.25)
        assert p.sum() == pytest.approx(1.0)
        # all-zeros word is most likely at p_one < 0.5
        assert np.argmax(p) == 0
        assert p[0] == pytest.approx(0.75**3)

    def test_geometric_bit_validates(self):
        with pytest.raises(ValueError):
            dist.geometric_bit(3, p_one=0.0)


class TestConditioning:
    def test_bit_probability_uniform(self):
        assert dist.bit_probability(dist.uniform(5), 5, 2) == pytest.approx(0.5)

    def test_condition_on_bit_uniform(self):
        p0, w0 = dist.condition_on_bit(dist.uniform(4), 4, 1, 0)
        assert w0 == pytest.approx(0.5)
        assert p0.shape == (8,)
        assert p0.sum() == pytest.approx(1.0)

    def test_condition_reconstruction(self, rng):
        """Mixing the conditionals with their priors recovers the marginal."""
        weights = rng.random(32)
        p = dist.normalized(weights)
        marg = dist.marginalize_bit(p, 5, 3)
        # marginal over reduced space equals direct summation
        from repro.boolean import ops

        keep = [i for i in range(5) if i != 3]
        reduced = ops.all_inputs(4)
        direct = (
            p[ops.deposit_bits(reduced, keep)]
            + p[ops.deposit_bits(reduced, keep) | (1 << 3)]
        )
        assert np.allclose(marg, direct)

    def test_condition_zero_prior(self):
        p = np.zeros(4)
        p[0] = 1.0  # bit 1 is always 0
        cond, prior = dist.condition_on_bit(p, 2, 1, 1)
        assert prior == 0.0
        assert cond.sum() == pytest.approx(1.0)  # safe fallback

    def test_condition_rejects_bad_value(self):
        with pytest.raises(ValueError):
            dist.condition_on_bit(dist.uniform(2), 2, 0, 2)

    @pytest.mark.parametrize("bit", [4, 5, -1])
    def test_out_of_range_bit_is_rejected(self, bit):
        p = dist.normalized(np.random.default_rng(3).random(16))
        with pytest.raises(ValueError, match="out of range"):
            dist.condition_on_bit(p, 4, bit, 0)
        with pytest.raises(ValueError, match="out of range"):
            dist.marginalize_bit(p, 4, bit)
        with pytest.raises(ValueError, match="out of range"):
            dist.bit_probability(p, 4, bit)

    def test_wrong_length_distribution_is_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            dist.condition_on_bit(dist.uniform(3), 4, 0, 0)
        with pytest.raises(ValueError, match="shape"):
            dist.bit_probability(dist.uniform(3), 4, 0)

    def test_conditioning_matches_direct_selection(self, rng):
        p = dist.normalized(rng.random(64))
        words = np.arange(64)
        for bit in range(6):
            ones = (words >> bit) & 1 == 1
            assert dist.bit_probability(p, 6, bit) == float(p[ones].sum())
            cond, prior = dist.condition_on_bit(p, 6, bit, 1)
            assert prior == float(p[ones].sum())
            assert cond.tobytes() == (p[ones] / prior).tobytes()
