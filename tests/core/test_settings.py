"""Unit tests for Setting, SettingBits and SettingSequence."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.boolean import BoundOnlyDecomposition, DisjointDecomposition, Partition
from repro.boolean.decomposition import (
    MultiSharedDecomposition,
    NonDisjointDecomposition,
)
from repro.core import Setting, SettingSequence, run_bssa, run_dalta
from repro.core.settings import SettingBits
from repro.metrics import distributions

from ..conftest import random_function
from .test_fast_paths import TestPipelineBitExact, _run_fingerprint


def _simple_setting(n_inputs: int, rng, mode: str = "normal") -> Setting:
    partition = Partition(
        tuple(range(2, n_inputs)), (0, 1)
    )
    pattern = rng.integers(0, 2, size=4).astype(np.uint8)
    if mode == "bto":
        return Setting(0.5, BoundOnlyDecomposition(partition, pattern))
    types = rng.integers(1, 5, size=partition.n_rows).astype(np.int8)
    return Setting(0.5, DisjointDecomposition(partition, pattern, types))


class TestSetting:
    def test_mode_passthrough(self, rng):
        assert _simple_setting(4, rng).mode == "normal"
        assert _simple_setting(4, rng, "bto").mode == "bto"

    def test_bits_shape(self, rng):
        setting = _simple_setting(5, rng)
        assert setting.bits(5).shape == (32,)


class TestSettingSequence:
    def test_empty_sequence_is_accurate(self, rng):
        f = random_function(4, 3, rng)
        seq = SettingSequence(3)
        assert not seq.is_complete()
        assert seq.approx_function(f).equals(f)
        assert seq.med(f) == 0.0

    def test_replace_is_functional(self, rng):
        seq = SettingSequence(2)
        setting = _simple_setting(4, rng)
        new = seq.replace(1, setting)
        assert seq[1] is None
        assert new[1] is setting

    def test_length_validation(self):
        with pytest.raises(ValueError):
            SettingSequence(2, [None])

    def test_approx_bits_uses_setting(self, rng):
        f = random_function(4, 2, rng)
        setting = _simple_setting(4, rng)
        seq = SettingSequence(2).replace(0, setting)
        assert seq.approx_bits(f, 0).tolist() == setting.bits(4).tolist()
        assert seq.approx_bits(f, 1).tolist() == f.component(1).tolist()

    def test_msb_and_rest_words(self, rng):
        f = random_function(4, 3, rng)
        s2 = _simple_setting(4, rng)
        seq = SettingSequence(3).replace(2, s2)
        msb = seq.msb_word(f, 1)
        assert np.all((msb & 0b011) == 0)
        assert msb.tolist() == (s2.bits(4).astype(np.int64) << 2).tolist()
        rest = seq.rest_word(f, 1)
        expected = (s2.bits(4).astype(np.int64) << 2) | f.component(0)
        assert rest.tolist() == expected.tolist()

    def test_med_matches_manual(self, rng):
        f = random_function(4, 2, rng)
        setting = _simple_setting(4, rng)
        seq = SettingSequence(2).replace(1, setting)
        p = distributions.uniform(4)
        approx = seq.approx_function(f)
        manual = float(np.abs(f.table - approx.table) @ p)
        assert seq.med(f, p) == pytest.approx(manual)

    def test_total_lut_entries(self, rng):
        seq = SettingSequence(2).replace(0, _simple_setting(4, rng))
        assert seq.total_lut_entries() == 4 + 2 * 4

    def test_mode_counts(self, rng):
        seq = SettingSequence(3)
        seq[0] = _simple_setting(4, rng)
        seq[1] = _simple_setting(4, rng, "bto")
        assert seq.mode_counts() == {"normal": 1, "bto": 1}

    def test_repr_readable(self, rng):
        seq = SettingSequence(2).replace(0, _simple_setting(4, rng))
        text = repr(seq)
        assert "normal" in text and "-" in text


@pytest.fixture
def evaluations(monkeypatch):
    """Count ``Decomposition.evaluate`` calls per decomposition object."""
    calls = Counter()
    alive = []  # keeps every counted object alive so ids stay unique
    for cls in (DisjointDecomposition, NonDisjointDecomposition,
                MultiSharedDecomposition):
        original = cls.__dict__["evaluate"]

        def counted(self, n_inputs, _original=original):
            calls[id(self)] += 1
            alive.append(self)
            return _original(self, n_inputs)

        monkeypatch.setattr(cls, "evaluate", counted)
    return calls


class TestSettingBits:
    def test_evaluates_each_decomposition_once(self, rng, evaluations):
        f = random_function(5, 3, rng)
        low, high = _simple_setting(5, rng), _simple_setting(5, rng, "bto")
        seq = SettingSequence(3).replace(0, low).replace(2, high)
        bits = SettingBits(5)
        for k in range(3):
            seq.rest_word(f, k, bits)
            seq.msb_word(f, k, bits)
        seq.approx_function(f, bits)
        # a setting rebuilt around the same decomposition shares its table
        assert bits(Setting(0.25, low.decomposition)) is bits(low)
        assert sorted(evaluations.values()) == [1, 1]

    def test_words_match_uncached(self, rng):
        f = random_function(5, 3, rng)
        seq = SettingSequence(3).replace(0, _simple_setting(5, rng))
        seq = seq.replace(1, _simple_setting(5, rng, "bto"))
        bits = SettingBits(5)
        for k in range(3):
            assert np.array_equal(seq.rest_word(f, k, bits), seq.rest_word(f, k))
            assert np.array_equal(seq.msb_word(f, k, bits), seq.msb_word(f, k))
        assert seq.approx_function(f, bits).equals(seq.approx_function(f))

    def test_tables_are_read_only(self, rng):
        setting = _simple_setting(4, rng)
        table = SettingBits(4)(setting)
        assert table.tolist() == setting.bits(4).tolist()
        with pytest.raises(ValueError):
            table[0] = 1


class TestEvaluateOncePerRun:
    """A whole search run evaluates every setting's table at most once.

    The runs are :class:`TestPipelineBitExact`'s fixed-seed 8-bit runs,
    and the digests its :func:`_run_fingerprint` bytes, so caching the
    tables cannot change a bit.
    """

    DIGESTS = {
        "bto-normal-nd": TestPipelineBitExact.DIGESTS["bs-sa", "bto-normal-nd"],
        "dalta": TestPipelineBitExact.DIGESTS["dalta", "normal"],
    }

    @pytest.mark.parametrize("architecture", sorted(DIGESTS))
    def test_each_setting_evaluated_at_most_once(self, architecture, evaluations):
        rng = np.random.default_rng(2024)
        target = random_function(8, 4, np.random.default_rng(77), name="t")
        if architecture == "dalta":
            result = run_dalta(target, TestPipelineBitExact.CONFIG, rng=rng)
        else:
            result = run_bssa(
                target,
                TestPipelineBitExact.CONFIG,
                rng=rng,
                architecture=architecture,
            )
        assert evaluations and max(evaluations.values()) == 1
        digest = hashlib.sha256(repr(_run_fingerprint(result)).encode())
        assert digest.hexdigest() == self.DIGESTS[architecture]
