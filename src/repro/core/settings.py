"""Decomposition settings and setting sequences.

A *setting* ``s = (E, ω, V, T)`` (paper §III-A) fully determines one
approximate component function; a *setting sequence*
``S = (s_{m-1}, ..., s_0)`` determines the whole approximate function
``Ĝ``.  During round 1 of the algorithms some output bits have no
setting yet — those are represented by ``None`` entries and treated per
the active LSB model (predictive for BS-SA, accurate for DALTA).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..boolean.decomposition import Decomposition
from ..boolean.function import BooleanFunction
from ..metrics import error as error_metrics

__all__ = ["Setting", "SettingBits", "SettingSequence"]


class Setting:
    """One output bit's decomposition setting.

    Attributes
    ----------
    error:
        The MED (or model-predicted MED) recorded when the setting was
        produced; used for ranking candidates during search.
    decomposition:
        The decomposition object defining :math:`\\hat g_k`; carries
        its own mode (``normal`` / ``bto`` / ``nd``).
    """

    __slots__ = ("error", "decomposition")

    def __init__(self, error: float, decomposition: Decomposition) -> None:
        self.error = float(error)
        self.decomposition = decomposition

    @property
    def mode(self) -> str:
        return self.decomposition.mode

    def bits(self, n_inputs: int) -> np.ndarray:
        """Truth table of the approximate component function."""
        return self.decomposition.evaluate(n_inputs)

    def __repr__(self) -> str:
        return f"Setting(error={self.error:.4g}, mode={self.mode!r})"


class SettingBits:
    """Truth tables of settings, each evaluated at most once.

    A search run owns one instance and hands it to the
    :class:`SettingSequence` word builders, which otherwise evaluate
    every set output bit on every call.  Tables are keyed by the
    identity of the setting's decomposition, so a setting rebuilt
    around an incumbent's decomposition shares its table; each entry
    keeps its decomposition alive, so an id is never reused while it is
    cached.  The tables live here, not on :class:`Setting`, so a
    returned result holds none of them.  They are read-only.
    """

    __slots__ = ("n_inputs", "_tables")

    def __init__(self, n_inputs: int) -> None:
        self.n_inputs = n_inputs
        self._tables: Dict[int, Tuple[Decomposition, np.ndarray]] = {}

    def __call__(self, setting: Setting) -> np.ndarray:
        decomposition = setting.decomposition
        entry = self._tables.get(id(decomposition))
        if entry is None:
            table = decomposition.evaluate(self.n_inputs)
            table.setflags(write=False)
            entry = (decomposition, table)
            self._tables[id(decomposition)] = entry
        return entry[1]


class SettingSequence:
    """Settings for every output bit of an ``m``-output function.

    ``settings[k]`` belongs to output bit ``k`` (0-indexed LSB); a
    ``None`` entry means the bit has not been approximated yet and its
    accurate version is used when materialising ``Ĝ``.
    """

    def __init__(
        self, n_outputs: int, settings: Optional[Sequence[Optional[Setting]]] = None
    ) -> None:
        if settings is None:
            settings = [None] * n_outputs
        settings = list(settings)
        if len(settings) != n_outputs:
            raise ValueError(
                f"expected {n_outputs} settings, got {len(settings)}"
            )
        self.n_outputs = n_outputs
        self.settings: List[Optional[Setting]] = settings

    # ------------------------------------------------------------------
    def replace(self, k: int, setting: Optional[Setting]) -> "SettingSequence":
        """Functional update: new sequence with bit ``k`` replaced."""
        updated = list(self.settings)
        updated[k] = setting
        return SettingSequence(self.n_outputs, updated)

    def copy(self) -> "SettingSequence":
        return SettingSequence(self.n_outputs, list(self.settings))

    def is_complete(self) -> bool:
        """True when every output bit has a setting."""
        return all(s is not None for s in self.settings)

    def __getitem__(self, k: int) -> Optional[Setting]:
        return self.settings[k]

    def __setitem__(self, k: int, setting: Optional[Setting]) -> None:
        self.settings[k] = setting

    def __len__(self) -> int:
        return self.n_outputs

    # ------------------------------------------------------------------
    def approx_bits(
        self, target: BooleanFunction, k: int, bits: Optional[SettingBits] = None
    ) -> np.ndarray:
        """Component bit ``k`` of ``Ĝ`` (accurate when unset).

        ``bits`` is the caller's :class:`SettingBits`; without one the
        setting is evaluated afresh.
        """
        setting = self.settings[k]
        if setting is None:
            return target.component(k)
        if bits is None:
            bits = SettingBits(target.n_inputs)
        return bits(setting)

    def _word(
        self,
        target: BooleanFunction,
        positions: Iterable[int],
        bits: Optional[SettingBits],
    ) -> np.ndarray:
        """OR of the approximate component bits at ``positions``."""
        word = np.zeros(target.size, dtype=np.int64)
        for j in positions:
            word |= self.approx_bits(target, j, bits).astype(np.int64) << j
        return word

    def approx_function(
        self, target: BooleanFunction, bits: Optional[SettingBits] = None
    ) -> BooleanFunction:
        """Materialise ``Ĝ`` (the paper's ``GetApproxFunction``)."""
        table = self._word(target, range(self.n_outputs), bits)
        return BooleanFunction(
            target.n_inputs, self.n_outputs, table, name=f"{target.name}~approx"
        )

    def msb_word(
        self, target: BooleanFunction, k: int, bits: Optional[SettingBits] = None
    ) -> np.ndarray:
        """Word formed by the approximated bits strictly above ``k``.

        Bits at or below ``k`` are zero — the shape required by the
        predictive and accurate-LSB cost models.
        """
        return self._word(target, range(k + 1, self.n_outputs), bits)

    def rest_word(
        self, target: BooleanFunction, k: int, bits: Optional[SettingBits] = None
    ) -> np.ndarray:
        """Full approximate word with bit ``k`` cleared (fixed context)."""
        others = (j for j in range(self.n_outputs) if j != k)
        return self._word(target, others, bits)

    def med(
        self,
        target: BooleanFunction,
        p: Optional[np.ndarray] = None,
        bits: Optional[SettingBits] = None,
    ) -> float:
        """Exact MED of the materialised ``Ĝ`` against ``target``."""
        return error_metrics.med(target, self.approx_function(target, bits), p)

    def total_lut_entries(self) -> int:
        """Sum of LUT entries over all set output bits."""
        return sum(
            s.decomposition.lut_entries() for s in self.settings if s is not None
        )

    def mode_counts(self) -> dict:
        """Histogram of modes, e.g. ``{"bto": 3, "normal": 10, "nd": 3}``."""
        counts: dict = {}
        for s in self.settings:
            if s is not None:
                counts[s.mode] = counts.get(s.mode, 0) + 1
        return counts

    def __repr__(self) -> str:
        described = [
            "-" if s is None else f"{s.mode}:{s.error:.3g}" for s in self.settings
        ]
        return f"SettingSequence([{', '.join(described)}])"
