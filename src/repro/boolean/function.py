"""Dense multi-output Boolean function representation.

A :class:`BooleanFunction` stores the complete truth table of an
``n``-input, ``m``-output function ``Y = G(X)`` as a numpy vector of
``2**n`` output words, exactly the object the paper's algorithms operate
on.  Input words are interpreted per the package convention: bit ``i``
of the word is the paper's :math:`x_{i+1}`.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np

from . import ops

__all__ = ["BooleanFunction"]


class BooleanFunction:
    """An ``n``-input, ``m``-output Boolean function as a dense table.

    Parameters
    ----------
    n_inputs:
        Number of input bits ``n``.
    n_outputs:
        Number of output bits ``m``.
    table:
        Integer array of shape ``(2**n,)``; entry ``x`` is the output
        word ``Bin(G(x))``.
    name:
        Optional human-readable name used in reports.
    """

    def __init__(
        self,
        n_inputs: int,
        n_outputs: int,
        table: np.ndarray,
        name: str = "",
    ) -> None:
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (1 << n_inputs,):
            raise ValueError(
                f"table has shape {table.shape}, expected ({1 << n_inputs},) "
                f"for n_inputs={n_inputs}"
            )
        if n_outputs < 1:
            raise ValueError(f"n_outputs must be >= 1, got {n_outputs}")
        limit = np.int64(1) << n_outputs
        if table.min(initial=0) < 0 or table.max(initial=0) >= limit:
            raise ValueError(
                f"table values must lie in [0, 2**{n_outputs}); "
                f"found range [{table.min()}, {table.max()}]"
            )
        self.n_inputs = int(n_inputs)
        self.n_outputs = int(n_outputs)
        self.table = table
        self.name = name or f"func_{n_inputs}x{n_outputs}"

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_callable(
        cls,
        func: Callable[[int], int],
        n_inputs: int,
        n_outputs: int,
        name: str = "",
    ) -> "BooleanFunction":
        """Tabulate ``func`` over all ``2**n`` input words."""
        xs = ops.all_inputs(n_inputs)
        table = np.fromiter((int(func(int(x))) for x in xs), dtype=np.int64, count=len(xs))
        return cls(n_inputs, n_outputs, table, name=name)

    @classmethod
    def from_vectorized(
        cls,
        func: Callable[[np.ndarray], np.ndarray],
        n_inputs: int,
        n_outputs: int,
        name: str = "",
    ) -> "BooleanFunction":
        """Tabulate a numpy-vectorised callable over all input words."""
        table = np.asarray(func(ops.all_inputs(n_inputs)), dtype=np.int64)
        return cls(n_inputs, n_outputs, table, name=name)

    @classmethod
    def from_real_function(
        cls,
        func: Callable[[np.ndarray], np.ndarray],
        domain: Tuple[float, float],
        value_range: Tuple[float, float],
        n_inputs: int,
        n_outputs: int,
        name: str = "",
    ) -> "BooleanFunction":
        """Quantise a real-valued 1-D function into a Boolean function.

        This follows the benchmark construction of the paper (and of
        ApproxLUT): the input domain is sampled at ``2**n`` evenly
        spaced points and the output is linearly quantised onto
        ``2**m`` levels spanning ``value_range``.  Outputs are clipped
        into range so that functions whose analytic extremes slightly
        exceed the declared range still quantise safely.
        """
        lo, hi = domain
        vlo, vhi = value_range
        if hi <= lo:
            raise ValueError(f"empty domain [{lo}, {hi}]")
        if vhi <= vlo:
            raise ValueError(f"empty value range [{vlo}, {vhi}]")
        xs = ops.all_inputs(n_inputs).astype(np.float64)
        points = lo + xs * (hi - lo) / float((1 << n_inputs) - 1)
        values = np.asarray(func(points), dtype=np.float64)
        levels = (1 << n_outputs) - 1
        scaled = np.rint((values - vlo) / (vhi - vlo) * levels)
        table = np.clip(scaled, 0, levels).astype(np.int64)
        return cls(n_inputs, n_outputs, table, name=name)

    @classmethod
    def from_component_bits(
        cls, bits: Sequence[np.ndarray], name: str = ""
    ) -> "BooleanFunction":
        """Assemble a function from per-output-bit tables (LSB first)."""
        if not bits:
            raise ValueError("at least one component bit is required")
        size = len(bits[0])
        n_inputs = int(size).bit_length() - 1
        if 1 << n_inputs != size:
            raise ValueError(f"component length {size} is not a power of two")
        table = np.zeros(size, dtype=np.int64)
        for k, component in enumerate(bits):
            component = np.asarray(component, dtype=np.int64)
            if component.shape != (size,):
                raise ValueError("all component bit tables must have equal length")
            if np.any((component != 0) & (component != 1)):
                raise ValueError(f"component {k} contains non-binary values")
            table |= component << k
        return cls(n_inputs, len(bits), table, name=name)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of truth-table entries, ``2**n``."""
        return 1 << self.n_inputs

    def component(self, k: int) -> np.ndarray:
        """Truth table of output bit ``k`` (0-indexed LSB) as 0/1 uint8."""
        self._check_output_bit(k)
        return ops.bit_of(self.table, k)

    def components(self) -> np.ndarray:
        """All component bits as a ``(2**n, m)`` matrix (column 0 = LSB)."""
        return ops.words_to_bits(self.table, self.n_outputs)

    def with_component(self, k: int, bits: np.ndarray) -> "BooleanFunction":
        """Return a copy with output bit ``k`` replaced by ``bits``."""
        self._check_output_bit(k)
        bits = np.asarray(bits, dtype=np.int64)
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("replacement bits must be 0/1")
        table = ops.set_bit(self.table, k, bits)
        return BooleanFunction(self.n_inputs, self.n_outputs, table, name=self.name)

    def evaluate(self, x) -> np.ndarray:
        """Look up output words for scalar or array inputs."""
        return self.table[np.asarray(x, dtype=np.int64)]

    def __call__(self, x):
        result = self.evaluate(x)
        if np.isscalar(x) or np.ndim(x) == 0:
            return int(result)
        return result

    def cofactor(self, variable: int, value: int) -> "BooleanFunction":
        """Restrict input bit ``variable`` to ``value`` (Shannon cofactor).

        The returned function has ``n - 1`` inputs; the remaining
        variables keep their relative order and are re-indexed densely.
        """
        return BooleanFunction(
            self.n_inputs - 1,
            self.n_outputs,
            ops.cofactor(self.table, self.n_inputs, {variable: value}),
            name=f"{self.name}|x{variable + 1}={value}",
        )

    def permute_inputs(self, order: Sequence[int]) -> "BooleanFunction":
        """Apply an input permutation (``order[i]`` feeds new bit ``i``)."""
        order = ops.validate_positions(order, self.n_inputs)
        if len(order) != self.n_inputs:
            raise ValueError("permutation must cover every input bit")
        xs = ops.all_inputs(self.n_inputs)
        # new input word x addresses the original entry whose bit order[i]
        # equals bit i of x
        source = ops.deposit_bits(xs, order)
        return BooleanFunction(
            self.n_inputs, self.n_outputs, self.table[source], name=self.name
        )

    # ------------------------------------------------------------------
    # Comparisons / dunder support
    # ------------------------------------------------------------------
    def equals(self, other: "BooleanFunction") -> bool:
        """True when both functions have identical shape and tables."""
        return (
            self.n_inputs == other.n_inputs
            and self.n_outputs == other.n_outputs
            and bool(np.array_equal(self.table, other.table))
        )

    def hamming_distance(self, other: "BooleanFunction") -> int:
        """Number of truth-table entries on which the functions differ."""
        self._check_compatible(other)
        return int(np.count_nonzero(self.table != other.table))

    def _check_compatible(self, other: "BooleanFunction") -> None:
        if self.n_inputs != other.n_inputs or self.n_outputs != other.n_outputs:
            raise ValueError(
                f"incompatible functions: {self.n_inputs}x{self.n_outputs} vs "
                f"{other.n_inputs}x{other.n_outputs}"
            )

    def _check_output_bit(self, k: int) -> None:
        if not 0 <= k < self.n_outputs:
            raise ValueError(
                f"output bit {k} out of range for {self.n_outputs} outputs"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.equals(other)

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)

    def __repr__(self) -> str:
        return (
            f"BooleanFunction(name={self.name!r}, n_inputs={self.n_inputs}, "
            f"n_outputs={self.n_outputs})"
        )
