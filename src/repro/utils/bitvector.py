"""Fixed-width bit vectors: the paper's form of the SR-SP state.

The speed-up algorithm of the paper (Section VI-D) represents the state of
``N`` simultaneous sampling processes as ``N``-dimensional bit vectors and
replaces per-walk extension with bit-wise AND/OR.  The library's SR-SP
path keeps the same state as per-process position lanes
(:mod:`repro.core.speedup`); these vectors remain for the bit-vector test
oracle and for callers that want the paper's form.  Python's arbitrary
precision integers provide exactly the operations needed (``&``, ``|``,
``int.bit_count``), so a :class:`BitVector` is a thin, immutable wrapper around
an ``int`` plus a width.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    if value < 0:
        raise ValueError("popcount is defined for non-negative integers only")
    return value.bit_count()


class BitVector:
    """An immutable vector of ``width`` bits backed by a Python integer.

    Bit ``i`` corresponds to sampling process ``i``.  All bit-wise operators
    require both operands to have the same width, mirroring the fixed sample
    count ``N`` of the algorithms that use them.
    """

    __slots__ = ("_bits", "_width")

    def __init__(self, width: int, bits: int = 0):
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if bits < 0:
            raise ValueError("bits must be a non-negative integer")
        if bits >> width:
            raise ValueError("bits has set positions beyond the declared width")
        self._bits = bits
        self._width = width

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, width: int) -> "BitVector":
        """All-zero vector of the given width."""
        return cls(width, 0)

    @classmethod
    def ones(cls, width: int) -> "BitVector":
        """All-one vector of the given width."""
        return cls(width, (1 << width) - 1 if width else 0)

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "BitVector":
        """Vector with exactly the given bit positions set."""
        bits = 0
        for index in indices:
            if not 0 <= index < width:
                raise ValueError(f"bit index {index} out of range for width {width}")
            bits |= 1 << index
        return cls(width, bits)

    @classmethod
    def from_bool_array(cls, flags: np.ndarray) -> "BitVector":
        """Vector whose bit ``i`` is set iff ``flags[i]`` is truthy."""
        flags = np.asarray(flags, dtype=bool)
        if flags.ndim != 1:
            raise ValueError("from_bool_array expects a one-dimensional array")
        packed = np.packbits(flags, bitorder="little")
        return cls(int(flags.size), int.from_bytes(packed.tobytes(), "little"))

    # -- accessors ---------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of bits (the sample count ``N``)."""
        return self._width

    @property
    def bits(self) -> int:
        """The underlying integer."""
        return self._bits

    def count(self) -> int:
        """Number of set bits (the 1-norm used by Eq. 16 of the paper)."""
        return self._bits.bit_count()

    def get(self, index: int) -> bool:
        """Whether bit ``index`` is set."""
        if not 0 <= index < self._width:
            raise IndexError(f"bit index {index} out of range for width {self._width}")
        return bool((self._bits >> index) & 1)

    def indices(self) -> Iterator[int]:
        """Iterate over the positions of set bits in increasing order."""
        bits = self._bits
        position = 0
        while bits:
            if bits & 1:
                yield position
            bits >>= 1
            position += 1

    def to_bool_array(self) -> np.ndarray:
        """Dense boolean numpy array of length ``width``."""
        if self._width == 0:
            return np.zeros(0, dtype=bool)
        raw = self._bits.to_bytes((self._width + 7) // 8, "little")
        unpacked = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return unpacked[: self._width].astype(bool)

    def is_zero(self) -> bool:
        """Whether no bit is set."""
        return self._bits == 0

    # -- modifiers (return new vectors) -------------------------------------

    def with_bit(self, index: int) -> "BitVector":
        """Copy of this vector with bit ``index`` set."""
        if not 0 <= index < self._width:
            raise IndexError(f"bit index {index} out of range for width {self._width}")
        return BitVector(self._width, self._bits | (1 << index))

    # -- operators ----------------------------------------------------------

    def _check_width(self, other: "BitVector") -> None:
        if not isinstance(other, BitVector):
            raise TypeError(f"expected BitVector, got {type(other).__name__}")
        if other._width != self._width:
            raise ValueError(
                f"width mismatch: {self._width} vs {other._width}"
            )

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self._width, self._bits & other._bits)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self._width, self._bits | other._bits)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self._width, self._bits ^ other._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._width == other._width and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._width, self._bits))

    def __len__(self) -> int:
        return self._width

    def __bool__(self) -> bool:
        return self._bits != 0

    def __repr__(self) -> str:
        return f"BitVector(width={self._width}, set={self.count()})"
