"""Colored words on cycles and intervals.

Colors are 1-based integers in {1, ..., q}. A word is an immutable sequence
of colors together with its ambient color count q. Operation indices are
1-based; cyclic contexts interpret indices modulo the length.

Everything here is an immutable value, safe to share between concurrent
tasks without synchronization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

ColorPerm = Union[Mapping[int, int], Sequence[int]]

__all__ = [
    "Word",
    "delete_at",
    "rotate",
    "is_proper",
    "is_cyclically_proper",
    "reflect",
    "apply_color_perm",
]


@dataclass(frozen=True)
class Word:
    """A finite word of colors from {1, ..., q}."""

    symbols: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if self.q < 1:
            raise ValueError(f"color count must be >= 1, got {self.q}")
        for s in self.symbols:
            if not isinstance(s, int) or not 1 <= s <= self.q:
                raise ValueError(f"symbol {s!r} out of range [1, {self.q}]")

    @classmethod
    def parse(cls, text: str, q: int) -> "Word":
        """Parse the text form: digit string for q <= 9, comma-separated otherwise."""
        text = text.strip()
        if not text:
            return cls((), q)
        if q <= 9:
            return cls(tuple(int(c) for c in text), q)
        return cls(tuple(int(part) for part in text.split(",")), q)

    def text(self) -> str:
        return symbols_text(self.symbols, self.q)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    def __repr__(self) -> str:
        return f"Word({self.text()!r}, q={self.q})"


def symbols_text(symbols: Sequence[int], q: int) -> str:
    """The text form of a word's symbols: digits for q <= 9, else comma-separated."""
    return ("" if q <= 9 else ",").join(map(str, symbols))


def row_texts(rows: np.ndarray, q: int) -> list[str]:
    """``Word.text()`` of each row of a 2-D array of 1-based symbols, in row order."""
    count, n = rows.shape
    if n == 0:
        return [""] * count
    if q <= 9:
        # Each row's n code points, read as one fixed-width numpy unicode string.
        digits = np.ascontiguousarray(rows + ord("0"), dtype=np.uint32)
        return digits.view(f"U{n}").ravel().tolist()
    # Each row's pieces "s," laid end to end, a column at a time, in a zeroed
    # buffer of n * w code points per row, w the widest piece's width. A
    # narrower piece writes NULs past its end, which the next piece overwrites;
    # zeroing the last comma leaves each text followed only by NULs, which
    # numpy strips when it reads the row as one fixed-width unicode string.
    codes, widths = _comma_pieces(q)
    w = codes.shape[1]
    out = np.zeros(count * n * w, dtype=np.uint32)
    # The w places of each row's next piece.
    span = np.arange(0, out.size, n * w)[:, None] + np.arange(w)
    for col in rows.T:
        out[span] = codes[col]
        span += widths[col][:, None]
    out[span[:, 0] - 1] = 0
    return out.view(f"U{n * w}").tolist()


@lru_cache(maxsize=16)
def _comma_pieces(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The code points of "s," for s = 0..q, NUL-padded to the widest, and
    each piece's width, both read-only."""
    codes = np.array([f"{s}," for s in range(q + 1)])
    codes = codes.view(np.uint32).reshape(q + 1, codes.itemsize // 4)
    widths = np.count_nonzero(codes, axis=1)
    codes.flags.writeable = widths.flags.writeable = False
    return codes, widths


# Tuple-level primitives shared with the enumeration-heavy modules.

def rotl(t: tuple[int, ...], r: int) -> tuple[int, ...]:
    n = len(t)
    if n == 0:
        raise ValueError("cannot rotate the empty word")
    r %= n
    return t[r:] + t[:r]


def rotations(t: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every rotation of t: ``[rotl(t, r) for r in range(len(t))]``."""
    return [t[r:] + t[:r] for r in range(len(t))]


def insertion_orbits(t: tuple[int, ...], allowed: Callable[[int, int], Iterable[int]]) -> Counter:
    """Outcome counts of one insertion step from the cyclic tuple t.

    Counts every (gap i0, symbol z in ``allowed(t[i0-1], t[i0])``, rotation
    r) outcome with weight 1: z goes just before t[i0] and the extended
    tuple is rotated left by r in [0, len(t)]. The necklace and J-chain
    steps are this count, each with its own ``allowed``.
    """
    row: Counter = Counter()
    for i0 in range(len(t)):
        for z in allowed(t[i0 - 1], t[i0]):
            row.update(rotations(t[:i0] + (z,) + t[i0:]))
    return row


def tuple_is_proper(t: Sequence[int]) -> bool:
    return all(t[i] != t[i + 1] for i in range(len(t) - 1))


def tuple_is_cyclically_proper(t: Sequence[int]) -> bool:
    # Words of length <= 1 count as cyclically proper. This is the unique
    # convention under which a single bead has insertion count 1, which in
    # turn is what makes the partition sum satisfy Z(2, q) = 2 q (q - 1).
    n = len(t)
    if n <= 1:
        return True
    return tuple_is_proper(t) and t[-1] != t[0]


def delete_at(x: Word, i: int) -> Word:
    """Remove the symbol at 1-based position i, shortening the word by one."""
    n = len(x)
    if not 1 <= i <= n:
        raise IndexError(f"position {i} out of range [1, {n}]")
    return Word(x.symbols[: i - 1] + x.symbols[i:], x.q)


def rotate(x: Word, r: int) -> Word:
    """Cyclic left shift by r positions (any integer; reduced modulo the length)."""
    return Word(rotl(x.symbols, r), x.q)


def is_proper(x: Word) -> bool:
    """True iff no two consecutive symbols are equal (non-cyclic reading)."""
    return tuple_is_proper(x.symbols)


def is_cyclically_proper(x: Word) -> bool:
    """True iff the word is a proper coloring of the cycle.

    Requires properness and, for length >= 2, that the last symbol differ
    from the first. Words of length <= 1 count as cyclically proper (see
    ``tuple_is_cyclically_proper``).
    """
    return tuple_is_cyclically_proper(x.symbols)


def reflect(x: Word) -> Word:
    """The reversed word."""
    return Word(x.symbols[::-1], x.q)


def normalize_color_perm(sigma: ColorPerm, q: int) -> dict[int, int]:
    """Validate that sigma is a bijection of {1, ..., q}; return it as a dict.

    Accepts a mapping {color: image} or a sequence whose entry at index
    c - 1 is the image of color c.
    """
    if isinstance(sigma, Mapping):
        table = {int(c): int(v) for c, v in sigma.items()}
    else:
        table = {c: int(v) for c, v in enumerate(sigma, start=1)}
    if sorted(table) != list(range(1, q + 1)) or sorted(table.values()) != list(range(1, q + 1)):
        raise ValueError(f"not a bijection of [1, {q}]: {sigma!r}")
    return table


def apply_color_perm(x: Word, sigma: ColorPerm) -> Word:
    """Apply a bijective relabeling of the colors symbol-wise."""
    table = normalize_color_perm(sigma, x.q)
    return Word(tuple(table[s] for s in x.symbols), x.q)
