"""Braid words, their combinatorics, and the diagram cell model.

A braid word on m strands is a sequence of signed generators; crossing
indices count from the top of the braid (index 1 is the first letter).
Paths traverse the diagram bottom-up through horizontal gaps k, k-1, ..., 0,
where gap g is the slice directly below crossing g (gap k is the bottom of
the braid, gap 0 the top).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

# A cell of the diagram: (gap, strand position). A path occupies exactly one
# cell per gap; two paths pass through the same point of the drawn diagram
# iff their cell footprints intersect.
DiagramCell = tuple[int, int]


class NotAKnotError(ValueError):
    """The closure of the braid is a link with more than one component."""


@dataclass(frozen=True)
class BraidWord:
    """A braid word: strand count plus a sequence of (generator, sign) pairs."""

    strands: int
    letters: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strands must be at least 1")
        letters = tuple((int(i), int(s)) for i, s in self.letters)
        object.__setattr__(self, "letters", letters)
        for i, s in letters:
            if not 1 <= i <= self.strands - 1:
                raise ValueError(
                    f"generator index {i} out of range for {self.strands} strands"
                )
            if s not in (-1, 1):
                raise ValueError(f"crossing sign must be +1 or -1, got {s}")

    def __len__(self) -> int:
        return len(self.letters)

    def is_positive(self) -> bool:
        return all(s > 0 for _, s in self.letters)

    def serialize(self) -> str:
        return " ".join(str(i * s) for i, s in self.letters)

    def to_json(self) -> dict:
        return {"strands": self.strands, "word": [i * s for i, s in self.letters]}

    @classmethod
    def from_json(cls, data: Mapping) -> "BraidWord":
        strands = int(data["strands"])
        letters = tuple((abs(t), 1 if t > 0 else -1) for t in data["word"])
        return cls(strands, letters)


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse a whitespace-separated list of signed generator indices.

    Token t means generator |t| with the sign of t; 0 is rejected, and
    BraidWord rejects a strand count below 1 or an index out of range.
    """
    letters = []
    for token in text.split():
        try:
            t = int(token)
        except ValueError:
            raise ValueError(f"malformed braid token: {token!r}") from None
        if t == 0:
            raise ValueError("braid token must be a nonzero integer")
        letters.append((abs(t), 1 if t > 0 else -1))
    return BraidWord(strands, tuple(letters))


def writhe(b: BraidWord) -> int:
    """Sum of the crossing signs."""
    return sum(s for _, s in b.letters)


def underlying_permutation(b: BraidWord) -> tuple[int, ...]:
    """Map each bottom strand position to its top position.

    Entry p-1 of the result is the top position reached by following the
    strand that starts at bottom position p.
    """
    result = []
    for start in range(1, b.strands + 1):
        pos = start
        # walk bottom-up: the last letter is the bottom crossing
        for l, _ in reversed(b.letters):
            if pos == l:
                pos = l + 1
            elif pos == l + 1:
                pos = l
        result.append(pos)
    return tuple(result)


def is_knot_closure(b: BraidWord) -> bool:
    """True iff the closure of the braid is a knot (single m-cycle).

    Each letter is a transposition, and a product of t transpositions has
    at least m - t cycles, so an m-cycle needs at least m - 1 letters.  A
    shorter word is answered before the permutation is built, so the time
    and memory of a rejection do not grow with the strand count.
    """
    if len(b) < b.strands - 1:
        return False
    perm = underlying_permutation(b)
    seen = 1
    pos = perm[0]
    while pos != 1:
        pos = perm[pos - 1]
        seen += 1
    return seen == b.strands
