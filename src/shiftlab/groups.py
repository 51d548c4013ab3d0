"""Z^d group plumbing: points, finite subsets, Folner sequences.

Points are plain integer tuples.  Finite subsets keep an implicit box
representation (inclusive per-axis bounds) whenever they can, so that
translates, Minkowski products, and symmetric-difference cardinalities
stay exact integer interval arithmetic even for boxes with millions of
points.  Everything quantitative is a Fraction; no floats in here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidConstantError, InvalidDimensionError

Point = tuple[int, ...]


def identity(dim: int) -> Point:
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    return (0,) * dim


def compose(g: Point, h: Point) -> Point:
    """Group operation of Z^d (coordinatewise addition)."""
    return tuple(a + b for a, b in zip(g, h, strict=True))


def inverse(g: Point) -> Point:
    return tuple(-a for a in g)


def sup_norm(g: Point) -> int:
    return max(abs(a) for a in g)


class FiniteSubset:
    """Duplicate-free finite set of points in Z^d.

    Two internal shapes: an implicit box, or an explicit frozenset.  Box
    algebra (translate, invert, Minkowski product, intersection size) never
    materializes points; mixed or irregular inputs fall back to sets.
    Iteration order is ascending lexicographic in both shapes.
    """

    __slots__ = ("dim", "_lo", "_hi", "_points", "_sorted")

    def __init__(self, points: Iterable[Point] = (), *, dim: int | None = None):
        pts = frozenset(tuple(int(c) for c in p) for p in points)
        if pts:
            dims = {len(p) for p in pts}
            if len(dims) != 1:
                raise InvalidDimensionError("points of mixed dimension")
            (d,) = dims
            if dim is not None and dim != d:
                raise InvalidDimensionError(f"declared dim {dim}, points have dim {d}")
            dim = d
        elif dim is None:
            raise InvalidDimensionError("empty set needs an explicit dim")
        if dim < 1:
            raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self._points: frozenset[Point] | None = pts
        self._lo: Point | None = None
        self._hi: Point | None = None
        self._sorted: tuple[Point, ...] | None = None

    @classmethod
    def box(cls, lo: Sequence[int], hi: Sequence[int]) -> "FiniteSubset":
        """Inclusive box prod_i [lo_i, hi_i]; requires lo_i <= hi_i."""
        lo = tuple(int(c) for c in lo)
        hi = tuple(int(c) for c in hi)
        if len(lo) != len(hi) or not lo:
            raise InvalidDimensionError("bounds of mixed or zero dimension")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"empty box bounds {lo}..{hi}")
        out = cls.__new__(cls)
        out.dim = len(lo)
        out._points = None
        out._lo, out._hi = lo, hi
        out._sorted = None
        return out

    @property
    def is_box(self) -> bool:
        return self._points is None

    @property
    def bounds(self) -> tuple[Point, Point]:
        """Inclusive (lo, hi) corners of a box."""
        if not self.is_box:
            raise ValueError("bounds of a set that is not a box")
        return self._lo, self._hi

    def size(self) -> int:
        """The number of points, as a plain int; `len()` gives the same
        count but refuses one above sys.maxsize, which a large box in high
        dimension exceeds."""
        if self.is_box:
            n = 1
            for a, b in zip(self._lo, self._hi):
                n *= b - a + 1
            return n
        return len(self._points)

    __len__ = size

    def __iter__(self) -> Iterator[Point]:
        if self.is_box:
            ranges = [range(a, b + 1) for a, b in zip(self._lo, self._hi)]
            return iter(itertools.product(*ranges))
        return iter(self.sorted_points())

    def __contains__(self, p: Point) -> bool:
        if self.is_box:
            return len(p) == self.dim and all(
                a <= c <= b for c, a, b in zip(p, self._lo, self._hi)
            )
        return tuple(p) in self._points

    def sorted_points(self) -> tuple[Point, ...]:
        """All points, ascending lexicographic. Materializes a box."""
        if self._sorted is None:
            if self.is_box:
                self._sorted = tuple(iter(self))
            else:
                self._sorted = tuple(sorted(self._points))
        return self._sorted

    def points(self) -> frozenset[Point]:
        if self.is_box:
            return frozenset(iter(self))
        return self._points

    def translate(self, g: Point) -> "FiniteSubset":
        """{p + g : p in self} (= g + self; Z^d is abelian)."""
        if len(g) != self.dim:
            raise InvalidDimensionError("translate by point of wrong dimension")
        if self.is_box:
            return FiniteSubset.box(compose(self._lo, g), compose(self._hi, g))
        return FiniteSubset(compose(p, g) for p in self._points)

    def invert(self) -> "FiniteSubset":
        """{-p : p in self}."""
        if self.is_box:
            return FiniteSubset.box(inverse(self._hi), inverse(self._lo))
        return FiniteSubset(inverse(p) for p in self._points)

    def minkowski(self, other: "FiniteSubset") -> "FiniteSubset":
        """{a + b : a in self, b in other}; box + box stays a box."""
        if self.dim != other.dim:
            raise InvalidDimensionError("Minkowski product across dimensions")
        if self.is_box and other.is_box:
            return FiniteSubset.box(
                compose(self._lo, other._lo), compose(self._hi, other._hi)
            )
        return FiniteSubset(
            compose(a, b) for a in self.points() for b in other.points()
        )

    def contains_set(self, other: "FiniteSubset") -> bool:
        if self.is_box and other.is_box:
            return all(a <= c for a, c in zip(self._lo, other._lo)) and all(
                c <= b for c, b in zip(other._hi, self._hi)
            )
        return all(p in self for p in other)

    def union(self, other: "FiniteSubset") -> "FiniteSubset":
        if self.dim != other.dim:
            raise InvalidDimensionError("union across dimensions")
        if self.contains_set(other):
            return self
        if other.contains_set(self):
            return other
        return FiniteSubset(self.points() | other.points())

    def intersection_size(self, other: "FiniteSubset") -> int:
        if self.dim != other.dim:
            raise InvalidDimensionError("intersection across dimensions")
        if self.is_box and other.is_box:
            n = 1
            for a1, b1, a2, b2 in zip(self._lo, self._hi, other._lo, other._hi):
                w = min(b1, b2) - max(a1, a2) + 1
                if w <= 0:
                    return 0
                n *= w
            return n
        small, big = sorted((self, other), key=len)
        return sum(1 for p in small if p in big)

    def sym_diff_size(self, other: "FiniteSubset") -> int:
        return self.size() + other.size() - 2 * self.intersection_size(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSubset):
            return NotImplemented
        if self.dim != other.dim or self.size() != other.size():
            return False
        if self.is_box and other.is_box:
            return self._lo == other._lo and self._hi == other._hi
        return self.points() == other.points()

    def __repr__(self) -> str:
        if self.is_box:
            return f"FiniteSubset.box({self._lo}, {self._hi})"
        pts = self.sorted_points()
        if len(pts) > 8:
            return f"FiniteSubset(<{len(pts)} points in Z^{self.dim}>)"
        return f"FiniteSubset({list(pts)})"


def sorted_sites(window: FiniteSubset | Iterable[Point]) -> tuple[Point, ...]:
    """The sites of a window as tuples, in ascending lexicographic order.
    A plain iterable that repeats a site or mixes dimensions is refused."""
    if isinstance(window, FiniteSubset):
        return window.sorted_points()
    sites = tuple(sorted(map(tuple, window)))
    if len(set(map(len, sites))) > 1:
        raise InvalidDimensionError("window points of mixed dimension")
    if len(set(sites)) < len(sites):
        repeated = next(p for p, q in zip(sites, sites[1:]) if p == q)
        raise ValueError(f"window repeats site {repeated}")
    return sites


def box_set(dim: int, n: int, centered: bool = False) -> FiniteSubset:
    """{0..n}^dim, or {-n..n}^dim when centered; n >= 0."""
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    if n < 0:
        raise ValueError(f"box parameter must be >= 0, got {n}")
    if centered:
        return FiniteSubset.box((-n,) * dim, (n,) * dim)
    return FiniteSubset.box((0,) * dim, (n,) * dim)


@dataclass(frozen=True)
class FolnerSequence:
    """A Folner sequence presented as an index -> finite-set rule.

    Indices are 1-based.  `length` is None for the built-in unbounded box
    families and a hard cap for custom finite lists.
    """

    dim: int
    kind: str
    length: int | None
    _at: Callable[[int], FiniteSubset] = field(repr=False)

    def set_at(self, n: int) -> FiniteSubset:
        if n < 1:
            raise ValueError(f"Folner indices are 1-based, got {n}")
        if self.length is not None and n > self.length:
            raise ValueError(f"sequence has {self.length} terms, asked for {n}")
        return self._at(n)


BOX_KINDS = ("boxes", "centered")


def make_box_folner(dim: int, kind: str = "boxes") -> FolnerSequence:
    """Standard box Folner sequences in Z^dim.

    kind "boxes": F_n = {0..n}^dim.  kind "centered": F_n = {-n..n}^dim.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    if kind not in BOX_KINDS:
        raise ValueError(f"kind must be one of {BOX_KINDS}, got {kind!r}")
    centered = kind == "centered"
    return FolnerSequence(
        dim=dim, kind=kind, length=None, _at=lambda n: box_set(dim, n, centered)
    )


def custom_folner(sets: Sequence[FiniteSubset]) -> FolnerSequence:
    sets = list(sets)
    if not sets:
        raise ValueError("custom Folner sequence needs at least one set")
    dim = sets[0].dim
    if any(s.dim != dim for s in sets):
        raise InvalidDimensionError("custom Folner sets of mixed dimension")
    if any(len(s) == 0 for s in sets):
        raise ValueError("Folner sets must be non-empty")
    return FolnerSequence(dim=dim, kind="custom", length=len(sets), _at=lambda n: sets[n - 1])


def folner_defect(F: FiniteSubset, g: Point) -> Fraction:
    """|gF symdiff F| / |F|; in Z^d the left and right translates coincide."""
    if F.size() == 0:
        raise ValueError("defect of an empty set")
    moved = F.translate(g)
    return Fraction(moved.sym_diff_size(F), F.size())


def _union_size(sets: Iterable[FiniteSubset], target: FiniteSubset) -> int:
    """|union_{S in sets} S^{-1} target| with a running union (sets non-empty)."""
    acc: FiniteSubset | None = None
    for s in sets:
        piece = s.invert().minkowski(target)
        acc = piece if acc is None else acc.union(piece)
    return acc.size()


def _tempering_constant(C: float | Fraction) -> Fraction:
    """C as an exact Fraction (a float by its exact binary value); it must exceed 1."""
    C = Fraction(C)
    if C <= 1:
        raise InvalidConstantError(f"tempering constant must exceed 1, got {C}")
    return C


def temperedness_ratio(F: FolnerSequence, n: int) -> Fraction:
    """|union_{k<=n} F_k^{-1} F_{n+1}| / |F_{n+1}|."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    target = F.set_at(n + 1)
    return Fraction(_union_size((F.set_at(k) for k in range(1, n + 1)), target), target.size())


def tempered_subsequence(F: FolnerSequence, C: float | Fraction, horizon: int) -> list[int]:
    """Greedy first-fit tempered subsequence within indices 1..horizon.

    Starts at index 1 and accepts the next index m whenever
    |union_{k chosen} F_k^{-1} F_m| <= C |F_m|.  Greedy first-fit is one
    admissible selection rule; any subsequence passing `check_tempered`
    with the same C is equally valid.
    """
    C = _tempering_constant(C)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    chosen = [1]
    for m in range(2, horizon + 1):
        target = F.set_at(m)
        if _union_size((F.set_at(k) for k in chosen), target) <= C * target.size():
            chosen.append(m)
    return chosen


def check_tempered(sets: Sequence[FiniteSubset], C: float | Fraction) -> bool:
    """Does the explicit list satisfy the C-tempered condition at every step?"""
    C = _tempering_constant(C)
    return all(
        _union_size(sets[:j], sets[j]) <= C * sets[j].size() for j in range(1, len(sets))
    )
