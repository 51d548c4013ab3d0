"""Configurations on Z^d given by finite rules, plus the weighted metric.

A configuration is a total map Z^d -> alphabet described by a finite rule:
a constant, a periodic table over a finite-index sublattice, a predicate,
or a finite patch over another configuration.  A sublattice keeps a
lower-triangular integer basis of itself, so its fundamental domain is
always the box of that basis's diagonal and reduction into it needs no
fractions.  A binary configuration also reads out in bulk over a 1-D or
2-D box as bit-packed rows (`Configuration.rows`), which the estimators
count with XOR and `int.bit_count`, or as lane rows with one L-byte lane
per column (`lane_rows`, `lane_reader`).  When it has such rows, its site
reads (`Configuration.value`) come from 64-column chunks of them too,
memoized on the configuration; the site rule it was built with stays the
per-site reference, and configurations without rows read sites through
it.  `integer_scale` is the one place where exact rationals become
integers over one denominator, for the estimators and the solvers alike.
The metric machinery at the bottom implements radial summable translation
weights with certified tail bounds, so truncated distances come back as
exact [lo, hi] Fraction intervals.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InvalidDimensionError
from .groups import FiniteSubset, Point, compose, sorted_sites, sup_norm


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"alphabet needs at least 2 symbols, got {self.size}")

    def symbols(self) -> range:
        return range(self.size)

    def check(self, s: int) -> int:
        if not 0 <= s < self.size:
            raise ValueError(f"symbol {s} outside alphabet of size {self.size}")
        return s


def _triangular(rows: tuple[tuple[int, ...], ...]) -> list[list[int]] | None:
    """Columns of a lower-triangular basis of the lattice that the columns
    of `rows` span, with a positive diagonal; None when they are dependent.

    Integer column operations keep the lattice: Euclid along row i leaves
    the gcd of the row in column i and zeros in the columns after it.
    """
    d = len(rows)
    cols = [[rows[i][j] for i in range(d)] for j in range(d)]
    for i in range(d):
        while True:
            live = [j for j in range(i, d) if cols[j][i]]
            if not live:
                return None
            j = min(live, key=lambda c: abs(cols[c][i]))
            cols[i], cols[j] = cols[j], cols[i]
            if len(live) == 1:
                break
            for k in range(i + 1, d):
                q = cols[k][i] // cols[i][i]
                cols[k] = [a - q * b for a, b in zip(cols[k], cols[i])]
        if cols[i][i] < 0:
            cols[i] = [-a for a in cols[i]]
    return cols


class Lattice:
    """Finite-index sublattice of Z^d spanned by integer basis columns.

    basis[i][j] is the i-th coordinate of the j-th generator.  The lattice
    also keeps a lower-triangular basis of itself with positive diagonal
    h_0..h_{d-1}: its index is the product of the h_i (the determinant must
    be nonzero), and the box prod_i [0, h_i) holds exactly one point of
    every coset, so reduction and membership need only integers.
    """

    __slots__ = ("dim", "basis", "index", "moduli", "_tri")

    def __init__(self, basis: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(c) for c in row) for row in basis)
        d = len(rows)
        if d < 1 or any(len(r) != d for r in rows):
            raise InvalidDimensionError("basis must be a square matrix")
        tri = _triangular(rows)
        if tri is None:
            raise ValueError("basis is singular; the sublattice must have finite index")
        diag = tuple(tri[i][i] for i in range(d))
        self.dim = d
        self.basis = rows
        self.index = math.prod(diag)
        # per-axis moduli when the lattice is the product of the h_i Z, else None
        product = all(tri[j][i] == 0 for j in range(d) for i in range(j + 1, d))
        self.moduli = diag if product else None
        self._tri = tuple(tuple(c) for c in tri)

    @classmethod
    def diagonal(cls, moduli: Sequence[int] | int, dim: int | None = None) -> "Lattice":
        """prod_i (m_i Z); a scalar m with dim=d means (mZ)^d."""
        if isinstance(moduli, int):
            if dim is None:
                raise InvalidDimensionError("scalar modulus needs an explicit dim")
            moduli = (moduli,) * dim
        moduli = tuple(int(m) for m in moduli)
        if any(m < 1 for m in moduli):
            raise ValueError(f"moduli must be >= 1, got {moduli}")
        d = len(moduli)
        return cls([[moduli[i] if i == j else 0 for j in range(d)] for i in range(d)])

    def reduce(self, p: Point) -> Point:
        """Canonical representative of p + L: the point of the box
        prod_i [0, h_i) in its coset, by substitution down the triangular
        basis."""
        if len(p) != self.dim:
            raise InvalidDimensionError("point of wrong dimension")
        r = list(p)
        for i, col in enumerate(self._tri):
            q = r[i] // col[i]
            if q:
                for k in range(i, self.dim):
                    r[k] -= q * col[k]
        return tuple(r)

    def order(self, p: Point) -> int:
        """Least n >= 1 with n p in the lattice: the order of p + L in Z^d / L.

        Down the triangular basis, n must first make coordinate i a multiple
        of h_i (a factor h_i / gcd(h_i, r_i)); subtracting that multiple of
        the i-th column zeroes coordinate i and leaves the later ones.
        """
        if len(p) != self.dim:
            raise InvalidDimensionError("point of wrong dimension")
        r = list(p)
        n = 1
        for i, col in enumerate(self._tri):
            step = col[i] // math.gcd(col[i], r[i])
            q = r[i] * step // col[i]
            r = [step * a - q * b for a, b in zip(r, col)]
            n *= step
        return n

    def fundamental_domain(self) -> FiniteSubset:
        """The box prod_i [0, h_i): one representative per coset of L."""
        hi = tuple(col[i] - 1 for i, col in enumerate(self._tri))
        return FiniteSubset.box((0,) * self.dim, hi)

    def __repr__(self) -> str:
        if self.moduli is not None:
            return f"Lattice.diagonal({list(self.moduli)})"
        return f"Lattice({[list(r) for r in self.basis]})"


# a bulk rule maps the inclusive corners (lo, hi) of a box to its rows
RowsRule = Callable[[Point, Point], list[int]]

# bulk readers split a window into tiles of at most this many sites, so the
# rows they hold stay small however large the window is
TILE_SITES = 1 << 20

# a site read from bulk rows keeps at most this many 64-column row chunks,
# each a 64-byte `bytes` with one symbol per column
CHUNK_MEMO = 1024


def rows_available(window: FiniteSubset, *configs: "Configuration") -> bool:
    """Can the configurations be read as bulk rows over this window?

    That needs a 1-D or 2-D box of the configurations' dimension and a
    binary alphabet; everything else is evaluated site by site.
    """
    return window.is_box and window.dim <= 2 and all(
        c.dim == window.dim and c.alphabet.size == 2 for c in configs
    )


def _same_dimension(windows: Sequence[FiniteSubset], configs: Sequence["Configuration"]) -> None:
    """Refuse, before any site is read, configurations and windows not all
    of one dimension: a rule may answer points of any length."""
    dims = sorted({c.dim for c in configs}), sorted({w.dim for w in windows})
    if len(dims[1]) > 1 or dims[0] != dims[1]:
        c, w = ("/".join(map(str, d)) for d in dims)
        raise InvalidDimensionError(
            f"configurations of dimension {c} read on windows of dimension {w}"
        )


def box_tiles(box: FiniteSubset, divisor: int = 1) -> Iterator[FiniteSubset]:
    """Sub-boxes of at most TILE_SITES // divisor sites (and at least one)
    that partition a 1-D or 2-D box.  A reader that holds `divisor` bytes
    a site passes it, so its tiles stay as small as the others'."""
    limit = max(1, TILE_SITES // divisor)
    lo, hi = box.bounds
    if box.dim == 1:
        for a in range(lo[0], hi[0] + 1, limit):
            yield FiniteSubset.box((a,), (min(a + limit - 1, hi[0]),))
        return
    cols = min(hi[1] - lo[1] + 1, limit)
    band = limit // cols
    for a in range(lo[0], hi[0] + 1, band):
        for b in range(lo[1], hi[1] + 1, cols):
            yield FiniteSubset.box(
                (a, b), (min(a + band - 1, hi[0]), min(b + cols - 1, hi[1]))
            )


def row_bits(row: int, width: int) -> str:
    """The row as '0'/'1' characters, bit 0 first."""
    return format(row, "b").zfill(width)[::-1]


# A lane row is an int with one L-byte lane per column, lane j in bits
# [8Lj, 8Lj + 8L).  `lane_rows` writes lane rows and `lane_reader` reads
# them back; this is the one module that knows their byte layout.
# _DIGIT maps the characters '0'/'1' to the byte values 0/1.
_DIGIT = bytes.maketrans(b"01", b"\x00\x01")
# memoryview formats of 1-, 2-, 4- and 8-byte unsigned lanes
_LANE_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}


def lane_size(bits: int) -> int:
    """Bytes L of a lane that holds values of `bits` bits: the least of 1,
    2, 4 and 8 that does, else exactly ceil(bits / 8)."""
    return next((n for n in _LANE_FORMAT if 8 * n >= bits), -(-bits // 8))


def lane_rows(rows: Iterable[int], width: int, L: int, offset: int = 0) -> Iterator[int]:
    """Lane rows of bit rows: lane offset + j holds bit j of the row, for
    j < width, and every other lane is 0."""
    buf = bytearray(L * (offset + width))
    for row in rows:
        buf[L * offset :: L] = row_bits(row, width).encode().translate(_DIGIT)
        yield int.from_bytes(buf, "little")


def lane_reader(L: int, count: int) -> Callable[[int], Sequence[int]]:
    """Reader of lanes 0..count-1 of an L-byte lane row as ints, in column
    order; the lanes above them are dropped, borrows included.

    Lanes of 1, 2, 4 or 8 bytes on a little-endian host come back as a
    `memoryview.cast`, which `Counter.update` counts in C; any other lane
    row is read lane by lane with `int.from_bytes`.
    """
    size = L * count
    mask = (1 << 8 * size) - 1
    fmt = _LANE_FORMAT.get(L) if sys.byteorder == "little" else None

    def read(row: int) -> Sequence[int]:
        raw = (row & mask).to_bytes(size, "little")
        if fmt:
            return memoryview(raw).cast(fmt)
        return [int.from_bytes(raw[k : k + L], "little") for k in range(0, size, L)]

    return read


def _pack(bits: Iterable[int]) -> int:
    """Row whose bit j is set when the j-th item is."""
    text = "".join("1" if b else "0" for b in bits)
    return int(text[::-1], 2) if text else 0


def _tile(period: str, start: int, width: int) -> int:
    """Row whose bit j is period[(start + j) % len(period)]."""
    m = len(period)
    k = start % m
    text = (period[k:] + period[:k]) * (width // m + 1)
    return int(text[:width][::-1], 2)


def _grid(lo: Point, hi: Point) -> tuple[int, int, int, int]:
    """(first row coordinate, row count, first column, width) of a 1-D or
    2-D box; a 1-D box is a single row at coordinate 0."""
    if len(lo) == 1:
        return 0, 1, lo[0], hi[0] - lo[0] + 1
    return lo[0], hi[0] - lo[0] + 1, lo[1], hi[1] - lo[1] + 1


class Configuration:
    """A point of the shift space: a total rule Z^dim -> alphabet.

    `period_lattice` is an optional promise that the rule is invariant
    under translation by that sublattice; exact-orbit tooling relies on it,
    and `PeriodicOrbitMeasure` checks it.  `rows` is an optional bulk rule
    that must agree with `rule` on every site; constructors that know their
    structure supply one.  On a binary configuration of dimension 1 or 2,
    `value` then reads sites from 64-column chunks of those rows, each
    turned once into a `bytes` of one symbol per column and kept in the
    configuration's own memo (`_memo`), beside the chunk it last read with
    its row and first column (`_row`, `_col`, `_chunk`), so the agreement
    governs site reads too.  Any other configuration has no memo, and
    `value` calls `_rule`, which stays the per-site reference either way.
    """

    __slots__ = ("dim", "alphabet", "kind", "period_lattice", "_rule", "_rows",
                 "_memo", "_row", "_col", "_chunk")

    def __init__(
        self,
        dim: int,
        alphabet: Alphabet | int,
        rule: Callable[[Point], int],
        *,
        kind: str = "rule",
        period_lattice: Lattice | None = None,
        rows: RowsRule | None = None,
    ):
        if dim < 1:
            raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.alphabet = Alphabet(alphabet) if isinstance(alphabet, int) else alphabet
        self.kind = kind
        self.period_lattice = period_lattice
        self._rule = rule
        self._rows = rows
        self._memo = {} if self.has_row_rule() else None
        # no chunk read yet: row None matches no row
        self._row, self._col, self._chunk = None, 0, b""

    def value(self, g: Point) -> int:
        """The symbol at g, in one frame.  With a chunk memo, the site in
        column c of a row (a 1-D site c is in row 0) is byte c - lo of
        chunk (row, c >> 6), the aligned 64 columns of the row from
        lo = c & -64 on, one symbol a byte.  Each chunk is read once, by
        `_rows`, into a memo that is cleared when it holds CHUNK_MEMO
        chunks.  The chunk last read, which a scan along a row reads again
        at once, is held with its row and lo, so a hit is one range test
        and one index; it is always in the memo, since a clear comes just
        before a new chunk; a point of another length is refused.  Without
        a memo, the rule answers."""
        memo = self._memo
        if memo is None:
            return self._rule(g)
        try:
            if self.dim == 1:
                a, (c,) = 0, g
            else:
                a, c = g
        except ValueError:
            # a point of another length does not unpack
            raise InvalidDimensionError("point of wrong dimension") from None
        i = c - self._col
        if 0 <= i < 64 and a == self._row:
            return self._chunk[i]
        k = c >> 6
        chunk = memo.get((a, k))
        if chunk is None:
            if len(memo) >= CHUNK_MEMO:
                memo.clear()
            lo = k << 6
            if self.dim == 1:
                bits = self._rows((lo,), (lo + 63,))[0]
            else:
                bits = self._rows((a, lo), (a, lo + 63))[0]
            chunk = memo[a, k] = row_bits(bits, 64).encode().translate(_DIGIT)
        self._row, self._col, self._chunk = a, c & -64, chunk
        return chunk[c & 63]

    def has_row_rule(self) -> bool:
        """Is this a binary 1-D or 2-D configuration with a bulk rows rule?
        Only such a one reads sites from chunks and gets `transport`'s row
        limits; `rows` packs any other from one `value` call a site."""
        return self._rows is not None and self.dim <= 2 and self.alphabet.size == 2

    def rows(self, box: FiniteSubset) -> list[int]:
        """Bit-packed rows of a binary configuration over a 1-D or 2-D box.

        In 2-D, bit j of row i is the site (lo_0 + i, lo_1 + j); in 1-D the
        single row's bit j is the site lo_0 + j.  Without a bulk rule the
        rows are built from `value`, one call per site.
        """
        if not rows_available(box, self):
            raise ValueError(
                "bulk rows need a binary configuration and a 1-D or 2-D box of its dimension"
            )
        lo, hi = box.bounds
        if self._rows is not None:
            return self._rows(lo, hi)
        val = self.value
        if self.dim == 1:
            return [_pack(val((c,)) for c in range(lo[0], hi[0] + 1))]
        cols = range(lo[1], hi[1] + 1)
        return [_pack(val((a, b)) for b in cols) for a in range(lo[0], hi[0] + 1)]

    def indicator(self, symbol: int) -> "Indicator":
        """The membership rule g -> [x(g) == symbol], countable in bulk."""
        return Indicator(self, symbol)

    def __repr__(self) -> str:
        return f"Configuration(kind={self.kind!r}, dim={self.dim}, |A|={self.alphabet.size})"


class Indicator:
    """Membership rule g -> [config(g) == symbol].

    It is an ordinary callable; `upper_density` recognizes it and counts
    the set bits of the configuration's rows instead of calling it.
    """

    __slots__ = ("config", "symbol")

    def __init__(self, config: Configuration, symbol: int):
        self.config = config
        self.symbol = symbol

    def __call__(self, g: Point) -> bool:
        return self.config.value(g) == self.symbol


def constant_config(dim: int, symbol: int, alphabet: int = 2) -> Configuration:
    a = Alphabet(alphabet)
    a.check(symbol)

    def rows(lo: Point, hi: Point) -> list[int]:
        _, height, _, width = _grid(lo, hi)
        return [((1 << width) - 1) * symbol] * height

    return Configuration(dim, a, lambda g: symbol, kind=f"constant:{symbol}",
                         period_lattice=Lattice.diagonal(1, dim=dim), rows=rows)


def _tiled_rows(lattice: Lattice, period_text: Callable[[int], str]) -> RowsRule:
    """Bulk rule of a periodic configuration under a 1-D or 2-D lattice.

    The triangular basis has first column (h_0, t) and last diagonal h_1
    (a 1-D lattice is the single row 0, with h_0 = 1 and t = 0): row
    q h_0 + r is row r shifted by -q t, and row r of the fundamental domain
    is the period string period_text(r) of h_1 sites, '1' for a nonzero
    symbol, asked for once and tiled along the row.
    """
    tri = lattice._tri
    h0, t = (tri[0][0], tri[0][1]) if lattice.dim == 2 else (1, 0)
    h1 = tri[-1][-1]
    periods: dict[int, str] = {}

    def period(r: int) -> str:
        text = periods.get(r)
        if text is None:
            text = periods[r] = period_text(r)
        return text

    def rows(lo: Point, hi: Point) -> list[int]:
        a0, height, c0, width = _grid(lo, hi)
        tiled: dict[tuple[int, int], int] = {}
        out = []
        for a in range(a0, a0 + height):
            q, r = divmod(a, h0)
            key = (r, (c0 - q * t) % h1)
            row = tiled.get(key)
            if row is None:
                row = tiled[key] = _tile(period(r), key[1], width)
            out.append(row)
        return out

    return rows


def periodic_config(lattice: Lattice, table: Mapping[Point, int], alphabet: int = 2) -> Configuration:
    """Configuration invariant under `lattice`, given by a coset table.

    The table must assign a symbol to every coset; keys are canonicalized
    through lattice.reduce, so any coset representatives are accepted.
    """
    a = Alphabet(alphabet)
    canon: dict[Point, int] = {}
    for k, v in table.items():
        canon[lattice.reduce(tuple(k))] = a.check(v)
    domain = lattice.fundamental_domain()
    missing = [p for p in domain if p not in canon]
    if missing:
        raise ValueError(f"table misses {len(missing)} cosets, e.g. {missing[0]}")
    if len(canon) != len(domain):
        raise ValueError("table has entries outside the fundamental domain")
    bulk = None
    if lattice.dim <= 2:
        h1 = lattice._tri[-1][-1]

        def period_text(r: int) -> str:
            # (r, c)[-dim:] is the table key
            keys = ((r, c)[-lattice.dim:] for c in range(h1))
            return "".join("1" if canon[k] else "0" for k in keys)

        bulk = _tiled_rows(lattice, period_text)
    return Configuration(lattice.dim, a, lambda g: canon[lattice.reduce(g)],
                         kind="periodic", period_lattice=lattice, rows=bulk)


def word_config(word: Sequence[int], alphabet: int = 2) -> Configuration:
    """d=1 configuration repeating `word` with period len(word).

    It is the periodic_config of the table {(i,): word[i]}, whose keys are
    already canonical, so it is built from the word with no per-site
    reduction, check or table.
    """
    word = tuple(map(int, word))
    if not word:
        raise ValueError("word must be non-empty")
    lat = Lattice.diagonal([len(word)])
    a = Alphabet(alphabet)
    if min(word) < 0 or max(word) >= a.size:
        # the first symbol outside the alphabet, as periodic_config names it
        a.check(next(s for s in word if not 0 <= s < a.size))
    bulk = _tiled_rows(lat, lambda r: "".join(map("01".__getitem__, map(bool, word))))
    return Configuration(1, a, lambda g: word[lat.reduce(g)[0]],
                         kind="periodic", period_lattice=lat, rows=bulk)


def predicate_config(
    dim: int,
    predicate: Callable[[Point], bool],
    *,
    name: str = "predicate",
    period_lattice: Lattice | None = None,
    rows: RowsRule | None = None,
) -> Configuration:
    """Binary indicator configuration: 1 where the predicate holds.

    `rows`, when given, must be the predicate's bulk rule; the declared
    period lattice is never used to derive one.
    """
    return Configuration(dim, 2, lambda g: int(bool(predicate(g))),
                         kind=name, period_lattice=period_lattice, rows=rows)


def patched_config(base: Configuration, patch: Mapping[Point, int]) -> Configuration:
    """Finite modification of `base` (patch wins on its domain)."""
    fixed = {tuple(k): base.alphabet.check(v) for k, v in patch.items()}
    if any(len(k) != base.dim for k in fixed):
        raise InvalidDimensionError("patch key of wrong dimension")
    # the base's own rules, so that a site read is one `value` frame and a
    # bulk read skips the base's box check, which the caller's has made
    base_rule, base_rows = base._rule, base._rows

    def rule(g: Point) -> int:
        hit = fixed.get(g)
        return base_rule(g) if hit is None else hit

    # row coordinate (0 in 1-D) -> the patch's (column, symbol) in that row,
    # sorted, so that a read touches only the entries of its own columns
    by_row: dict[int, list[tuple[int, int]]] = {}
    for g, v in sorted(fixed.items()):
        by_row.setdefault(g[0] if len(g) == 2 else 0, []).append((g[-1], v))

    def rows(lo: Point, hi: Point) -> list[int]:
        out = base_rows(lo, hi)
        a0, height, c0, width = _grid(lo, hi)
        for i in range(height):
            entries = by_row.get(a0 + i)
            if not entries:
                continue
            row = out[i]
            first, end = bisect_left(entries, (c0,)), bisect_left(entries, (c0 + width,))
            for c, v in entries[first:end]:
                bit = 1 << (c - c0)
                row = row | bit if v else row & ~bit
            out[i] = row
        return out

    return Configuration(base.dim, base.alphabet, rule, kind=f"patched:{base.kind}",
                         rows=rows if base_rows is not None else None)


def shift(g: Point, x: Configuration) -> Configuration:
    """Left shift action: (g.x)(h) = x(h + g)."""
    if len(g) != x.dim:
        raise InvalidDimensionError("shift by point of wrong dimension")
    x_rule, x_rows = x._rule, x._rows

    def rows(lo: Point, hi: Point) -> list[int]:
        return x_rows(compose(lo, g), compose(hi, g))

    return Configuration(
        x.dim,
        x.alphabet,
        lambda h: x_rule(compose(h, g)),
        kind=x.kind,
        period_lattice=x.period_lattice,
        rows=rows if x_rows is not None else None,
    )


def restrict(x: Configuration, window: FiniteSubset | Iterable[Point]) -> tuple[int, ...]:
    """Pattern of x over the window, in ascending lexicographic site order."""
    return tuple(x.value(p) for p in sorted_sites(window))


# --- exact scale ------------------------------------------------------------


def integer_scale(values: Iterable) -> tuple[int, list[int]]:
    """(E, ints): E the lcm of the values' denominators and each value times
    E, in one pass: the scale grows to each new denominator, and the values
    scaled so far grow with it.  Each value is read exactly as its integer
    ratio (Fractions, ints, floats and Decimals have one); any other value
    is made a Fraction first.  This is the one place where exact inputs
    become integers over one denominator."""
    E = 1
    out: list[int] = []
    for v in values:
        try:
            num, den = v.as_integer_ratio()
        except AttributeError:
            num, den = Fraction(v).as_integer_ratio()
        if E % den:
            grow = den // math.gcd(E, den)
            E *= grow
            out = [x * grow for x in out]
        out.append(num * (E // den))
    return E, out


# --- admissible metric ------------------------------------------------------

DEFAULT_RADIUS = 12


def shell_size(dim: int, r: int) -> int:
    """Number of points with sup-norm exactly r."""
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")
    if r < 0:
        raise ValueError(f"shell radius must be >= 0, got {r}")
    if r == 0:
        return 1
    return (2 * r + 1) ** dim - (2 * r - 1) ** dim


@dataclass(frozen=True)
class AdmissibleMetric:
    """Radial summable translation-weight metric
    d(x,z) = sum_g w(g) [x(g) != z(g)], with w(g) = shell_weight(sup_norm(g)).

    shell_weight(r) is the nonnegative weight of each site at sup-norm r,
    the one description of the metric: `weight` and `ball_weights` read
    it, and the estimators sum shell counts against it.  tail_bound(R)
    must dominate the total weight outside the closed sup-norm ball of
    radius R; it may be slack (the default family declares 2^-R although
    its exact tail is 2^-(R+1)).
    """

    dim: int
    shell_weight: Callable[[int], Fraction]
    tail_bound: Callable[[int], Fraction]

    def weight(self, g: Point) -> Fraction:
        return self.shell_weight(sup_norm(g))

    def ball_weights(self, radius: int) -> tuple[tuple[Point, Fraction], ...]:
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        box = FiniteSubset.box((-radius,) * self.dim, (radius,) * self.dim)
        return tuple((p, self.weight(p)) for p in box)


def default_metric(dim: int) -> AdmissibleMetric:
    """Weight 2^-r / (2 * shell_size(dim, r)) at sup-norm r; total mass 1.

    Each shell carries mass 2^-r / 2, so the declared tail bound 2^-R is an
    upper bound with a factor-2 margin over the exact tail 2^-(R+1).
    """
    if dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {dim}")

    @lru_cache(maxsize=None)
    def shell_weight(r: int) -> Fraction:
        return Fraction(1, 2**r * 2 * shell_size(dim, r))

    def tail_bound(radius: int) -> Fraction:
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return Fraction(1, 2**radius)

    return AdmissibleMetric(dim=dim, shell_weight=shell_weight, tail_bound=tail_bound)


def common_metric(
    x: Configuration, z: Configuration, metric: AdmissibleMetric | None
) -> AdmissibleMetric:
    """The metric to compare x and z with (the default one when None),
    after checking that x, z and the metric share one dimension."""
    if x.dim != z.dim:
        raise InvalidDimensionError("configurations of different dimension")
    if metric is None:
        metric = default_metric(x.dim)
    if metric.dim != x.dim:
        raise InvalidDimensionError("metric dimension does not match configurations")
    return metric


def config_distance(
    x: Configuration,
    z: Configuration,
    metric: AdmissibleMetric | None = None,
    radius: int = DEFAULT_RADIUS,
) -> tuple[Fraction, Fraction]:
    """Certified interval [lo, hi] for the metric distance between x and z.

    lo sums weights of observed mismatches within the ball; hi adds the
    declared tail bound, clamped at the metric's total mass ceiling 1.
    """
    metric = common_metric(x, z, metric)
    lo = Fraction(0)
    for p, w in metric.ball_weights(radius):
        if x.value(p) != z.value(p):
            lo += w
    hi = min(lo + metric.tail_bound(radius), Fraction(1))
    return lo, hi
