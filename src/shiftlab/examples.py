"""Named example configurations: visible lattice points and their periodic
approximants from finite prime sets, whose bulk rows come from one sieve
that marks each prime once per box, a residually finite substitution
sequence over the integers, block-entropy evidence, and seeded random
configurations for negative controls and randomized checks, whose site
rule is a plain splitmix64 fold and whose binary rows hash in lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, isqrt
from random import Random
from typing import Mapping, Sequence

from .configs import (
    Configuration,
    Lattice,
    RowsRule,
    constant_config,
    predicate_config,
    word_config,
)
from .errors import StageExhaustedError
from .groups import FiniteSubset, Point
from .measures import empirical_measure

# first 25 primes; enough for every approximant stage this package exposes
PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def _multiples_row(p: int, start: int, width: int) -> int:
    """Row whose bit j is set when p divides start + j."""
    first = (-start) % p
    if first >= width:
        return 0
    count = (width - 1 - first) // p + 1
    if count == 1:
        return 1 << first
    # count ones spaced p apart: (2^(count p) - 1) / (2^p - 1)
    return ((1 << (count * p)) - 1) // ((1 << p) - 1) << first


def _small_primes(top: int) -> Sequence[int]:
    """The primes in increasing order, up to at least the square root of
    top: PRIMES while it reaches that far, else a sieve."""
    r = isqrt(top)
    if r <= PRIMES[-1]:
        return PRIMES
    composite = bytearray(r + 1)
    for p in range(2, isqrt(r) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\1" * len(range(p * p, r + 1, p))
    return [p for p in range(2, r + 1) if not composite[p]]


def _coprime_row(m: int, n0: int, n1: int) -> int:
    """Row m over the columns n0..n1 of gcd(m, n) = 1, one gcd per column."""
    return sum(1 << (n - n0) for n in range(n0, n1 + 1) if gcd(m, n) == 1)


def _marked_rows(k0: int, k1: int, n0: int, width: int) -> list[int]:
    """Rows k = k0..k1 of gcd(k, n) = 1, for 1 <= k0, over `width` columns
    from n0.  Each prime p with p^2 <= k1 clears its multiples from the
    rows k = 0 (mod p) and is divided out of their cofactors with its
    powers; what is left of a row's k is then 1 or one prime q, which
    clears its own.  Each prime's mask is built once."""
    full = (1 << width) - 1
    count = k1 - k0 + 1
    out = [full] * count
    left = list(range(k0, k1 + 1))
    for p in _small_primes(k1):
        if p * p > k1:
            break
        i = -k0 % p
        if i < count:
            mask = full ^ _multiples_row(p, n0, width)
            out[i::p] = [row & mask for row in out[i::p]]
            q = p
            while i < count:
                left[i::q] = [k // p for k in left[i::q]]
                q *= p
                i = -k0 % q
    cleared: dict[int, int] = {}
    for i, q in enumerate(left):
        if q > 1:
            mask = cleared.get(q)
            if mask is None:
                mask = cleared[q] = full ^ _multiples_row(q, n0, width)
            out[i] &= mask
    return out


def _coprime_sieve(primes: tuple[int, ...] | None) -> RowsRule:
    """Bulk rows of 'no prime of `primes` divides both coordinates'; None
    stands for every prime, i.e. gcd(m, n) = 1.

    Rows start full, and each prime p clears its multiples, with one mask
    per call, from the rows m = 0 (mod p) of the box.  For None, rows m
    and -m are equal, so the rows k = |m| are marked once (`_marked_rows`)
    and no row is factored, but for a box of one row, the shape of a site
    read's chunk: it takes the primes that divide its k in turn, until p^2
    passes what is left of k, which costs less than the marking's
    bookkeeping.  Every prime divides 0, so for None row 0 is its own case:
    gcd(0, n) = |n| is 1 only at n = +-1; and a row with |m| above the
    square of its width takes one gcd per column instead, so a row costs
    O(width) however far out it lies.
    """
    def rows(lo: Point, hi: Point) -> list[int]:
        (m0, n0), (m1, n1) = lo, hi
        width = n1 - n0 + 1
        full = (1 << width) - 1
        if primes is not None:
            out = [full] * (m1 - m0 + 1)
            for p in primes:
                i = -m0 % p
                if i < len(out):
                    mask = full ^ _multiples_row(p, n0, width)
                    out[i::p] = [row & mask for row in out[i::p]]
            return out
        # rows a..b, with |m| at most width^2, are sieved; the others are far
        far = width * width
        if m0 == m1 and 0 < abs(m0) <= far:
            k, row = abs(m0), full
            for p in _small_primes(k):
                if p * p > k:
                    break
                if not k % p:
                    row &= full ^ _multiples_row(p, n0, width)
                    k //= p
                    while not k % p:
                        k //= p
            return [row & ~_multiples_row(k, n0, width) if k > 1 else row]
        a, b = max(m0, -far), min(m1, far)
        if a > b:
            return [_coprime_row(m, n0, n1) for m in range(m0, m1 + 1)]
        if a > 0:
            out = _marked_rows(a, b, n0, width)
        elif b < 0:
            out = _marked_rows(-b, -a, n0, width)[::-1]
        else:
            by_k = _marked_rows(1, max(-a, b), n0, width)
            zero = sum(1 << (n - n0) for n in (-1, 1) if n0 <= n <= n1)
            out = [by_k[abs(m) - 1] if m else zero for m in range(a, b + 1)]
        if m0 < a or b < m1:
            out = ([_coprime_row(m, n0, n1) for m in range(m0, a)] + out
                   + [_coprime_row(m, n0, n1) for m in range(b + 1, m1 + 1)])
        return out

    return rows


def visible_points_config() -> Configuration:
    """Indicator of the planar points visible from the origin.

    v(m, n) = 1 iff gcd(m, n) = 1.  gcd(0, 0) is 0, so the origin itself
    is not visible.  Bulk rows come from a divisibility sieve.
    """
    return predicate_config(2, lambda g: gcd(g[0], g[1]) == 1, name="visible",
                            rows=_coprime_sieve(None))


def prime_approx_config(n: int) -> Configuration:
    """Periodic approximant: 0 exactly where one of the first n primes
    divides both coordinates.  Periodic under (p_1 ... p_n) Z^2; bulk rows
    come from the same sieve as the visible points, not from the period."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > len(PRIMES):
        raise ValueError(f"only {len(PRIMES)} primes configured, got n={n}")
    ps = PRIMES[:n]
    period = math.prod(ps)

    def rule(g: Point) -> bool:
        m, k = g
        return not any(m % p == 0 and k % p == 0 for p in ps)

    return predicate_config(
        2,
        rule,
        name=f"prime-approx:{n}",
        period_lattice=Lattice.diagonal(period, dim=2),
        rows=_coprime_sieve(ps),
    )


def prime_approx_mismatch_bound(n: int, N: int) -> int:
    """An upper bound on the sites of the centered box {-N..N}^2 where the
    visible points and prime-approx:n differ.  Both are 0 at the origin,
    and elsewhere they differ only where every prime dividing both
    coordinates exceeds p_n, so at nonzero points of pZ^2 for primes
    p_n < p <= N, of which the box holds (2 floor(N/p) + 1)^2 - 1 each."""
    return sum((2 * (N // p) + 1) ** 2 - 1 for p in _small_primes(N * N)[n:])


@dataclass(frozen=True)
class SubstitutionStage:
    """Stage data for the one-dimensional substitution sequence.

    ratios[k-1] is the index of H_{k+1} in H_k; each must exceed 2^k.
    Domains default to the intervals {0..m_k-1}; domain_override replaces
    individual stages for negative controls and is honored only by
    cortez_petite_check, never by the word construction.
    """

    ratios: tuple[int, ...] = (3, 5, 9, 17, 33)
    domain_override: Mapping[int, tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratios", tuple(int(r) for r in self.ratios))
        for k, r in enumerate(self.ratios, start=1):
            if r <= 2**k:
                raise ValueError(f"ratio r_{k}={r} must exceed 2^{k}={2**k}")

    @property
    def stages(self) -> int:
        """Number of configurations available: x^(1) .. x^(stages)."""
        return len(self.ratios) + 1

    def modulus(self, k: int) -> int:
        """Period m_k of stage k; m_1 = 1, m_{k+1} = m_k * r_k."""
        if not 1 <= k <= self.stages:
            raise StageExhaustedError(f"stage {k} outside 1..{self.stages}")
        return math.prod(self.ratios[: k - 1])

    def domain(self, k: int) -> tuple[int, ...]:
        if self.domain_override and k in self.domain_override:
            return tuple(self.domain_override[k])
        return tuple(range(self.modulus(k)))

    def word(self, k: int) -> tuple[int, ...]:
        """The length-m_k word whose periodic extension is x^(k)."""
        if not 1 <= k <= self.stages:
            raise StageExhaustedError(f"stage {k} outside 1..{self.stages}")
        w = (0,)
        for r in self.ratios[: k - 1]:
            # r - 1 copies of the word, then its complement
            w = w * (r - 1) + tuple(1 - s for s in w)
        return w


def rf_substitution(stage: SubstitutionStage, k: int) -> Configuration:
    """Stage-k configuration: x^(1) is constant 0; stage k+1 repeats the
    stage-k word on every tile but the last, which gets its complement."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if k > stage.stages:
        raise StageExhaustedError(f"stage {k} exceeds configured {stage.stages}")
    if k == 1:
        return constant_config(1, 0)
    return word_config(stage.word(k))


@dataclass(frozen=True)
class CortezPetiteReport:
    k: int
    passed: bool
    witness: str | None


def cortez_petite_check(stage: SubstitutionStage, k: int) -> CortezPetiteReport:
    """Verify the stage-k tiling data exactly.

    (i) the stage-k domain is a transversal of Z / m_k Z, and (ii) the
    stage-(k+1) domain is the disjoint union of its translates over the
    stage-(k+1) domain's intersection with m_k Z.
    """
    if not 1 <= k <= stage.stages - 1:
        raise StageExhaustedError(f"check needs stages k and k+1; got k={k}")
    m_k = stage.modulus(k)
    F_k = stage.domain(k)
    F_next = stage.domain(k + 1)

    residues: dict[int, int] = {}
    for p in F_k:
        res = p % m_k
        if res in residues:
            return CortezPetiteReport(
                k, False, f"coset {res} mod {m_k} has representatives {residues[res]} and {p}"
            )
        residues[res] = p
    if len(residues) != m_k:
        missing = next(r for r in range(m_k) if r not in residues)
        return CortezPetiteReport(k, False, f"coset {missing} mod {m_k} has no representative")

    anchors = [v for v in F_next if v % m_k == 0]
    target = set(F_next)
    seen: dict[int, int] = {}
    for v in anchors:
        for p in F_k:
            q = p + v
            if q in seen:
                return CortezPetiteReport(
                    k, False, f"point {q} covered by tiles at {seen[q]} and {v}"
                )
            seen[q] = v
    extra = next((q for q in seen if q not in target), None)
    if extra is not None:
        return CortezPetiteReport(k, False, f"tiled point {extra} outside the stage-{k+1} domain")
    if len(seen) != len(F_next):
        missing = next(q for q in F_next if q not in seen)
        return CortezPetiteReport(k, False, f"point {missing} not covered by any tile")
    return CortezPetiteReport(k, True, None)


def block_entropy(
    x: Configuration, F_n: FiniteSubset, window_sizes: Sequence[int]
) -> list[tuple[int, float]]:
    """Empirical Shannon entropy of box-window patterns, in bits per site.

    For each side length k the window is the box {0..k-1}^dim; the value
    is H(empirical distribution) / k^dim.
    """
    out: list[tuple[int, float]] = []
    for k in window_sizes:
        if k < 1:
            raise ValueError(f"window side must be >= 1, got {k}")
        W = FiniteSubset.box((0,) * x.dim, (k - 1,) * x.dim)
        dist = empirical_measure(x, F_n, W)
        # int true division is correctly rounded, so c / den is float(c/den)
        den = dist.den
        h = -sum(c / den * math.log2(c / den) for c in dist.counts.values())
        out.append((k, h / len(W)))
    return out


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix64(v: int) -> int:
    """splitmix64 finalizer of v mod 2^64; stable across platforms and runs."""
    v = (v + _GAMMA) & _MASK
    v = ((v ^ (v >> 30)) * _M1) & _MASK
    v = ((v ^ (v >> 27)) * _M2) & _MASK
    return v ^ (v >> 31)


# `random_config` rows hash up to _CHUNK columns at once, as 128-bit lanes
# of one int of about 16 KB: a 64-bit lane times a 64-bit constant fits in
# its lane, so no carry reaches the next one.  The lane constants below are
# built once, for a full chunk; a narrower chunk of n columns cuts their
# first n lanes off with one mask
_CHUNK = 1024
# 1, i, 2^64 - 1, 2^32 - 1 and the splitmix64 increment in lane i, for i < _CHUNK
_ONES = int.from_bytes(b"\x01".ljust(16, b"\0") * _CHUNK, "little")
_RAMP = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(_CHUNK)), "little")
_LANE_MASK = _MASK * _ONES
_LANE_LOW32 = 0xFFFFFFFF * _ONES
_LANE_GAMMA = _GAMMA * _ONES
# The symbol is bit 0 ^ bit 31 of the last product, which depends only on
# its factors mod 2^32; the second factor's low 32 bits are bits 0..58 of
# the first product, which depend only on its factors mod 2^59.  So the
# lanes multiply by these cuts of _M1 and _M2, and every product, at most
# 2^64 * 2^59, stays inside its 128-bit lane
_M1_LOW59 = _M1 & ((1 << 59) - 1)
_M2_LOW32 = _M2 & 0xFFFFFFFF
# byte -> ASCII digit of its low bit
_LOW_BIT = bytes(48 + (b & 1) for b in range(256))


def random_config(dim: int, seed: int, alphabet: int = 2) -> Configuration:
    """Deterministic point-addressable noise: each site's symbol is a
    splitmix64 hash of (seed, site).  Same seed, same configuration.

    The hash folds in the seed, then one coordinate at a time; the site
    rule does just that.  A binary configuration of dimension 1 or 2 also
    has a bulk rows rule: the hash of every coordinate but the last is the
    row head (the start hash in 1-D, one splitmix64 of the row coordinate
    in 2-D), and each row's columns run splitmix64 together from it, as
    128-bit lanes of one int per chunk of up to 1024 columns.  The lane
    constants are built once for a full chunk and cut to each chunk's width.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    start = _mix64(seed)

    def rule(g: Point) -> int:
        h = start
        for c in g:
            h = _mix64(h ^ c)
        return h % alphabet

    def rows(lo: Point, hi: Point) -> list[int]:
        # bit j is column lo + j, as in `configs._pack`
        heads = [start] if dim == 1 else [_mix64(start ^ a) for a in range(lo[0], hi[0] + 1)]
        out = [0] * len(heads)
        width = hi[-1] - lo[-1] + 1
        for off in range(0, width, _CHUNK):
            n = min(_CHUNK, width - off)
            ones, ramp, mask, low32, gamma = _ONES, _RAMP, _LANE_MASK, _LANE_LOW32, _LANE_GAMMA
            if n < _CHUNK:
                cut = (1 << 128 * n) - 1
                ones, ramp, mask, low32, gamma = (
                    ones & cut, ramp & cut, mask & cut, low32 & cut, gamma & cut)
            # lane i holds column lo + off + i, mod 2^64
            cols = (((lo[-1] + off) & _MASK) * ones + ramp) & mask
            for r, h in enumerate(heads):
                # splitmix64 in every lane, mod 2^59 and then mod 2^32 (see
                # _M1_LOW59); each lane is cut before a multiply, since a
                # shift pulls in the next lane's bits
                v = ((cols ^ h * ones) + gamma) & mask
                v = ((v ^ v >> 30) & mask) * _M1_LOW59
                v = ((v ^ v >> 27) & low32) * _M2_LOW32
                # the symbol is bit 0 ^ bit 31 of the lane; the low byte of
                # lane i sits at 16 (n - 1 - i) + 15 in big-endian order
                digits = (v ^ v >> 31).to_bytes(16 * n, "big")[15::16].translate(_LOW_BIT)
                out[r] |= int(digits, 2) << off
        return out

    # the packed low bit is the symbol only for two symbols, and `heads`
    # covers one row coordinate at most
    bulk = rows if alphabet == 2 and dim <= 2 else None
    return Configuration(dim, alphabet, rule, kind=f"random:{seed}", rows=bulk)


def random_periodic_pair(rng: Random, max_period: int = 12) -> tuple[Configuration, Configuration]:
    """Two independent uniformly random binary word configurations with
    periods drawn from 1..max_period.  Driven by the caller's seeded Random
    so sequences are reproducible."""
    def one() -> Configuration:
        period = rng.randint(1, max_period)
        return word_config([rng.randrange(2) for _ in range(period)])

    return one(), one()


def resolve_example_name(name: str) -> Configuration:
    """Map CLI names to configurations: visible, prime-approx:n, rf-sub:k."""
    if name == "visible":
        return visible_points_config()
    if name.startswith("prime-approx:"):
        return prime_approx_config(int(name.split(":", 1)[1]))
    if name.startswith("rf-sub:"):
        return rf_substitution(SubstitutionStage(), int(name.split(":", 1)[1]))
    raise ValueError(f"unknown example name {name!r}")
