"""Truncated q-expansions of the Eisenstein families and Siegel-unit logs.

Every series is a :class:`TauQSeries`: a finite sum c tau^m q^alpha with
rational exponents alpha >= 0 (q^alpha = e(alpha tau)) and integer
tau-powers m >= 0.  The exponents live on an integer grid alpha = j/L: a
series stores its grid denominator L and read-only numpy arrays j (int64),
m (int64) and c (complex128), sorted by (j, m), one entry per nonzero term.
The generators write grid indices directly (L is the denominator of the
parameter coordinates that the exponents depend on).  Each tail walks one
lattice enumerator, ``_lattice``: the points (i, e) with i and e in fixed
residue classes and i*e <= jmax, row by row, each term at grid index i*e.
``_from_lattice`` stores the constant terms as given and sums the lattice
terms in walk order through ``TauQSeries._from_slots``, the accumulator of
every series kernel.  Sums and products move to the lcm of the two grids,
so equal exponents merge exactly, with no float-epsilon logic.  A series
never stores terms with alpha beyond its cutoff, and products inherit the
smaller cutoff, so the truncation error of everything downstream is
controlled by the smallest neglected exponent.
A series holds numbers only: ``qdump_rows`` turns the grid indices into
exact exponents j/L when it prints them.

The families:

* ``e_series``   -- weight-k series indexed by an elliptic parameter
  x = (x1, x2) in (R/Z)^2; exponents are m*n with n ≡ ±x1 (mod 1).
* ``g_series``   -- the interpolated family with exponents m*n over
  (m, n) ≡ ±x (mod 1) and coefficients m^{k-1}.
* ``gn_series``  -- the level-N integral-coefficient family in q^{1/N}.
* ``h_series``   -- the sigma-partner of ``g_series`` (integer exponents).
* ``log_siegel_series`` -- branch-fixed logarithm of the Siegel unit g_x.
* ``eichler_series``    -- primitive of 2*pi*i * E_x^{(k)} d(tau) with
  regularised value 0 at infinity.

Elliptic parameters are exact rationals stored reduced into [0, 1); the
sigma action is x -> (x2, -x1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from mevreg.specfun import (
    bernoulli_poly,
    periodic_zeta,
    unit_root,
)

__all__ = [
    "EisensteinSpec",
    "EllipticParam",
    "TauQSeries",
    "DEFAULT_CUTOFF",
    "e_series",
    "eichler_series",
    "g_series",
    "gn_series",
    "h_series",
    "log_siegel_series",
    "sigma_companion",
    "qdump_rows",
]

TWO_PI_I = 2j * math.pi

DEFAULT_CUTOFF = Fraction(12)


# ---------------------------------------------------------------------------
# Elliptic parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class EllipticParam:
    """A point of (R/Z)^2 with exact rational coordinates in [0, 1)."""

    x1: Fraction
    x2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x1", Fraction(self.x1) % 1)
        object.__setattr__(self, "x2", Fraction(self.x2) % 1)

    def __hash__(self) -> int:
        # hash((x1, x2)), kept from the first call on: the caches keyed by a
        # param look it up far more often than params are made
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.x1, self.x2))
        return h

    def __neg__(self) -> "EllipticParam":
        return EllipticParam(-self.x1, -self.x2)

    def __add__(self, other: "EllipticParam") -> "EllipticParam":
        return EllipticParam(self.x1 + other.x1, self.x2 + other.x2)

    def sigma(self) -> "EllipticParam":
        """Right action of sigma = ((0,-1),(1,0)) on the row vector: (x2, -x1)."""
        return EllipticParam(self.x2, -self.x1)

    @property
    def is_zero(self) -> bool:
        return self.x1 == 0 and self.x2 == 0

    @property
    def has_zero_coord(self) -> bool:
        return self.x1 == 0 or self.x2 == 0

    def level(self) -> int:
        """Smallest N with N*x integral."""
        return math.lcm(self.x1.denominator, self.x2.denominator)

    def __str__(self) -> str:
        return f"({self.x1},{self.x2})"


# ---------------------------------------------------------------------------
# Series container
# ---------------------------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def grid_limit(L: int, cutoff: Fraction) -> int:
    """Largest grid index j with j/L <= cutoff (a Fraction or an int), in integers.

    Raises ValueError for a negative cutoff and for an index int64 cannot hold.
    """
    if cutoff.numerator < 0:
        raise ValueError(f"series cutoff must be >= 0, got {cutoff}")
    jmax = cutoff.numerator * L // cutoff.denominator
    if jmax > _INT64_MAX:
        raise ValueError(
            f"grid index {jmax} (cutoff {cutoff} on the 1/{L} grid) overflows int64"
        )
    return jmax


def key_span(L: int, jmax: int, stride: int, segments: int = 1) -> int:
    """(jmax + 1) * stride, the keys of one series on the 1/L grid; raises
    ValueError when ``segments`` such key ranges side by side overflow int64."""
    span = (jmax + 1) * stride
    if segments * span > _INT64_MAX:
        raise ValueError(f"grid keys of the 1/{L} grid overflow int64")
    return span


def sum_slots(pieces, span: int, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, sums) of ``terms`` terms re + i*im at slot keys 0 <= slot < span,
    given as one or more pieces (slot, re, im).

    Terms with equal keys are summed in input order, piece after piece; the
    keys come out ascending, with the zero sums dropped.  A narrow key range
    is summed densely, a wide one (beyond 4 keys per term plus 4096) after a
    sort.
    """
    pieces, keys = iter(pieces), None
    if span > 4 * terms + 4096:
        slot, re, im = (np.concatenate(part) for part in zip(*pieces))
        keys, slot = np.unique(slot, return_inverse=True)
        span = keys.size
        pieces = iter([(slot, re, im)])
    slot, re, im = next(pieces)
    total_re = np.bincount(slot, weights=re, minlength=span)
    total_im = np.bincount(slot, weights=im, minlength=span)
    for slot, re, im in pieces:
        # unbuffered and in input order: each sum goes on where it stopped
        np.add.at(total_re, slot, re)
        np.add.at(total_im, slot, im)
    total = np.empty(span, dtype=np.complex128)
    total.real, total.imag = total_re, total_im
    nonzero = np.flatnonzero(total)
    return (nonzero if keys is None else keys[nonzero]), total[nonzero]


class TauQSeries:
    """Finite sum  c tau^m q^{j/L}  over an integer exponent grid.

    A series holds its grid denominator ``L`` and read-only arrays ``j``
    (int64), ``m`` (int64) and ``c`` (complex128), sorted by (j, m), with one
    entry per nonzero term and none beyond the cutoff (j <= cutoff * L).
    Instances are immutable, every field written once by ``_make``, and
    freely shareable.
    """

    __slots__ = ("L", "j", "m", "c", "cutoff")

    def __setattr__(self, name, value):
        raise AttributeError("TauQSeries is immutable")

    def __delattr__(self, name):
        raise AttributeError("TauQSeries is immutable")

    @classmethod
    def _make(cls, L: int, j, m, c, cutoff: Fraction) -> "TauQSeries":
        """Wrap arrays that already meet the invariants of the class."""
        out = cls.__new__(cls)
        for arr in (j, m, c):
            arr.setflags(write=False)
        for name, value in (("L", L), ("j", j), ("m", m), ("c", c), ("cutoff", cutoff)):
            object.__setattr__(out, name, value)
        return out

    @classmethod
    def from_grid(cls, L: int, j, m, c, cutoff: Fraction) -> "TauQSeries":
        """Series of sum_i c_i tau^{m_i} q^{j_i / L}, in any order.

        Terms with equal (j, m) are summed in input order; terms with
        j > cutoff * L and zero sums are dropped.
        """
        cutoff = Fraction(cutoff)
        jmax = grid_limit(L, cutoff)
        j = np.asarray(j, dtype=np.int64)
        m = np.asarray(m, dtype=np.int64)
        c = np.asarray(c, dtype=np.complex128)
        keep = j <= jmax
        if not keep.all():
            j, m, c = j[keep], m[keep], c[keep]
        if j.size and (j.min() < 0 or m.min() < 0):
            raise ValueError("negative grid index or tau power")
        stride = int(m.max()) + 1 if m.size else 1
        return cls._from_slots(L, j * stride + m, c.real, c.imag, stride, jmax, cutoff)

    @classmethod
    def _from_slots(
        cls, L: int, slot, re, im, stride: int, jmax: int, cutoff: Fraction
    ) -> "TauQSeries":
        """The accumulator behind every kernel: series of the terms re + i*im
        at slot keys j * stride + m, with 0 <= m < stride and 0 <= j <= jmax.

        Terms with equal keys are summed in input order, zero sums dropped
        (``sum_slots``).
        """
        span = key_span(L, jmax, stride)
        flat, total = sum_slots([(slot, re, im)], span, slot.size)
        return cls._make(L, *np.divmod(flat, stride), total, cutoff)

    def on_grid(self, L: int, cutoff: Fraction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(j, m, c) of the terms with alpha <= cutoff, j on the 1/L grid.

        L must be a multiple of ``self.L``.
        """
        grid_limit(L, cutoff)
        n, jcut = self.j.size, grid_limit(self.L, cutoff)
        if n and self.j[-1] > jcut:
            n = int(np.searchsorted(self.j, jcut, side="right"))
        j = self.j[:n] if L == self.L else self.j[:n] * (L // self.L)
        return j, self.m[:n], self.c[:n]

    # -- basic algebra ------------------------------------------------------

    def __len__(self) -> int:
        return int(self.c.size)

    def __add__(self, other: "TauQSeries") -> "TauQSeries":
        cutoff = min(self.cutoff, other.cutoff)
        L = math.lcm(self.L, other.L)
        parts = zip(self.on_grid(L, cutoff), other.on_grid(L, cutoff))
        return TauQSeries.from_grid(L, *(np.concatenate(p) for p in parts), cutoff)

    def __sub__(self, other: "TauQSeries") -> "TauQSeries":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "TauQSeries":
        v = c * self.c
        nonzero = v != 0
        return TauQSeries._make(
            self.L, self.j[nonzero], self.m[nonzero], v[nonzero], self.cutoff
        )

    def shift_tau(self, j: int) -> "TauQSeries":
        """Multiply by tau^j (j >= 0)."""
        if j < 0:
            raise ValueError("negative tau power would leave the series ring")
        if j == 0:
            return self
        return TauQSeries._make(self.L, self.j, self.m + j, self.c, self.cutoff)

    def __repr__(self) -> str:
        return f"TauQSeries({len(self)} terms, cutoff={self.cutoff})"


def real_divide(c: np.ndarray, d) -> np.ndarray:
    """c / d for real d, rounded like Python's complex / float.

    Each part is divided by d; numpy's complex division would multiply by a
    rounded 1/d instead.
    """
    out = np.empty(np.broadcast(c, d).shape, dtype=np.complex128)
    out.real = c.real / d
    out.imag = c.imag / d
    return out


# ---------------------------------------------------------------------------
# Family specs and sigma metadata
# ---------------------------------------------------------------------------

_FAMILIES = ("E", "G", "H", "logSiegel")


@dataclass(frozen=True)
class EisensteinSpec:
    """Which family/weight/parameter generated a series."""

    family: str
    weight: int
    param: EllipticParam

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.weight < 1:
            raise ValueError("weight must be >= 1")
        if self.family == "E" and self.weight == 2 and self.param.is_zero:
            raise ValueError("weight 2 at the origin is excluded (not holomorphic)")
        if self.family == "H" and self.weight == 2 and self.param.x1 == 0:
            raise ValueError("H with k = 2 requires x1 != 0")
        if self.family == "logSiegel" and self.param.is_zero:
            raise ValueError("the Siegel-unit log requires a nonzero parameter")

    def __str__(self) -> str:
        return f"{self.family}^({self.weight})_{self.param}"


def sigma_companion(spec: EisensteinSpec) -> tuple[EisensteinSpec, int]:
    """(companion, sign) with  f(-1/tau) = sign * tau^k * f_companion(tau).

    E transforms into E at the sigma-moved parameter; G and H swap, with
    G picking up (-1)^k (G|sigma^2 = G|(-I) forces the sign).
    """
    k, x = spec.weight, spec.param
    if spec.family == "E":
        return EisensteinSpec("E", k, x.sigma()), 1
    if spec.family == "G":
        return EisensteinSpec("H", k, x), (-1) ** k
    if spec.family == "H":
        return EisensteinSpec("G", k, x), 1
    raise ValueError(f"no function-level sigma data for family {spec.family!r}")


def series_for(spec: EisensteinSpec, cutoff: Fraction = DEFAULT_CUTOFF) -> TauQSeries:
    if spec.family == "E":
        return e_series(spec.weight, spec.param, cutoff)
    if spec.family == "G":
        return g_series(spec.weight, spec.param, cutoff)
    if spec.family == "H":
        return h_series(spec.weight, spec.param, cutoff)
    return log_siegel_series(spec.param, cutoff)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _cot_factor(x: Fraction) -> complex:
    """(1 + e(x)) / (1 - e(x)) = i cot(pi x), x != 0 mod 1."""
    return complex(0.0, 1.0 / math.tan(math.pi * float(x % 1)))


class _UnitRoots(dict):
    """e(r/q) by residue r, each computed by ``unit_root`` on its first use:
    a series reaches few residues of a large denominator q."""

    def __init__(self, q: int):
        super().__init__()
        self.q = q

    def __missing__(self, r: int) -> complex:
        value = self[r] = unit_root(r, self.q)
        return value


@lru_cache(maxsize=32)
def _unit_roots(q: int) -> _UnitRoots:
    """The roots of unity mod q that the generators share, like a table."""
    return _UnitRoots(q)


def _lattice(
    i0: int, di: int, e0: int, de: int, jmax: int
) -> Iterator[tuple[int, range, range]]:
    """Rows (i, es, js) of the lattice points i ≡ i0 (mod di), e ≡ e0 (mod de),
    i, e > 0, i*e <= jmax, walked row-major: i ascending, the row's e in
    ``es`` and the matching indices i*e in ``js``.

    A residue 0 starts at the modulus itself.
    """
    i, e0 = i0 or di, e0 or de
    while i * e0 <= jmax:
        yield i, range(e0, jmax // i + 1, de), range(i * e0, jmax + 1, i * de)
        i += di


def _from_lattice(
    L: int, constants: list[tuple[int, complex]], j: list[int], c: list, cutoff: Fraction
) -> TauQSeries:
    """Series of the j = 0 terms ``constants`` [(m, c0)] (by ascending m), stored
    as given, plus the lattice terms c q^(j/L), j >= 1, summed in input order by
    ``_from_slots``.

    The constants never pass through the sum, which would turn a -0.0 part
    into +0.0.  Zero constants and zero sums are dropped.
    """
    c = np.array(c, dtype=np.complex128)
    j = np.array(j, dtype=np.int64)
    tail = TauQSeries._from_slots(L, j, c.real, c.imag, 1, grid_limit(L, cutoff), cutoff)
    constants = [(m, c0) for m, c0 in constants if c0 != 0]
    if not constants:
        return tail
    m0, c0 = zip(*constants)
    return TauQSeries._make(
        L,
        np.concatenate([[0] * len(m0), tail.j]),
        np.concatenate([m0, tail.m]),
        np.concatenate([c0, tail.c]),
        cutoff,
    )


@lru_cache(maxsize=4096)
def e_series(
    k: int, x: EllipticParam, cutoff: Fraction = DEFAULT_CUTOFF
) -> TauQSeries:
    """Weight-k series at parameter x, on the grid of the denominator of x1.

    Constant term: {x1} - 1/2 (k = 1, x1 != 0); -(1/2)(1+e(x2))/(1-e(x2))
    (k = 1, x1 = 0, x2 != 0); 0 at the origin; B_k({x1})/k for k >= 2.
    Tails: - sum e(m x2) n^{k-1} q^{mn} over n ≡ x1 (mod 1) plus
    (-1)^{k+1} times the mirrored sum over n ≡ -x1; n = i/L sits at grid
    index i, and the exponent mn at index m*i.
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    if k == 2 and x.is_zero:
        raise ValueError("weight 2 at the origin is excluded (not holomorphic)")
    cutoff = Fraction(cutoff)
    L = x.x1.denominator
    jmax = grid_limit(L, cutoff)
    if k == 1:
        if x.x1 != 0:
            a0 = complex(float(x.x1) - 0.5)
        elif x.x2 != 0:
            a0 = -0.5 * _cot_factor(x.x2)
        else:
            a0 = 0.0 + 0.0j
    else:
        a0 = complex(bernoulli_poly(k, x.x1) / k)
    a, b, q = x.x1.numerator, x.x2.numerator, x.x2.denominator
    roots = _unit_roots(q)
    j, c = [], []
    for i0, p, sign in ((a, b, -1.0 + 0.0j), (-a % L, -b, complex((-1) ** (k + 1)))):
        for i, ms, js in _lattice(i0, L, 1, 1, jmax):
            nk = (i / L) ** (k - 1)
            j += js
            c += [sign * roots[m * p % q] * nk for m in ms]
    return _from_lattice(L, [(0, a0)], j, c, cutoff)


@lru_cache(maxsize=4096)
def g_series(
    k: int, x: EllipticParam, cutoff: Fraction = DEFAULT_CUTOFF
) -> TauQSeries:
    """Interpolated family: m^{k-1} q^{mn} over (m, n) ≡ ±x (mod 1), m, n > 0.

    The exponents lie on the grid of the product of the two denominators.
    Constant term: -B_1({x2}) / -B_1({x1}) in the single-zero-coordinate
    k = 1 cases, -B_k({x1})/k when k >= 2 and x2 = 0, else 0.
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    cutoff = Fraction(cutoff)
    d1, d2 = x.x1.denominator, x.x2.denominator
    t, rows = _g_family_terms(
        k, x.x1.numerator, d1, x.x2.numerator, d2, grid_limit(d1 * d2, cutoff)
    )
    return _g_float_series(k, d1 * d2, t, rows, d1, 1, cutoff)


def _g_family_terms(k, a, d1, b, d2, jmax):
    """(t, rows): the index form of the G family, for any number type.

    The family is the sum of i^{k-1} (up to a constant factor) at index
    j = i*e <= jmax over positive integers i ≡ a (mod d1), e ≡ b (mod d2),
    plus (-1)^k times the same sum over i ≡ -a, e ≡ -b.  ``rows`` yields
    (i, sign, js), the indices j of one lattice row in generator order.  For
    ``g_series`` m = i/d1, n = e/d2 and j is the exponent mn on the 1/(d1 d2)
    grid; for ``gn_series`` d1 = d2 = N, m = i, n = e and j sits on the 1/N
    grid.  A constant term -(scale * B_k(t))/k applies (it may be 0) where
    ``t`` is not None: t = a/d1, or t = b/d2 when k = 1 and a = 0.
    """
    if k == 1 and (a == 0) != (b == 0):
        t = Fraction(b, d2) if a == 0 else Fraction(a, d1)
    elif k >= 2 and b == 0:
        t = Fraction(a, d1)
    else:
        t = None
    rows = (
        (i, sign, js)
        for i0, e0, sign in ((a, b, 1), (-a % d1, -b % d2, (-1) ** k))
        for i, _, js in _lattice(i0, d1, e0, d2, jmax)
    )
    return t, rows


def _g_float_series(k, L, t, rows, d, scale, cutoff) -> TauQSeries:
    """Float series of the G-family index form: sign * (i/d)^{k-1} at each
    index of a row, and the constant term with the given scale."""
    j, c = [], []
    for i, sign, js in rows:
        j += js
        c += [sign * (i / d) ** (k - 1)] * len(js)
    constants = [] if t is None else [(0, complex(-(scale * bernoulli_poly(k, t)) / k))]
    return _from_lattice(L, constants, j, c, cutoff)


@lru_cache(maxsize=4096)
def gn_series(
    k: int,
    level: int,
    xbar: tuple[int, int],
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> TauQSeries:
    """Level-N family in q^{1/N}: m^{k-1} q^{mn/N} over integer (m, n) ≡ xbar mod N.

    Satisfies  N^{k-1} * g_series(k, xbar/N)(q -> q^{1/N} rescale)  exactly.
    """
    if k < 1 or level < 1:
        raise ValueError("weight and level must be >= 1")
    cutoff = Fraction(cutoff)
    t, rows = _g_family_terms(
        k, xbar[0] % level, level, xbar[1] % level, level, grid_limit(level, cutoff)
    )
    return _g_float_series(k, level, t, rows, 1, level ** (k - 1), cutoff)


@lru_cache(maxsize=4096)
def h_series(
    k: int, x: EllipticParam, cutoff: Fraction = DEFAULT_CUTOFF
) -> TauQSeries:
    """sigma-partner family with integer exponents:

    sum_{m,n>=1} (e(m x1 + n x2) + (-1)^k e(-m x1 - n x2)) n^{k-1} q^{mn},
    with the four-case cotangent constant term at k = 1 and
    (-1)^k * periodic_zeta(-x2, 1-k) for k >= 2.
    """
    if k < 1:
        raise ValueError("weight must be >= 1")
    if k == 2 and x.x1 == 0:
        raise ValueError("H with k = 2 requires x1 != 0")
    cutoff = Fraction(cutoff)
    jmax = grid_limit(1, cutoff)
    if k == 1:
        if x.is_zero:
            a0 = 0.0 + 0.0j
        elif x.x1 == 0:
            a0 = 0.5 * _cot_factor(x.x2)
        elif x.x2 == 0:
            a0 = 0.5 * _cot_factor(x.x1)
        else:
            a0 = 0.5 * (_cot_factor(x.x1) + _cot_factor(x.x2))
    else:
        a0 = (-1) ** k * periodic_zeta(-x.x2, 1 - k)
    sign = float((-1) ** k)
    q = math.lcm(x.x1.denominator, x.x2.denominator)
    roots, p1, p2 = _unit_roots(q), int(x.x1 * q), int(x.x2 * q)
    j, c = [], []
    for m, ns, js in _lattice(1, 1, 1, 1, jmax):
        j += js
        for n in ns:
            phase = roots[(m * p1 + n * p2) % q]
            c.append((phase + sign * phase.conjugate()) * float(n) ** (k - 1))
    return _from_lattice(1, [(0, complex(a0))], j, c, cutoff)


@lru_cache(maxsize=4096)
def log_siegel_series(
    x: EllipticParam, cutoff: Fraction = DEFAULT_CUTOFF
) -> TauQSeries:
    """Branch-fixed logarithm of the Siegel unit g_x, x != 0:

        pi i B_2({x1}) tau  +  log(1 - e(x2)) [x1 = 0 only]
        - sum e(m x2)/m q^{mn}   (n ≡ x1 mod 1)
        - sum e(-m x2)/m q^{mn}  (n ≡ -x1 mod 1),

    with log(1 - e(x2)) = log|1 - e(x2)| + pi i ({x2} - 1/2).  Its tau
    derivative is 2 pi i times ``e_series(2, x)``, coefficient by coefficient.
    """
    if x.is_zero:
        raise ValueError("the Siegel-unit log requires a nonzero parameter")
    cutoff = Fraction(cutoff)
    L = x.x1.denominator
    jmax = grid_limit(L, cutoff)
    constants = []
    if x.x1 == 0:
        t = float(x.x2)
        constants.append(
            (0, complex(math.log(2.0 * math.sin(math.pi * t)), math.pi * (t - 0.5)))
        )
    constants.append((1, complex(math.pi * bernoulli_poly(2, x.x1)) * 1j))
    a, b, q = x.x1.numerator, x.x2.numerator, x.x2.denominator
    roots = _unit_roots(q)
    j, c = [], []
    for i0, p in ((a, b), (-a % L, -b)):
        for i, ms, js in _lattice(i0, L, 1, 1, jmax):
            j += js
            c += [-roots[m * p % q] / m for m in ms]
    return _from_lattice(L, constants, j, c, cutoff)


@lru_cache(maxsize=4096)
def eichler_series(
    k: int, x: EllipticParam, cutoff: Fraction = DEFAULT_CUTOFF
) -> TauQSeries:
    """Primitive of 2 pi i E^(k)_x d(tau) with regularised value 0 at infinity.

    Term-wise: the constant a0 lifts to 2 pi i a0 tau, and c q^alpha lifts
    to (c/alpha) q^alpha; no constant of integration is introduced.
    """
    if k < 2:
        raise ValueError("Eichler integrals are taken for weight >= 2")
    base = e_series(k, x, cutoff)
    flat = base.j == 0
    alpha = np.where(flat, 1, base.j) / base.L
    lifted = real_divide(base.c, alpha)
    lifted[flat] = TWO_PI_I * base.c[flat]
    return TauQSeries.from_grid(base.L, base.j, base.m + flat, lifted, base.cutoff)


# ---------------------------------------------------------------------------
# q-expansion dump (CLI-facing format)
# ---------------------------------------------------------------------------


def qdump_rows(series: TauQSeries) -> list[str]:
    """CSV rows ``alpha_num,alpha_den,tau_power,coeff_re,coeff_im`` sorted by
    (alpha, tau_power), with alpha = j/L in lowest terms."""
    rows = []
    for j, m, c in zip(series.j.tolist(), series.m.tolist(), series.c.tolist()):
        alpha = Fraction(j, series.L)
        rows.append(f"{alpha.numerator},{alpha.denominator},{m},{c.real!r},{c.imag!r}")
    return rows
