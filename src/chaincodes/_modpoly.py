"""Dense univariate polynomial arithmetic modulo an integer, and RPoly,
the one polynomial type of the library.

The list routines work on plain lists of coefficients in ascending degree
with no trailing zeros; the zero polynomial is the empty list.  Everything
here is exact integer arithmetic; the modulus M may be a prime or a prime
power.  Field-only routines (general division, gcd) require unit leading
coefficients and are used with M prime.

RPoly wraps such a list with its ring Z_{p^e}; residue polynomials over F_p
are RPolys over RingSpec(p, 1).  It lives here, below both fieldpoly and
ringpoly, so that fieldpoly can return it without importing ringpoly.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

from .ring import MismatchedRing, NotAUnit, RingSpec


def pnorm(coeffs: list[int], m: int) -> list[int]:
    """Reduce coefficients mod m and strip trailing zeros."""
    out = [c % m for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def padd(a: list[int], b: list[int], m: int) -> list[int]:
    n = max(len(a), len(b))
    return pnorm(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], m
    )


def psub(a: list[int], b: list[int], m: int) -> list[int]:
    n = max(len(a), len(b))
    return pnorm(
        [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)], m
    )


# Slots of 1, 2, 4 or 8 bytes are machine words, read and written by one
# array conversion (on a little-endian host); others are converted one by one
_WORD_CODES = {array(code).itemsize: code for code in "BHIQ"} if sys.byteorder == "little" else {}


def _slot_width(bound: int) -> int:
    """Bytes per slot for values up to `bound`, rounded up to a word size."""
    width = (bound.bit_length() + 7) // 8
    return next((w for w in sorted(_WORD_CODES) if w >= width), width)


def _pack(coeffs: list[int], width: int) -> int:
    """The integer sum of c_i * 2^(8*width*i), for 0 <= c_i < 2^(8*width)."""
    if width in _WORD_CODES:
        return int.from_bytes(array(_WORD_CODES[width], coeffs).tobytes(), "little")
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def _unpack(value: int, count: int, width: int) -> list[int]:
    """The first `count` slots of a packed value."""
    buf = value.to_bytes(count * width, "little")
    if width in _WORD_CODES:
        return array(_WORD_CODES[width], buf).tolist()
    return [int.from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width)]


def pmul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    short, long = sorted((len(a), len(b)))
    # packing pays once the schoolbook rows after the first hold 48 products
    # (measured break-even near 2 x 48, 3 x 24, 4 x 16 and 8 x 7)
    if (short - 1) * long >= 48:
        width = _slot_width(short * (m - 1) ** 2)
        if width in _WORD_CODES:
            product = _pack([x % m for x in a], width) * _pack([y % m for y in b], width)
            return pnorm(_unpack(product, len(a) + len(b) - 1, width), m)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return pnorm(out, m)


def pscale(a: list[int], c: int, m: int) -> list[int]:
    return pnorm([c * x for x in a], m)


def pdivmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Euclidean division; the leading coefficient of b must be invertible mod m."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    inv = pow(b[-1], -1, m)
    rem = [c % m for c in a]
    if len(rem) < len(b):
        return [], pnorm(rem, m)
    quo = [0] * (len(rem) - len(b) + 1)
    for i in range(len(rem) - len(b), -1, -1):
        c = (rem[i + len(b) - 1] * inv) % m
        if c:
            quo[i] = c
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] - c * y) % m
    return pnorm(quo, m), pnorm(rem, m)


def pmonic(a: list[int], m: int) -> list[int]:
    """Scale by the inverse of the leading coefficient (which must be a unit)."""
    if not a:
        return []
    if a[-1] == 1:
        return list(a)
    return pscale(a, pow(a[-1], -1, m), m)


def pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p."""
    a, b = pnorm(a, p), pnorm(b, p)
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    return pmonic(a, p)


class PolyModulus:
    """Multiplication modulo a fixed polynomial `mod` of degree >= 1 (unit
    leading coefficient) and the integer m, on Kronecker-packed integers.

    A coefficient list packs into the integer sum of c_i * 2^(8*width*i), so
    one integer product multiplies two polynomials.  The product's
    coefficients at degrees j >= deg(mod) then fold back as multiples of the
    packed x^j mod `mod`.  Slots of `width` bytes hold 2 * deg(mod) * m^2,
    which bounds every coefficient sum of both steps, so no slot carries
    into the next.  Up to 8 bytes, the width rounds up to a machine word
    (von zur Gathen & Gerhard, Modern Computer Algebra, 8.4).
    """

    def __init__(self, mod: list[int], m: int):
        self.m = m
        self.mod = pmonic(pnorm(mod, m), m)
        d = self.degree = len(self.mod) - 1
        self.width = _slot_width(2 * d * m * m)
        self.low_bits = 8 * self.width * d
        # x^j mod `mod` for d <= j <= 2d - 2, as dense lists of length d
        self.folds = []
        r = [-c % m for c in self.mod[:d]]
        for _ in range(d - 1):
            self.folds.append(_pack(r, self.width))
            top = r[-1]
            r = [(x - top * c) % m for x, c in zip([0] + r[:-1], self.mod)]

    def _reduce(self, product: int) -> list[int]:
        """The remainder of a packed product of two reduced polynomials."""
        m = self.m
        acc = product & ((1 << self.low_bits) - 1)
        high = product >> self.low_bits
        if high:
            for c, fold in zip(_unpack(high, self.degree - 1, self.width), self.folds):
                if c % m:
                    acc += c % m * fold
        return pnorm(_unpack(acc, self.degree, self.width), m)

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        """a * b modulo `mod`, for a and b already reduced (degree below it)."""
        return self._reduce(_pack(a, self.width) * _pack(b, self.width))

    def pow(self, a: list[int], e: int) -> list[int]:
        """a**e modulo `mod`, by square and multiply on packed values."""
        result = _pack([1], self.width)
        base = _pack(pdivmod(a, self.mod, self.m)[1], self.width)
        while e:
            if e & 1:
                result = _pack(self._reduce(result * base), self.width)
            e >>= 1
            if e:
                base = _pack(self._reduce(base * base), self.width)
        return pnorm(_unpack(result, self.degree, self.width), self.m)


def poly_to_text(coeffs: list[int]) -> str:
    """Descending-degree display: 'x^5 + 7x^4 + ... + 8', '0' for zero."""
    if not coeffs:
        return "0"
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}x" if i == 1 else f"{head}x^{i}")
    return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class RPoly:
    """Dense polynomial over Z_{p^e}, coefficients ascending and canonical."""

    spec: RingSpec
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", tuple(pnorm(list(self.coeffs), self.spec.modulus))
        )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @classmethod
    def _wrap(cls, spec: RingSpec, coeffs: list[int]) -> "RPoly":
        """An RPoly of a list the list routines already normalized: no pnorm."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "spec", spec)
        object.__setattr__(poly, "coeffs", tuple(coeffs))
        return poly

    def _check(self, other: "RPoly") -> None:
        if self.spec != other.spec:
            raise MismatchedRing(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "RPoly") -> "RPoly":
        self._check(other)
        return RPoly._wrap(self.spec, padd(list(self.coeffs), list(other.coeffs), self.spec.modulus))

    def __sub__(self, other: "RPoly") -> "RPoly":
        self._check(other)
        return RPoly._wrap(self.spec, psub(list(self.coeffs), list(other.coeffs), self.spec.modulus))

    def __mul__(self, other: "RPoly") -> "RPoly":
        self._check(other)
        return RPoly._wrap(self.spec, pmul(list(self.coeffs), list(other.coeffs), self.spec.modulus))

    def divmod_monic(self, other: "RPoly") -> tuple["RPoly", "RPoly"]:
        """Euclidean division by a monic divisor (exact over Z_{p^e})."""
        self._check(other)
        if not other.is_monic():
            raise ValueError(f"divisor must be monic, got leading {other.coeffs[-1] if other.coeffs else 0}")
        q, r = pdivmod(list(self.coeffs), list(other.coeffs), self.spec.modulus)
        return RPoly._wrap(self.spec, q), RPoly._wrap(self.spec, r)

    def monic(self) -> "RPoly":
        """Scale by the leading coefficient's inverse; leading must be a unit."""
        if self.is_zero():
            return self
        if not self.spec.is_unit(self.coeffs[-1]):
            raise NotAUnit(f"leading coefficient {self.coeffs[-1]} is not a unit")
        return RPoly._wrap(self.spec, pmonic(list(self.coeffs), self.spec.modulus))

    def __str__(self) -> str:
        return poly_to_text(list(self.coeffs))

    @classmethod
    def one(cls, spec: RingSpec) -> "RPoly":
        return cls(spec, (1,))

    @classmethod
    def xn_minus_1(cls, spec: RingSpec, n: int) -> "RPoly":
        return cls(spec, tuple([spec.modulus - 1] + [0] * (n - 1) + [1]))
