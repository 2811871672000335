"""Cyclic codes over Z_{p^e} in canonical coprime-family form.

A code of length n (with gcd(n, p) = 1) is stored as the unique family
F_0, ..., F_e of monic pairwise-coprime polynomials with product x^n - 1;
the code itself is the ideal generated by p^(i-1) * (x^n - 1)/F_i for
1 <= i <= e.  Equality of codes is equality of families.  The dual swaps
the family around and takes monic reciprocals, which makes duality,
self-duality and isoduality checks exact and cheap.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
from math import gcd, prod
from typing import Iterator, Optional

import numpy as np

from .ring import MismatchedRing, RElem, RingSpec
from .ringpoly import (
    RPoly,
    _residue_images,
    _root_values,
    hensel_lift_factorization,
    reciprocal,
    substitute_scaled,
)

_BLOCK = 1 << 16

# Words turned into Codeword objects per step: few, so that the arrays and
# nested lists they pass through stay small next to the objects themselves.
_OBJECT_BLOCK = 1 << 10


class NotADivisor(ValueError):
    """Generator does not divide x^n - 1 exactly."""


class LengthMismatch(ValueError):
    """Codeword length differs from the code length."""


class TooLarge(ValueError):
    """Enumeration would exceed the requested limit."""


class ZeroCode(ValueError):
    """Operation undefined for the zero code."""


class Codeword(namedtuple("Codeword", "spec entries")):
    """Length-n vector of canonical representatives: a (spec, entries) tuple
    that, like a frozen dataclass, equals only another Codeword and hashes
    as hash((spec, entries))."""

    __slots__ = ()

    def __new__(cls, spec: RingSpec, entries: tuple[int, ...]) -> "Codeword":
        m = spec.modulus
        return tuple.__new__(cls, (spec, tuple(v % m for v in entries)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            # a plain tuple would otherwise compare field by field
            return False if isinstance(other, tuple) else NotImplemented
        return tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the inverse of __eq__, not tuple's field-by-field test
    __hash__ = tuple.__hash__
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace reduces too


def _canonical_codewords(spec: RingSpec, block: np.ndarray) -> Iterator[Codeword]:
    """The rows of an int64 block already reduced mod p^e as Codewords, built
    in C: the entries are not reduced again and no Python code runs per word."""
    return map(tuple.__new__, repeat(Codeword), zip(repeat(spec), zip(*block.T.tolist())))


def _digit_block(start: int, count: int, radices: list[int]) -> np.ndarray:
    """Mixed-radix digits of indices [start, start+count), one column per radix."""
    idx = np.arange(start, start + count, dtype=np.int64)
    digits = np.empty((count, len(radices)), dtype=np.int64)
    for col, radix in enumerate(radices):
        idx, digits[:, col] = np.divmod(idx, radix)
    return digits


def _check_numpy_safe(modulus: int, radices: list[int]) -> None:
    """Each entry of digits @ rows is at most sum(radix - 1) * (modulus - 1);
    refuse work where that sum could overflow int64."""
    if sum(r - 1 for r in radices) * (modulus - 1) >= 2**63:
        raise TooLarge("modulus too large for the vectorized enumeration engine")


def codeword_blocks(code: CyclicCode, size: int = _BLOCK) -> Iterator[np.ndarray]:
    """Every codeword once, in mixed-radix order over the generator rows, as
    int64 arrays of at most `size` rows.  This is the one direct enumerator."""
    rows = np.array(code.generator_matrix(), dtype=np.int64).reshape(-1, code.n)
    radices = code.row_radices()
    _check_numpy_safe(code.spec.modulus, radices)
    total = code.spec.p ** code.cardinality_log()
    for start in range(0, total, size):
        digits = _digit_block(start, min(size, total - start), radices)
        yield (digits @ rows) % code.spec.modulus


def inner_product(v: Codeword, w: Codeword) -> int:
    if v.spec != w.spec:
        raise MismatchedRing(f"{v.spec} vs {w.spec}")
    if len(v.entries) != len(w.entries):
        raise LengthMismatch(f"{len(v.entries)} vs {len(w.entries)}")
    return sum(a * b for a, b in zip(v.entries, w.entries)) % v.spec.modulus


@dataclass(frozen=True)
class IsodualCertificate:
    """Witness (a, lam) with phi_lam(mu_a(C)) equal to the dual of C."""

    a: int
    lam: int


@dataclass(frozen=True)
class CyclicCode:
    spec: RingSpec
    n: int
    F: tuple[RPoly, ...]

    def __post_init__(self) -> None:
        self._check_family()
        # x^n - 1 is squarefree over F_p because p does not divide n, so
        # monic members that multiply to it are pairwise coprime mod p
        if prod(self.F, start=RPoly.one(self.spec)) != RPoly.xn_minus_1(self.spec, self.n):
            raise ValueError("family product is not x^n - 1")

    @classmethod
    def _derived(cls, spec: RingSpec, n: int, family: tuple[RPoly, ...]) -> "CyclicCode":
        """A code whose family multiplies to x^n - 1 by construction (cofactors,
        a dual, an image): every check of __post_init__ but the product."""
        code = object.__new__(cls)
        for name, value in (("spec", spec), ("n", n), ("F", family)):
            object.__setattr__(code, name, value)
        code._check_family()
        return code

    def _check_family(self) -> None:
        """The checks every code passes, derived or not: all but the product."""
        spec, n = self.spec, self.n
        if n < 1:
            raise ValueError(f"length must be positive, got {n}")
        if n % spec.p == 0:
            raise ValueError(f"p = {spec.p} divides the length {n}")
        if len(self.F) != spec.e + 1:
            raise ValueError(f"family must have {spec.e + 1} entries, got {len(self.F)}")
        for f in self.F:
            if f.spec != spec:
                raise MismatchedRing(f"{f.spec} vs {spec}")
            if not f.is_monic():
                raise ValueError(f"family member {f} is not monic")
        # degrees that do not sum to n rule the product out before x^n - 1
        # is built, so a huge n is rejected cheaply
        if sum(f.degree for f in self.F) != n:
            raise ValueError("family product is not x^n - 1")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_generator(cls, g: RPoly, n: int) -> "CyclicCode":
        """Free code generated by a monic divisor g of x^n - 1."""
        spec = g.spec
        if not g.is_monic():
            raise ValueError("generator must be monic")
        whole = RPoly.xn_minus_1(spec, n)
        quotient, remainder = whole.divmod_monic(g)
        if not remainder.is_zero():
            raise NotADivisor(f"{g} does not divide x^{n} - 1")
        family = [g, quotient] + [RPoly.one(spec)] * (spec.e - 1)
        return cls._derived(spec, n, tuple(family))

    @classmethod
    def from_two_stage(
        cls, g_free: RPoly, g_torsion: RPoly, j: int, n: int
    ) -> "CyclicCode":
        """Code generated by g_free together with p^j times the cofactor of
        g_free / g_torsion; requires g_torsion | g_free | x^n - 1 and
        1 <= j <= e - 1."""
        spec = g_free.spec
        if not 1 <= j <= spec.e - 1:
            raise ValueError(f"stage exponent must be in [1, {spec.e - 1}], got {j}")
        whole = RPoly.xn_minus_1(spec, n)
        f1, rem = whole.divmod_monic(g_free)
        if not rem.is_zero():
            raise NotADivisor(f"{g_free} does not divide x^{n} - 1")
        fj, rem = g_free.divmod_monic(g_torsion)
        if not rem.is_zero():
            raise NotADivisor(f"{g_torsion} does not divide {g_free}")
        family = [g_torsion] + [RPoly.one(spec)] * spec.e
        family[1] = f1
        family[j + 1] = fj
        return cls._derived(spec, n, tuple(family))

    @classmethod
    def whole_space(cls, spec: RingSpec, n: int) -> "CyclicCode":
        return cls.from_generator(RPoly.one(spec), n)

    @classmethod
    def zero(cls, spec: RingSpec, n: int) -> "CyclicCode":
        return cls.from_generator(RPoly.xn_minus_1(spec, n), n)

    # -- structure ----------------------------------------------------------

    def is_free(self) -> bool:
        return all(f.is_one() for f in self.F[2:])

    def is_zero_code(self) -> bool:
        return all(f.is_one() for f in self.F[1:])

    def free_generator(self) -> RPoly:
        if not self.is_free():
            raise ValueError("code is not free")
        return self.F[0]

    def cofactor(self, i: int) -> RPoly:
        """(x^n - 1) / F_i, the hat polynomial of family member i: the product
        of the other members, since the family multiplies to x^n - 1."""
        return prod((f for j, f in enumerate(self.F) if j != i), start=RPoly.one(self.spec))

    def cardinality_log(self) -> int:
        """log_p of the number of codewords."""
        e = self.spec.e
        return sum((e - i + 1) * self.F[i].degree for i in range(1, e + 1))

    def generator_matrix(self) -> list[list[int]]:
        """Cyclic shifts of each generator, deg F_i rows for block i."""
        rows = []
        for i in range(1, self.spec.e + 1):
            scale = self.spec.p ** (i - 1)
            base = [scale * c % self.spec.modulus for c in self.cofactor(i).coeffs]
            for shift in range(self.F[i].degree):
                row = [0] * self.n
                for k, c in enumerate(base):
                    row[k + shift] = c
                rows.append(row)
        return rows

    def row_radices(self) -> list[int]:
        """Additive order of each generator-matrix row (p^(e-i+1) in block i)."""
        out = []
        for i in range(1, self.spec.e + 1):
            out.extend([self.spec.p ** (self.spec.e - i + 1)] * self.F[i].degree)
        return out

    # -- membership and enumeration -----------------------------------------

    def contains(self, word: Codeword) -> bool:
        """Ideal membership, tested component-wise against the family: the
        residue mod F_0 must vanish and the residue mod F_i must be divisible
        by p^(i-1)."""
        if word.spec != self.spec:
            raise MismatchedRing(f"{word.spec} vs {self.spec}")
        if len(word.entries) != self.n:
            raise LengthMismatch(f"{len(word.entries)} vs {self.n}")
        poly = RPoly(self.spec, word.entries)
        if not poly.divmod_monic(self.F[0])[1].is_zero():
            return False
        for i in range(2, self.spec.e + 1):
            if self.F[i].is_one():
                continue
            remainder = poly.divmod_monic(self.F[i])[1]
            threshold = self.spec.p ** (i - 1)
            if any(c % threshold for c in remainder.coeffs):
                return False
        return True

    def codewords(self, limit: int = 2_000_000) -> Iterator[Codeword]:
        """Every codeword exactly once, in the mixed-radix order of the
        generator rows, converted one enumerator block at a time."""
        total = self.spec.p ** self.cardinality_log()
        if total > limit:
            raise TooLarge(f"|C| = {self.spec.p}^{self.cardinality_log()} exceeds {limit}")
        for block in codeword_blocks(self, _OBJECT_BLOCK):
            yield from _canonical_codewords(self.spec, block)

    # -- duality ------------------------------------------------------------

    def dual(self) -> "CyclicCode":
        """The annihilator code: family [F_1*, F_0*, F_e*, F_{e-1}*, ..., F_2*]."""
        e = self.spec.e
        family = [reciprocal(self.F[1]), reciprocal(self.F[0])]
        for i in range(2, e + 1):
            family.append(reciprocal(self.F[e - i + 2]))
        return CyclicCode._derived(self.spec, self.n, tuple(family))

    def is_self_dual(self) -> bool:
        return self.dual() == self

    # -- monomial maps ------------------------------------------------------

    def apply_scaling(self, lam: RElem) -> "CyclicCode":
        """The image under x -> lam*x for a unit lam with lam^n = 1: the code
        of words (c_0, lam*c_1, lam^2*c_2, ...)."""
        if lam.spec != self.spec:
            raise MismatchedRing(f"{lam.spec} vs {self.spec}")
        if pow(lam.value, self.n, self.spec.modulus) != 1:
            raise ValueError(f"{lam.value}^{self.n} != 1")
        family = tuple(substitute_scaled(f, lam, normalize_monic=True) for f in self.F)
        return CyclicCode._derived(self.spec, self.n, family)

    def apply_multiplier(self, a: int) -> "CyclicCode":
        """The image under the coordinate permutation i -> a*i mod n, i.e.
        c(x) -> c(x^a): the Hensel lift of the image of its residue family."""
        field = RingSpec(self.spec.p, 1)
        residues = [_residue_images(RPoly(field, f.coeffs), a, self.n)[1] for f in self.F]
        family = hensel_lift_factorization([RPoly(field, r) for r in residues], self.n, self.spec)
        return CyclicCode._derived(self.spec, self.n, tuple(family))

    # -- isoduality ---------------------------------------------------------

    def certify_isodual(self) -> Optional[IsodualCertificate]:
        """Search the multiplier/scaling toolbox for a map carrying this code
        onto its dual: a in {1, -1} composed with every scaling by an n-th
        root of unity.  A certificate proves isoduality; None is inconclusive
        (the search is deliberately restricted to these two map families)."""
        return search_equivalence(self, self.dual())


def search_equivalence(
    source: CyclicCode, target: CyclicCode
) -> Optional[IsodualCertificate]:
    """Find (a, lam) with a in {1, -1} and lam an n-th root of unity such that
    scaling mu_a(source) by lam gives exactly the target code, or None."""
    multipliers = [1] if source.n <= 2 else [1, source.n - 1]
    return _search_maps(source, target, multipliers)


def search_multiplier_equivalence(
    source: CyclicCode, target: CyclicCode
) -> Optional[IsodualCertificate]:
    """Like search_equivalence but over every unit multiplier mod n: 1 and
    n - 1 first, then the other units ascending, so a pair that
    search_equivalence certifies gets the same certificate.  Any hit is
    still a monomial (hence weight-preserving) equivalence; the wider search
    catches pairs related by a splitting witness rather than by negation."""
    n = source.n
    negation = [n - 1] if n > 2 else []
    others = [a for a in range(2, n - 1) if gcd(a, n) == 1]
    return _search_maps(source, target, [1] + negation + others)


def _search_maps(
    source: CyclicCode, target: CyclicCode, multipliers: list[int]
) -> Optional[IsodualCertificate]:
    """The first (a, lam), in the given multiplier order and ascending lam,
    with phi_lam(mu_a(source)) = target.  A family over Z_{p^e} is the unique
    Hensel lift of its residues mod p, so the image equals the target exactly
    when their residue families agree over F_p; no image code is built."""
    if source.spec != target.spec or source.n != target.n:
        raise MismatchedRing("codes live in different ambient spaces")
    # monomial maps keep the degree of every family member
    if [f.degree for f in source.F] != [f.degree for f in target.F]:
        return None
    n, p = source.n, source.spec.p
    field = RingSpec(p, 1)
    residues, wanted = ([RPoly(field, f.coeffs) for f in code.F] for code in (source, target))
    # the n-th roots of unity of Z_{p^e} map one-to-one onto those of F_p,
    # though not in the same order
    roots = _root_values(n, source.spec)
    for a in multipliers:
        # the lams under which every member so far agrees
        alive = roots
        for f, g in zip(residues, wanted):
            if alive:
                images = _residue_images(f, a, n)
                alive = [lam for lam in alive if images[lam % p] == g.coeffs]
        if alive:
            return IsodualCertificate(a=a, lam=alive[0])
    return None

