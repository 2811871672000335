"""Polynomials over Z_{p^e}: exact arithmetic, monic reciprocals, coordinate
substitutions and their residue images over F_p, Hensel lifting of coprime
factorizations of x^n - 1, and roots of unity in the unit group."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from types import MappingProxyType
from typing import Mapping

from ._modpoly import RPoly, padd, pdivmod, pgcd, pmul, pnorm, pscale, psub
from .fieldpoly import _orbits, factor_xn_minus_1, prime_factors
from .ring import MismatchedRing, NotAUnit, RElem, RingSpec


class NonUnitConstantTerm(ArithmeticError):
    """Reciprocal of a polynomial whose constant term is divisible by p."""


class NoSuchRoot(ArithmeticError):
    """Requested root of unity does not exist in this ring."""


class LiftError(ValueError):
    """Hensel lifting input violates monic/coprime/product preconditions."""


def reciprocal(f: RPoly) -> RPoly:
    """Monic reciprocal: reverse the coefficients and scale by the inverse of
    the constant term.  Requires a unit constant term; the result is monic of
    the same degree."""
    if f.is_zero() or not f.spec.is_unit(f.coeffs[0]):
        raise NonUnitConstantTerm(f"constant term {f.constant_term()} is not a unit")
    inv = f.spec.inverse(f.coeffs[0])
    return RPoly(f.spec, tuple(pscale(list(reversed(f.coeffs)), inv, f.spec.modulus)))


def substitute_scaled(f: RPoly, lam: RElem, normalize_monic: bool = False) -> RPoly:
    """f(lam * x): coefficient i is scaled by lam**i.  With normalize_monic the
    result is rescaled to a monic generator of the same ideal (legal because
    lam is a unit)."""
    if lam.spec != f.spec:
        raise MismatchedRing(f"{lam.spec} vs {f.spec}")
    if not f.spec.is_unit(lam.value):
        raise NotAUnit(f"{lam.value} is not a unit")
    m = f.spec.modulus
    out = []
    power = 1
    for c in f.coeffs:
        out.append(c * power % m)
        power = power * lam.value % m
    result = RPoly(f.spec, tuple(out))
    return result.monic() if normalize_monic and not result.is_zero() else result


def multiplier_mod(f: RPoly, a: int, n: int) -> RPoly:
    """f(x^a) reduced mod x^n - 1: exponent i maps to a*i mod n."""
    if gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1")
    if f.degree >= n:
        raise ValueError(f"degree {f.degree} not below length {n}")
    m = f.spec.modulus
    out = [0] * n
    for i, c in enumerate(f.coeffs):
        out[i * a % n] = (out[i * a % n] + c) % m
    return RPoly(f.spec, tuple(out))


@lru_cache(maxsize=1024)
def _residue_images(f: RPoly, a: int, n: int) -> Mapping[int, tuple[int, ...]]:
    """The coefficients of the monic images phi_lam(mu_a(f)) of a monic
    divisor f of x^n - 1 over F_p, keyed by every n-th root of unity lam of
    F_p.  mu_a(f) is gcd(f(x^a) mod x^n - 1, x^n - 1), the factor whose
    roots are the a-th roots of those of f; for a = n - 1 those are the
    inverses of the roots of f, so mu_a(f) is the monic reciprocal of f."""
    p, image = f.spec.p, f.coeffs
    if a == n - 1:
        image = reciprocal(f).coeffs
    elif a != 1:
        whole = RPoly.xn_minus_1(f.spec, n)
        # the zero code's F_0 = x^n - 1 reduces to 0, whose image gcd is x^n - 1
        image = multiplier_mod(f.divmod_monic(whole)[1], a, n)
        image = tuple(pgcd(list(image.coeffs), list(whole.coeffs), p))
    d, images = len(image) - 1, {}
    for lam in _root_values(n, f.spec):
        # phi_lam scales coefficient i by lam^i, and lam^-d makes it monic
        # again: w steps from lam^(-d-1) to lam^(i-d) before coefficient i
        w = pow(lam, -d - 1, p)
        images[lam] = tuple([c * (w := w * lam % p) % p for c in image])
    return MappingProxyType(images)


def hensel_lift_factorization(
    factors: list[RPoly], n: int, spec: RingSpec
) -> list[RPoly]:
    """Lift a monic pairwise-coprime factorization of x^n - 1 over F_p (RPolys
    over RingSpec(p, 1)) to the unique monic factorization over Z_{p^e},
    positionally matched.

    Multifactor linear lifting: every factor moves at once, one p-adic digit
    at a time.  Write F = x^n - 1.  Modulo a factor f_i, F' = n x^(n-1) is
    (F/f_i) * f_i' and x^n is 1, so s_i = x * f_i' / n mod f_i satisfies
    s_i * (F/f_i) = 1 mod f_i: a Bezout coefficient in closed form (1 for a
    member x^n - 1, 0 for a member 1).  At digit k, with
    D = (F - prod G_j) / p^k mod p, the corrections G_i += p^k * (D*s_i mod f_i)
    make the product right mod p^(k+1): sum_i (D*s_i mod f_i) * F/f_i agrees
    with D mod every f_i and has degree below n.  The corrections stay below
    the factor degrees, so the factors stay monic and the final product is
    exactly x^n - 1 in Z_{p^e}[x].
    """
    p, m = spec.p, spec.modulus
    field = RingSpec(p, 1)
    if n % p == 0:
        raise LiftError(f"p = {p} divides n = {n}")
    if any(not f.is_monic() for f in factors):
        raise LiftError("all factors must be monic")
    if any(f.spec != field for f in factors):
        raise LiftError("factor characteristic does not match the ring")
    # x^n - 1 is squarefree over F_p because p does not divide n, so factors
    # that multiply to it are pairwise coprime
    if prod(factors, start=RPoly.one(field)) != RPoly.xn_minus_1(field, n):
        raise LiftError("factors do not multiply to x^n - 1 over F_p")

    inv_n = pow(n, -1, p)
    # x * f' has leading coefficient deg f, so subtracting deg f * f reduces it
    bezout = [pnorm([(i - f.degree) * c * inv_n for i, c in enumerate(f.coeffs)], p) for f in factors]
    target = list(RPoly.xn_minus_1(spec, n).coeffs)
    lifted = [list(f.coeffs) for f in factors]
    for k in range(1, spec.e + 1):
        product = [1]
        for g in lifted:
            product = pmul(product, g, m)
        diff = psub(target, product, m)
        if not diff or k == spec.e:
            break
        pk = p**k
        delta = [d // pk % p for d in diff]
        for i, (f, s) in enumerate(zip(factors, bezout)):
            if s:
                corr = pdivmod(pmul(s, pdivmod(delta, f.coeffs, p)[1], p), f.coeffs, p)[1]
                lifted[i] = padd(lifted[i], pscale(corr, pk, m), m)
    if diff:
        raise AssertionError("lift did not converge")
    return [RPoly(spec, tuple(g)) for g in lifted]


@lru_cache(maxsize=None)
def lifted_factorization(n: int, spec: RingSpec) -> tuple[tuple[tuple[int, ...], RPoly, RPoly], ...]:
    """Basic irreducible factorization of x^n - 1 over Z_{p^e}: triples
    (cyclotomic coset, residue factor over F_p, lifted factor), ordered by
    ascending minimal coset representative."""
    residue = factor_xn_minus_1(n, spec.p)
    cosets = [tuple(c) for c in _orbits(n, spec.p)]
    lifted = hensel_lift_factorization(list(residue), n, spec)
    return tuple(zip(cosets, residue, lifted))


def primitive_root_of_unity(order: int, spec: RingSpec) -> RElem:
    """Smallest primitive 2^a-th root of unity in Z_{p^e}; exists iff
    p = 1 mod 2^a (p odd)."""
    if order < 1 or order & (order - 1):
        raise ValueError(f"order must be a power of two, got {order}")
    if order == 1:
        return spec.element(1)
    if spec.p == 2 or (spec.p - 1) % order != 0:
        raise NoSuchRoot(f"p = {spec.p} is not 1 mod {order}")
    # order | p - 1, so nth_roots_of_unity lists the whole cyclic group of
    # order-th roots, and the primitive ones are those whose half power is not 1
    roots = nth_roots_of_unity(order, spec)
    return next(r for r in roots if pow(r.value, order // 2, spec.modulus) != 1)


def nth_roots_of_unity(n: int, spec: RingSpec) -> list[RElem]:
    """All units lam with lam**n = 1, ascending, for n prime to p (ValueError
    otherwise).

    The roots form a cyclic group of order g = gcd(n, p - 1): for odd p
    they are the powers of the Teichmueller lift of an element of order g
    in F_p, and for p = 2 only 1 is left."""
    return [spec.element(u) for u in _root_values(n, spec)]


@lru_cache(maxsize=1024)
def _root_values(n: int, spec: RingSpec) -> tuple[int, ...]:
    """The values of nth_roots_of_unity(n, spec), found once per (n, spec);
    ValueError when p divides n, as for every code and factorization."""
    p, m = spec.p, spec.modulus
    if n % p == 0:
        raise ValueError(f"p = {p} divides n = {n}")
    g = gcd(n, p - 1)
    checks = [g // q for q in prime_factors(g)]
    for c in range(1, p):
        r = pow(c, (p - 1) // g, p)
        if all(pow(r, k, p) != 1 for k in checks):
            break
    # r^g = 1 mod p, so the Teichmueller lift r^(p^(e-1)) is the one root of
    # x^g - 1 over r
    zeta = pow(r, p ** (spec.e - 1), m)
    roots, power = [], 1
    for _ in range(g):
        roots.append(power)
        power = power * zeta % m
    return tuple(sorted(roots))
