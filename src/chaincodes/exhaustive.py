"""Exhaustive engines: minimum Hamming weight and brute-force annihilators.

Enumeration is blocked and vectorized with numpy; results are deterministic
and independent of block size.  The direct strategy walks every mixed-radix
combination of the generator rows.  The residue strategy (free codes only)
walks the projective message space of the mod-p code; it is exact because a
free code and its residue code have the same minimum weight, a fact the test
suite re-validates against direct enumeration on every small instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

from .code import Codeword, CyclicCode, TooLarge, ZeroCode

DEFAULT_BUDGET = 2_000_000

_BLOCK = 1 << 16

# Words turned into Codeword objects per step: few, so that the arrays and
# nested lists they pass through stay small next to the objects themselves.
_OBJECT_BLOCK = 1 << 10


class BudgetExceeded(ValueError):
    """Enumeration budget hit; carries the best bound seen so far."""

    def __init__(self, message: str, upper_bound: int | None = None, enumerated: int = 0):
        super().__init__(message)
        self.upper_bound = upper_bound
        self.enumerated = enumerated


@dataclass(frozen=True)
class WeightReport:
    weight: int
    strategy: str
    enumerated: int


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


def enumerate_matrix(code: CyclicCode, limit: int = DEFAULT_BUDGET) -> np.ndarray:
    """All codewords as rows of an int64 array, in mixed-radix order."""
    total = code.spec.p ** code.cardinality_log()
    if total > limit:
        raise TooLarge(f"|C| = {total} exceeds {limit}")
    return np.concatenate(list(codeword_blocks(code)))


def min_weight_direct(code: CyclicCode, budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Minimum weight by full enumeration of the code.  The budget is checked
    after each whole block, so an overrun counts the whole block it ends in."""
    if code.is_zero_code():
        raise ZeroCode("the zero code has no nonzero codeword")
    total = code.spec.p ** code.cardinality_log()
    best = code.n + 1
    scanned = 0
    for words in codeword_blocks(code):
        weights = np.count_nonzero(words, axis=1)
        if scanned == 0:
            weights[0] = code.n + 1  # the zero word
        best = min(best, int(weights.min()))
        scanned += len(words)
        if scanned > budget:
            raise BudgetExceeded(
                f"direct enumeration of {total} words exceeds budget {budget}",
                upper_bound=best,
                enumerated=scanned,
            )
    return WeightReport(weight=best, strategy="direct", enumerated=scanned)


def min_weight_residue(code: CyclicCode, budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Minimum weight of a free code via its residue code over F_p.

    Enumerates one representative per projective message class (first nonzero
    message digit fixed to 1), which covers every weight since scaling by a
    field unit preserves weight.
    """
    if code.is_zero_code():
        raise ZeroCode("the zero code has no nonzero codeword")
    if not code.is_free():
        raise ValueError("residue strategy requires a free code")
    p, n = code.spec.p, code.n
    gbar = list(code.free_generator().reduce_mod_p().coeffs)
    k = n - (len(gbar) - 1)
    rows = np.zeros((k, n), dtype=np.int64)
    for r in range(k):
        rows[r, r : r + len(gbar)] = gbar
    _check_numpy_safe(p, [p] * k)
    total = (p**k - 1) // (p - 1)
    best = n + 1
    scanned = 0
    for lead in range(k):
        free = k - 1 - lead
        layer = p**free
        for start in range(0, layer, _BLOCK):
            count = min(_BLOCK, layer - start)
            digits = np.zeros((count, k), dtype=np.int64)
            digits[:, lead] = 1
            if free:
                digits[:, lead + 1 :] = _digit_block(start, count, [p] * free)
            words = (digits @ rows) % p
            best = min(best, int(np.count_nonzero(words, axis=1).min()))
            scanned += count
            if scanned > budget:
                raise BudgetExceeded(
                    f"residue enumeration of {total} classes exceeds budget {budget}",
                    upper_bound=best,
                    enumerated=scanned,
                )
    return WeightReport(weight=best, strategy="residue", enumerated=scanned)


def enumeration_cost(code: CyclicCode, strategy: str = "auto", budget: int = DEFAULT_BUDGET) -> int:
    """Number of words the chosen strategy would enumerate."""
    total = code.spec.p ** code.cardinality_log()
    if strategy == "direct":
        return total
    residue_total = None
    if code.is_free():
        p = code.spec.p
        k = code.n - code.free_generator().degree
        residue_total = (p**k - 1) // (p - 1)
    if strategy == "residue":
        if residue_total is None:
            raise ValueError("residue strategy requires a free code")
        return residue_total
    if strategy == "both":
        return total + (residue_total or 0)
    if total <= budget or residue_total is None:
        return total
    return residue_total


def min_hamming_weight(
    code: CyclicCode, budget: int = DEFAULT_BUDGET, strategy: str = "auto"
) -> WeightReport:
    """Minimum Hamming weight over the nonzero codewords.

    strategy "auto" enumerates directly when the code fits the budget and
    falls back to the residue strategy for free codes; "both" runs the two
    and insists they agree.
    """
    if code.is_zero_code():
        raise ZeroCode("the zero code has no nonzero codeword")
    if strategy == "direct":
        return min_weight_direct(code, budget)
    if strategy == "residue":
        return min_weight_residue(code, budget)
    if strategy == "both":
        direct = min_weight_direct(code, budget)
        residue = min_weight_residue(code, budget)
        if direct.weight != residue.weight:
            raise AssertionError(
                f"strategies disagree: direct {direct.weight}, residue {residue.weight}"
            )
        return WeightReport(
            weight=direct.weight,
            strategy="both",
            enumerated=direct.enumerated + residue.enumerated,
        )
    if strategy != "auto":
        raise ValueError(f"unknown strategy {strategy!r}")
    total = code.spec.p ** code.cardinality_log()
    if total <= budget:
        return min_weight_direct(code, budget)
    if code.is_free():
        return min_weight_residue(code, budget)
    return min_weight_direct(code, budget)  # raises BudgetExceeded with a bound


# ---------------------------------------------------------------------------
# Brute-force annihilator (the duality oracle)
# ---------------------------------------------------------------------------


def _half_tables(code: CyclicCode) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Meet-in-the-middle tables: keys encode the generator-row inner products
    of every left-half and (negated) right-half vector over Z_{p^e}."""
    m = code.spec.modulus
    rows = np.array(code.generator_matrix(), dtype=np.int64).reshape(-1, code.n)
    r = rows.shape[0]
    if m**max(r, 1) >= 2**62:
        raise TooLarge("annihilator oracle is limited to desk-scale instances")
    n_left = code.n // 2
    n_right = code.n - n_left
    weights = m ** np.arange(r, dtype=np.int64)

    left = _digit_block(0, m**n_left, [m] * n_left)
    left_sums = (left @ rows[:, :n_left].T) % m
    left_keys = left_sums @ weights

    right = _digit_block(0, m**n_right, [m] * n_right)
    right_sums = (-(right @ rows[:, n_left:].T)) % m
    right_keys = right_sums @ weights
    return left, left_keys, right, right_keys


def annihilator_count(code: CyclicCode) -> int:
    """|{v : [v, w] = 0 for every w in C}| by exhaustive split enumeration."""
    _, left_keys, _, right_keys = _half_tables(code)
    ul, cl = np.unique(left_keys, return_counts=True)
    ur, cr = np.unique(right_keys, return_counts=True)
    _, il, ir = np.intersect1d(ul, ur, return_indices=True)
    return int(np.sum(cl[il] * cr[ir]))


def annihilator_vectors(code: CyclicCode, limit: int = 500_000) -> list[Codeword]:
    """The annihilator as explicit codewords; refuses to materialize more
    than `limit` vectors."""
    left, left_keys, right, right_keys = _half_tables(code)
    order_l = np.argsort(left_keys, kind="stable")
    order_r = np.argsort(right_keys, kind="stable")
    sorted_l = left_keys[order_l]
    sorted_r = right_keys[order_r]
    # each left vector, in key order, pairs with the run [lo, lo + count) of
    # right vectors with its key
    lo = np.searchsorted(sorted_r, sorted_l, side="left")
    counts = np.searchsorted(sorted_r, sorted_l, side="right") - lo
    total = int(counts.sum())
    if total > limit:
        raise TooLarge(f"annihilator has {total} vectors, limit {limit}")
    left_idx = np.repeat(order_l, counts)
    right_pos = np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    right_idx = order_r[right_pos]
    out: list[Codeword] = []
    for start in range(0, total, _OBJECT_BLOCK):
        block = slice(start, start + _OBJECT_BLOCK)
        words = np.hstack((left[left_idx[block]], right[right_idx[block]]))
        out.extend(map(Codeword, repeat(code.spec), map(tuple, words.tolist())))
    return out
