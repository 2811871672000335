"""Exhaustive engines: minimum Hamming weight and brute-force annihilators.

Enumeration is blocked and vectorized with numpy; results are deterministic
and independent of block size.  The direct strategy walks every mixed-radix
combination of the generator rows; it stays as the oracle.

The weight engine (strategies "auto" and "residue") serves every nonzero
code.  A code over a chain ring has the Hamming distance of its (e-1)-th
torsion code (Norton & Salagean, IEEE TIT 46(3), 2000), which in family form
is the F_p-cyclic code <F_0 mod p> of dimension k = n - deg F_0.  The engine
enumerates projective messages of a systematic generator matrix of that code
by message weight w (Brouwer-Zimmermann), each layer in two halves: first
the messages whose digit 0 is nonzero, then the rest.  Any k cyclically
consecutive positions of a cyclic code are an information set and the code
is shift-invariant, so after layer w every word not yet seen has more than w
nonzeros on each of the n windows, hence weight >= ceil(n (w + 1) / k); the
first half of layer w already proves ceil(w n / (k - 1)) (see _steps).  It
stops when the bound meets the best weight seen, and starts a half layer
only when the half fits in what is left of the budget.

Within a half layer each support is a head (its lead position and the next
(w - 1) // 2) and a tail (the rest), and the words are the pairs whose head
ends before the tail starts: a staircase of rectangles.  Head sums and
negated tail sums are each computed once per half layer, the smaller table
whole and the larger _BLOCK columns at a time, so memory stays near a few
blocks however large the step (see _step_minima).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from typing import Iterator

import numpy as np

from .code import Codeword, CyclicCode, TooLarge, ZeroCode, codeword_blocks
from .code import _BLOCK, _OBJECT_BLOCK, _canonical_codewords, _check_numpy_safe, _digit_block
from .ring import RingSpec
from .ringpoly import RPoly, _residue_images

DEFAULT_BUDGET = 2_000_000

# Steps of at most this many words are summed word by word.  Neither table is
# wider than the step, so their staircase would be one block (256^2 = _BLOCK).
_SMALL_STEP = 1 << 8


class BudgetExceeded(ValueError):
    """Enumeration budget hit; carries the bounds lower <= d <= upper proven
    so far."""

    def __init__(
        self, message: str, upper_bound: int | None = None, enumerated: int = 0, lower_bound: int = 1
    ):
        super().__init__(message)
        self.upper_bound = upper_bound
        self.lower_bound = lower_bound
        self.enumerated = enumerated


@dataclass(frozen=True)
class WeightReport:
    weight: int
    strategy: str
    enumerated: int


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


def _torsion_generator(code: CyclicCode) -> tuple[tuple[int, ...], int]:
    """gbar = F_0 mod p, the generator of the torsion code, and the torsion
    code's dimension k = n - deg gbar."""
    if code.is_zero_code():
        raise ZeroCode("the zero code has no nonzero codeword")
    gbar = tuple(c % code.spec.p for c in code.F[0].coeffs)
    return gbar, code.n - len(gbar) + 1


def _parity_rows(gbar: tuple[int, ...], k: int, p: int) -> np.ndarray:
    """The first r = deg gbar columns of the systematic generator matrix of
    <gbar> whose identity block sits on the last k positions: row j is
    x^(r+j) - (x^(r+j) mod gbar)."""
    gbar = np.array(gbar, dtype=np.int64)
    r = len(gbar) - 1
    parity = np.zeros((k, r), dtype=np.int64)
    rem = -gbar[:r] % p  # x^r mod gbar
    for j in range(k):
        parity[j] = -rem % p
        if r:
            rem = (np.concatenate(([0], rem[:-1])) - rem[-1] * gbar[:r]) % p
    return parity


def _window_bound(n: int, k: int, layer: int) -> int:
    """ceil(n (layer + 1) / k): a lower bound on every word not yet seen once
    layers 1..layer are done."""
    return -(-n * (layer + 1) // k)


@dataclass(frozen=True)
class _Step:
    """Half of layer w: the lead half holds the message supports that
    contain digit 0, the other half the rest.  `lower` bounds every word not
    yet seen once the step is done."""

    w: int
    lead: bool
    words: int
    lower: int


def _steps(n: int, k: int, p: int) -> list[_Step]:
    """The engine's enumeration order, half a layer at a time.

    Once layers 1..w-1 and the lead half of layer w are done, a word c not
    yet seen has more than w nonzeros in the window that starts at any of
    its nonzeros s_0 < ... < s_(d-1) (shift c to put s_j on digit 0), so
    s_(j+w) - s_j <= k - 1 cyclically.  Summed over j that gives
    w n <= d (k - 1): d >= ceil(w n / (k - 1)), at least one more than
    layer w-1 proves when n = 2k, for w/k of the work of layer w."""
    steps = []
    for w in range(1, k + 1):
        classes = (p - 1) ** (w - 1)
        full = _window_bound(n, k, w)
        lead = -(-w * n // (k - 1)) if k > 1 else full
        steps.append(_Step(w, True, comb(k - 1, w - 1) * classes, lead))
        steps.append(_Step(w, False, comb(k - 1, w) * classes, full))
    return steps


def _step_minima(parity: np.ndarray, step: _Step, p: int) -> Iterator[tuple[int, int]]:
    """(words, least redundancy weight) per block of at most _BLOCK of the
    step's projective messages (first nonzero digit 1).

    Meet in the middle on a staircase of supports: a support's head is its
    lead position and the next h = (w - 1) // 2, its tail the other
    t = w - 1 - h.  A word's redundancy part is zero exactly where its head
    sum P1 (lead digit 1) equals its negated tail sum P2, so a word costs
    one comparison per position.  A head ending at b pairs with the tails
    starting after b.  The smaller of the two tables is built whole and cut
    into rectangles, one per end (or start), each paired with a run at one
    end of the larger table; the larger is built _BLOCK columns at a time,
    each column once.  Consecutive rectangles share a block while their
    bounding box fits in one, and every block is masked to the pairs that
    meet.  A step of at most _SMALL_STEP words is that one block, summed
    word by word over its supports and digits."""
    k, r = parity.shape
    h = (step.w - 1) // 2
    t = step.w - 1 - h
    if not step.words:
        return
    # every sum below adds at most w products c * row_j < p^2
    _check_numpy_safe(p, [p] * step.w)
    lead = (0,) if step.lead else ()
    if step.words <= _SMALL_STEP:
        supports = [(*lead, *c) for c in combinations(range(1, k), step.w - len(lead))]
        digits = _digit_block(0, (p - 1) ** (step.w - 1), [1] + [p - 1] * (step.w - 1)) + 1
        words = digits @ parity[np.array(supports, dtype=np.intp)] % p  # (supports, digits, r)
        yield step.words, int(np.count_nonzero(words, axis=2).min())
        return
    acc_type = np.min_scalar_type(step.w * (p - 1) ** 2)
    low, count = np.min_scalar_type(p - 1), np.min_scalar_type(r)
    heads = [(*lead, *c) for c in combinations(range(1, k - t), h + 1 - len(lead))]
    heads = np.array(heads, dtype=np.intp)
    heads = heads[np.argsort(heads[:, -1], kind="stable")]  # by end; tails are by start
    tails = list(combinations(range(h + 2 - step.lead, k), t))
    tails = np.array(tails, dtype=np.intp).reshape(len(tails), t)
    d1 = (_digit_block(0, (p - 1) ** h, [1] + [p - 1] * h) + 1).astype(acc_type)  # the lead digit is 1
    d2 = (_digit_block(0, (p - 1) ** t, [p - 1] * t) + 1).astype(acc_type)
    # each side is (rows, sets, digits, key of each set), and a pair meets
    # where head end < tail start (the empty tail starts at k)
    small = (parity.T.astype(acc_type), heads, d1, heads[:, -1])
    large = ((-parity.T % p).astype(acc_type), tails, d2, tails[:, 0] if t else np.array([k]))
    if len(heads) * len(d1) > len(tails) * len(d2):  # reversed, keys negated: small key < large key
        small, large = ((rows, sets[::-1], d, -keys[::-1]) for rows, sets, d, keys in (large, small))

    def sums(side: tuple, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Columns lo..hi-1 of a side's table, where column set * len(digits) + d
        holds sum_j digits[d, j] * rows[sets[set, j]] mod p, and their keys."""
        rows, sets, digits, keys = side
        s, d = np.divmod(np.arange(lo, hi), len(digits))
        acc = np.zeros((r, hi - lo), acc_type)
        for j in range(sets.shape[1]):
            term = rows[:, sets[s, j]]
            term *= digits[d, j]
            acc += term
        acc %= acc_type.type(p)
        return acc.astype(low), keys[s]

    q, x = sums(small, 0, len(small[1]) * len(small[2]))
    m = len(large[1]) * len(large[2])  # columns of the larger table
    first = np.searchsorted(large[3], x, side="right") * len(large[2])  # the first partner of each
    cuts = [0, *(np.flatnonzero(x[1:] != x[:-1]) + 1).tolist(), len(x)]  # one rectangle each
    groups: list[list[int]] = []  # columns lo..hi-1 of q
    for lo, hi in zip(cuts, cuts[1:]):
        if groups and (hi - groups[-1][0]) * (m - first[groups[-1][0]]) <= _BLOCK:
            groups[-1][1] = hi  # the bounding box still fits in one block
        else:
            groups.append([lo, hi])
    for j0 in range(0, m, _BLOCK):
        chunk, y = sums(large, j0, min(j0 + _BLOCK, m))
        j1 = j0 + len(y)
        for lo, hi in groups:
            f = max(first[lo], j0)
            if f >= j1:  # and so for every later group
                break
            height = max(1, _BLOCK // (j1 - f))
            for i in range(lo, hi, height):
                cols = slice(i, min(i + height, hi))
                a, b, ka, kb = q[:, cols], chunk[:, f - j0 :], x[cols], y[f - j0 :]
                if a.shape[1] > b.shape[1]:  # the longer side innermost
                    a, b, ka, kb = b, a, -kb, -ka
                meet = ka[:, None] < kb[None, :]
                zeros = (a[:, :, None] == b[:, None, :]).view(np.uint8).sum(axis=0, dtype=count)
                yield int(np.count_nonzero(meet)), r - int((zeros * meet).max())


def min_weight_residue(code: CyclicCode, budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Minimum weight of any nonzero code, read off its torsion code
    <F_0 mod p>: projective messages are enumerated half a layer of message
    weight at a time (_steps) until the lower bound meets the best weight
    seen (Brouwer-Zimmermann).  A step runs only when it fits in what is
    left of the budget, so no more than `budget` words are enumerated; when
    the next step does not fit, BudgetExceeded carries the bounds proven so
    far.  Codes whose torsion codes one scaling c(x) -> c(lam x), lam^n = 1,
    with or without the reversal of positions mu_(n-1), maps onto each
    other, as the codes over Z_(p^2) and Z_(p^3) of one search often are,
    share one run: these maps only scale and permute positions."""
    gbar, _ = _torsion_generator(code)
    n, p = code.n, code.spec.p
    _check_numpy_safe(p, [p])  # rejects, before any step, a p whose w = 1 sums overflow
    residue = RPoly(RingSpec(p, 1), gbar)
    key = min(g for a in (1, n - 1) for g in _residue_images(residue, a, n).values())
    lower, upper, scanned = _torsion_weight(key, n, p, budget)
    if lower < upper:
        raise BudgetExceeded(
            f"torsion-code enumeration needs more than budget {budget}",
            upper_bound=upper,
            enumerated=scanned,
            lower_bound=lower,
        )
    return WeightReport(weight=upper, strategy="residue", enumerated=scanned)


@lru_cache(maxsize=1024)
def _torsion_weight(gbar: tuple[int, ...], n: int, p: int, budget: int) -> tuple[int, int, int]:
    """(lower, upper, words enumerated) of the engine's run on <gbar>; the
    run resolved the minimum weight, upper, when lower >= upper."""
    k = n - len(gbar) + 1
    parity = _parity_rows(gbar, k, p)
    # gbar is a word, and wt(gbar) <= deg gbar + 1 = n - k + 1 (Singleton)
    upper = sum(c != 0 for c in gbar)
    lower, scanned = _window_bound(n, k, 0), 0
    for step in _steps(n, k, p):
        if lower >= upper or scanned + step.words > budget:
            break
        for words, least in _step_minima(parity, step, p):
            upper = min(upper, step.w + least)
            scanned += words
            if lower >= upper:
                break
        else:
            lower = max(lower, step.lower)
    return lower, upper, scanned


def enumeration_cost(code: CyclicCode, strategy: str = "auto", budget: int = DEFAULT_BUDGET) -> int:
    """Number of words the chosen strategy would enumerate at most.  For the
    torsion-code engine that is every step through the first (at least one)
    whose bound reaches wt(gbar); the sum stops once it passes the budget."""
    total = code.spec.p ** code.cardinality_log()
    if strategy == "direct":
        return total
    gbar, k = _torsion_generator(code)
    upper, cost = sum(c != 0 for c in gbar), 0
    for step in _steps(code.n, k, code.spec.p):
        cost += step.words
        if step.lower >= upper or cost > budget:
            break
    return cost + (total if strategy == "both" else 0)


def min_hamming_weight(
    code: CyclicCode, budget: int = DEFAULT_BUDGET, strategy: str = "auto"
) -> WeightReport:
    """Minimum Hamming weight over the nonzero codewords.

    Strategies "auto" and "residue" run the torsion-code engine, "direct"
    enumerates the whole code, and "both" runs the two and insists they
    agree.  Each strategy raises ZeroCode for the zero code.
    """
    if strategy == "direct":
        return min_weight_direct(code, budget)
    if strategy in ("auto", "residue"):
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
    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Brute-force annihilator (the duality oracle)
# ---------------------------------------------------------------------------


# Entries (rows x columns) of the larger half's digit table: 128 MB of int64.
_HALF_ENTRIES = 1 << 24


@lru_cache(maxsize=1)
def _half_keys(code: CyclicCode) -> tuple[np.ndarray, ...]:
    """The meet-in-the-middle split over Z_{p^e}: a left and a right half
    make an annihilator word when their keys (the generator-row inner
    products of the left one, negated for the right one) agree.  Returns
    both halves and their keys, read-only: the last code's are kept, so
    annihilator_count and annihilator_vectors on one code build them once."""
    m = code.spec.modulus
    rows = np.array(code.generator_matrix(), dtype=np.int64).reshape(-1, code.n)
    r = rows.shape[0]
    n_left = code.n // 2
    n_right = code.n - n_left
    # the keys must fit in int64, and the larger half's digits in _HALF_ENTRIES
    if m**max(r, 1) >= 2**62 or m**n_right * n_right > _HALF_ENTRIES:
        raise TooLarge("annihilator oracle is limited to desk-scale instances")
    weights = m ** np.arange(r, dtype=np.int64)

    left = _digit_block(0, m**n_left, [m] * n_left)
    left_keys = ((left @ rows[:, :n_left].T) % m) @ weights
    right = _digit_block(0, m**n_right, [m] * n_right)
    right_keys = ((-(right @ rows[:, n_left:].T)) % m) @ weights
    for array in (left, right, left_keys, right_keys):
        array.flags.writeable = False
    return left, right, left_keys, right_keys


def annihilator_count(code: CyclicCode) -> int:
    """|{v : [v, w] = 0 for every w in C}| by exhaustive split enumeration:
    the sum over the keys both halves share of the product of their counts."""
    _, _, left_keys, right_keys = _half_keys(code)
    keys_l, counts_l = np.unique(left_keys, return_counts=True)
    keys_r, counts_r = np.unique(right_keys, return_counts=True)
    _, at_l, at_r = np.intersect1d(keys_l, keys_r, assume_unique=True, return_indices=True)
    return int(counts_l[at_l] @ counts_r[at_r])


def annihilator_vectors(code: CyclicCode, limit: int = 500_000) -> Iterator[Codeword]:
    """The annihilator as explicit codewords, an iterator over the join of
    the two halves.  The join runs, and more than `limit` vectors raise
    TooLarge, at call time, before any word is yielded."""
    left, right, left_keys, right_keys = _half_keys(code)
    order_l = np.argsort(left_keys, kind="stable")
    order_r = np.argsort(right_keys, kind="stable")
    sorted_l, sorted_r = left_keys[order_l], right_keys[order_r]
    # per left vector in key order, the run [lo, lo + count) of right
    # vectors in key order that share its key
    lo = np.searchsorted(sorted_r, sorted_l, side="left")
    counts = np.searchsorted(sorted_r, sorted_l, side="right") - lo
    total = int(counts.sum())
    if total > limit:
        raise TooLarge(f"annihilator has {total} vectors, limit {limit}")
    left_idx = np.repeat(order_l, counts)
    right_pos = np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    right_idx = order_r[right_pos]
    blocks = (slice(start, start + _OBJECT_BLOCK) for start in range(0, total, _OBJECT_BLOCK))
    words = (np.hstack((left[left_idx[b]], right[right_idx[b]])) for b in blocks)
    return chain.from_iterable(_canonical_codewords(code.spec, w) for w in words)
