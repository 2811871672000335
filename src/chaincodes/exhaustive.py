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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice, repeat
from math import comb
from typing import Iterator

import numpy as np

from .code import Codeword, CyclicCode, TooLarge, ZeroCode, _canonical_codeword

DEFAULT_BUDGET = 2_000_000

_BLOCK = 1 << 16

# Words turned into Codeword objects per step: few, so that the arrays and
# nested lists they pass through stay small next to the objects themselves.
_OBJECT_BLOCK = 1 << 10


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


def _torsion_generator(code: CyclicCode) -> tuple[tuple[int, ...], int]:
    """gbar = F_0 mod p, the generator of the torsion code, and the torsion
    code's dimension k = n - deg gbar."""
    if code.is_zero_code():
        raise ZeroCode("the zero code has no nonzero codeword")
    gbar = tuple(c % code.spec.p for c in code.F[0].coeffs)
    return gbar, code.n - len(gbar) + 1


def _equivalent_generators(gbar: tuple[int, ...], n: int, p: int) -> Iterator[tuple[int, ...]]:
    """Monic generators of the cyclic codes that c(x) -> c(lam x), lam^n = 1,
    and the reversal of positions map <gbar> to.  These maps only scale and
    permute positions, so every such code has the weights of <gbar>."""
    for g in (gbar, gbar[::-1]):
        for lam in range(1, p):
            if pow(lam, n, p) == 1:
                coeffs = [c * pow(lam, i, p) % p for i, c in enumerate(g)]
                inv = pow(coeffs[-1], -1, p)
                yield tuple(c * inv % p for c in coeffs)


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


def _supports(k: int, step: _Step) -> Iterator[tuple[int, ...]]:
    if step.lead:
        return ((0, *rest) for rest in combinations(range(1, k), step.w - 1))
    return combinations(range(1, k), step.w)


# Multiples c * row_j for every digit c are tabulated up to this many
# entries; past it (large p) they are computed per block.
_TABLE_ENTRIES = 1 << 22


def _step_minima(parity: np.ndarray, step: _Step, p: int) -> Iterator[tuple[int, int]]:
    """(words, least redundancy weight) per block of at most _BLOCK of the
    step's projective messages (first nonzero digit 1).

    Meet in the middle: the lead row and the first h = (w - 1) // 2 other
    digits give a partial sum P1, the other digits a negated partial sum
    P2, and a word's redundancy part is zero exactly where P1 == P2, so a
    word costs one byte comparison per position.  Partial sums stay below p
    in unsigned ints, where x mod p = min(x, x - p) for x < 2p - 1."""
    k, r = parity.shape
    w, h = step.w, (step.w - 1) // 2
    low = np.uint8 if p <= 128 else np.uint16 if p <= 2**15 else np.uint64
    if r * k * p <= _TABLE_ENTRIES:
        # column j * p + c of tables[sign] holds sign * c * row_j mod p
        scaled = np.arange(p)[None, :, None] * parity[:, None, :]
        tables = {sign: (sign * scaled % p).astype(low).reshape(k * p, r).T.copy() for sign in (1, -1)}

        def multiples(sign: int, rows: np.ndarray, digits: np.ndarray) -> np.ndarray:
            return np.take(tables[sign], rows * p + digits, axis=1)

    else:
        parity_t = parity.T.copy()

        def multiples(sign: int, rows: np.ndarray, digits: np.ndarray) -> np.ndarray:
            return (sign * np.take(parity_t, rows, axis=1) * digits % p).astype(low)

    def partial(sign: int, sup: np.ndarray, cols: range, digits: np.ndarray, inner: bool) -> np.ndarray:
        """Sum over the columns, shaped (r, classes, supports) if inner else
        (r, supports, classes)."""
        acc = np.zeros((r, 1, len(sup)) if inner else (r, len(sup), 1), dtype=low)
        for t, col in enumerate(cols):
            if inner:
                acc = acc + multiples(sign, sup[None, :, col], digits[:, t, None])
            else:
                acc = acc + multiples(sign, sup[:, col, None], digits[None, :, t])
            np.minimum(acc, acc - low(p), out=acc)
        return acc

    d1 = _digit_block(0, (p - 1) ** h, [p - 1] * h) + 1
    d1 = np.hstack((np.ones((len(d1), 1), np.int64), d1))  # the lead digit is 1
    d2 = _digit_block(0, (p - 1) ** (w - 1 - h), [p - 1] * (w - 1 - h)) + 1
    c1, c2 = len(d1), len(d2)
    supports = _supports(k, step)
    per = max(1, _BLOCK // (c1 * c2))
    while (flat := np.fromiter(chain.from_iterable(islice(supports, per)), np.intp)).size:
        sup = flat.reshape(-1, w)
        span2 = min(c2, _BLOCK)
        span1 = max(1, _BLOCK // (len(sup) * span2))
        inner = span2 < len(sup)  # compare along the longer axis
        q1 = partial(1, sup, range(h + 1), d1, inner)
        q2 = partial(-1, sup, range(h + 1, w), d2, inner)
        for i in range(0, c1, span1):
            for j in range(0, c2, span2):
                if inner:  # (r, c1, c2, supports)
                    eq = q1[:, i : i + span1, None, :] == q2[:, None, j : j + span2, :]
                else:  # (r, supports, c1, c2)
                    eq = q1[:, :, i : i + span1, None] == q2[:, :, None, j : j + span2]
                zeros = eq.sum(axis=0, dtype=np.int16)
                yield zeros.size, r - int(zeros.max())


def min_weight_residue(code: CyclicCode, budget: int = DEFAULT_BUDGET) -> WeightReport:
    """Minimum weight of any nonzero code, read off its torsion code
    <F_0 mod p>: projective messages are enumerated half a layer of message
    weight at a time (_steps) until the lower bound meets the best weight
    seen (Brouwer-Zimmermann).  A step runs only when it fits in what is
    left of the budget, so no more than `budget` words are enumerated; when
    the next step does not fit, BudgetExceeded carries the bounds proven so
    far.  Codes with equivalent torsion codes (_equivalent_generators), as
    the codes over Z_(p^2) and Z_(p^3) of one search often are, share one
    run."""
    gbar, _ = _torsion_generator(code)
    n, p = code.n, code.spec.p
    _check_numpy_safe(p, [p])  # the tables hold products c * row_j < p^2
    lower, upper, scanned = _torsion_weight(min(_equivalent_generators(gbar, n, p)), n, p, budget)
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
    agree.
    """
    if code.is_zero_code():
        raise ZeroCode("the zero code has no nonzero codeword")
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
        out.extend(map(_canonical_codeword, repeat(code.spec), map(tuple, words.tolist())))
    return out
