"""Complementary input pairs via cost-minimizing input demand.

Prices here are free positive vectors over the input lags, deliberately
decoupled from any interest-rate path: detecting complementarity means
raising one price while holding every other fixed, which the compounded
price path cannot do. A pair (j, k) is complementary when raising the price
of input j alone makes the chosen technique switch to one that uses less of
input k.

Techniques with identical labor profiles are one input-demand choice, so
each search first collapses them to the first of them in menu order; a clone
would otherwise tie wherever its twin is cheapest, and a tie never counts as
a switch. For two distinct profiles the switch locus is a hyperplane in
price space, so witnesses are constructed analytically and exactly, from
the signs of one integer vector: the first profile's labor minus the
second's, times their common denominator. A pair is complementary exactly
when one profile has strictly more of both of its lags and strictly less
of some other, so the search reads the first such pair off those signs and
builds one witness. Larger menus fall back to a documented deterministic
grid search (rational price points rounded exactly from log spacing; all
cost comparisons at those points remain exact).

The grid search walks the same per_axis**horizon points once per ordered
lag pair, so one call of `find_complementary_pair` or
`complementarity_witness` keeps a table from each point's axis indices to
a choice code: 2 * the chosen technique's index in the collapsed menu,
plus 1 on a tie. A walk fills a point's entry the first time it reaches
it, so `chosen_input_vector` runs once per point visited, not once per
walk; the table lives for one call. Walk order and witnesses are those of
a walk without it. A search that finds no witness on the grid certifies
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Optional, Sequence

from .model import TechnologySet
from .rationals import integer_root
from .switching import _cost_rows

GRID_LO = Fraction(1, 10)
GRID_HI = Fraction(10)
GRID_POINTS = 50
_GRID_CAP = 250_000


@dataclass(frozen=True)
class TechniqueChoice:
    """Cost-minimizing technique at a price vector; ties resolve to the
    lexicographically-first name and are reported."""

    technique: str
    vector: tuple[Fraction, ...]
    cost: Fraction
    tied_with: tuple[str, ...] = ()

    @property
    def is_tie(self) -> bool:
        return bool(self.tied_with)


@dataclass(frozen=True)
class ComplementarityWitness:
    """Evidence that pair (j, k) is complementary: raising only the price of
    input j drops the chosen demand for input k."""

    pair: tuple[int, int]
    base_prices: tuple[Fraction, ...]
    raised_price: Fraction
    demand_before: tuple[Fraction, ...]
    demand_after: tuple[Fraction, ...]
    technique_before: str
    technique_after: str

    def __post_init__(self):
        j, k = self.pair
        if not self.raised_price > self.base_prices[j - 1]:
            raise ValueError(f"the raised price of input {j} is not above its base price")
        if not self.demand_after[k - 1] < self.demand_before[k - 1]:
            raise ValueError(f"the demand for input {k} does not drop")


def _check_prices(ts: TechnologySet, prices: Sequence[Fraction]) -> tuple[Fraction, ...]:
    # Fraction(Fraction) copies through the slow numbers-ABC path
    vec = tuple(p if type(p) is Fraction else Fraction(p) for p in prices)
    if len(vec) != ts.horizon:
        raise ValueError(f"expected {ts.horizon} prices, got {len(vec)}")
    if any(p <= 0 for p in vec):
        raise ValueError("all input prices must be positive")
    return vec


def chosen_input_vector(
    ts: TechnologySet, prices: Sequence[Fraction]
) -> TechniqueChoice:
    """The input vector of the technique minimizing prices . inputs."""
    vec = _check_prices(ts, prices)
    costs = {
        t.name: sum((p * l for p, l in zip(vec, t.labor)), Fraction(0))
        for t in ts.techniques
    }
    best = min(costs.values())
    owners = sorted(name for name, c in costs.items() if c == best)
    chosen = ts.get(owners[0])
    return TechniqueChoice(chosen.name, chosen.labor, best, tuple(owners[1:]))


def _labor_difference(ts: TechnologySet) -> list[int]:
    """The first technique's labor profile minus the second's, times the
    common denominator of both, for a menu of two techniques: the
    difference of their cost rows (`switching._cost_rows`) past the
    constant term."""
    (first, second), _ = _cost_rows(ts.techniques)
    return [a - b for a, b in zip(first[1:], second[1:])]


def _first_complementary_pair(diff: Sequence[int]) -> Optional[tuple[int, int]]:
    """The lexicographically first lag pair (j, k) at which the profile
    difference diff is positive at both lags and negative at another, or
    negative at both and positive at another."""
    pos = [t for t, d in enumerate(diff, start=1) if d > 0]
    neg = [t for t, d in enumerate(diff, start=1) if d < 0]
    options = [
        tuple(lags[:2]) for lags, other in ((pos, neg), (neg, pos)) if len(lags) > 1 and other
    ]
    return min(options) if options else None


def _analytic_two_technique_witness(
    ts: TechnologySet, diff: Sequence[int], j: int, k: int
) -> Optional[ComplementarityWitness]:
    """The witness for lags j != k on two distinct profiles whose labor
    difference, first minus second, is the integer vector diff.

    The heavy technique has strictly more of inputs j and k. It is strictly
    cheaper at some positive prices only if it has strictly less of some
    input, so there is a witness exactly when diff is nonzero with one sign
    at j and k and has the other sign somewhere else. Its base point has
    unit prices except a large price on the lag m where the light technique
    is heaviest, placed so the heavy technique strictly wins; raising p_j
    past the tie hyperplane and strictly beyond it makes the light one win.
    On the integer difference d of heavy minus light (d_m < 0 < d_j) the
    scale is max(1, rest / -d_m) + 1, rest the sum of d off m, and the
    raised price is 2 - gap / d_j, gap = rest + scale * d_m < 0 being the
    cost difference at the base point times the common denominator.
    """
    heavy, light = ts.techniques
    if diff[j - 1] < 0:
        heavy, light = light, heavy
        diff = [-d for d in diff]
    if not (diff[j - 1] > 0 and diff[k - 1] > 0) or min(diff) >= 0:
        return None
    m = diff.index(min(diff))
    rest = sum(diff) - diff[m]
    scale = max(Fraction(1), Fraction(rest, -diff[m])) + 1
    q = scale.denominator
    gap = rest * q + scale.numerator * diff[m]  # over q
    if gap >= 0:
        raise AssertionError("the heavy technique is not cheaper at the base point")
    base = [Fraction(1)] * ts.horizon
    base[m] = scale
    return ComplementarityWitness(
        pair=(j, k),
        base_prices=tuple(base),
        raised_price=Fraction(2 * q * diff[j - 1] - gap, q * diff[j - 1]),
        demand_before=heavy.labor,
        demand_after=light.labor,
        technique_before=heavy.name,
        technique_after=light.name,
    )


@lru_cache(maxsize=64)
def _grid_values(points: int) -> tuple[Fraction, ...]:
    """Positive rational grid approximating log spacing between GRID_LO and
    GRID_HI.

    With m = points - 1, lo = GRID_LO and hi = GRID_HI, value idx is
    lo**((m - idx)/m) * hi**(idx/m) rounded to four decimals: the nearest
    integer to the m-th root of lo**(m - idx) * hi**idx * 10**(4m), halves
    up, over 10**4. That nearest integer is (r + 1) // 2 for r the integer
    m-th root of the floor of 2**m times the radicand. With lo = 1/10 and
    hi > lo the radicand is at least 2000**m, so every value is positive.
    Repeated values are dropped. Memoised: an exact grid of 50 values takes
    about 2 ms, and the grid search asks for the same few grids on every
    call.
    """
    points = max(points, 2)
    m = points - 1
    out: list[Fraction] = []
    for idx in range(points):
        radicand = GRID_LO ** (m - idx) * GRID_HI**idx * 20_000**m
        twice = integer_root(radicand.numerator // radicand.denominator, m)
        approx = Fraction((twice + 1) // 2, 10_000)
        if not out or approx > out[-1]:
            out.append(approx)
    return tuple(out)


def _grid_witness(
    ts: TechnologySet, j: int, k: int, codes: dict[tuple[int, ...], int]
) -> Optional[ComplementarityWitness]:
    """The first witness for lags j != k on the price grid, read through
    codes, the search's table of choice codes by axis indices."""
    horizon = ts.horizon
    per_axis = GRID_POINTS
    while per_axis > 2 and per_axis**horizon > _GRID_CAP:
        per_axis -= 1
    values = _grid_values(per_axis)
    n = len(values)
    techniques = ts.techniques
    position = {t.name: idx for idx, t in enumerate(techniques)}
    demand_k = [t.labor[k - 1] for t in techniques]
    # combo holds the axis indices of the other lags in lag order; p_j goes
    # in at index j - 1
    for combo in iter_product(range(n), repeat=horizon - 1):
        head, tail = combo[: j - 1], combo[j - 1 :]
        prices = [values[d] for d in (*head, 0, *tail)]
        prev = 0
        for idx, pj in enumerate(values):
            point = (*head, idx, *tail)
            code = codes.get(point)
            if code is None:
                prices[j - 1] = pj
                choice = chosen_input_vector(ts, prices)
                code = codes[point] = 2 * position[choice.technique] + choice.is_tie
            if (
                idx
                and not (prev | code) & 1
                and demand_k[code >> 1] < demand_k[prev >> 1]
            ):
                before, after = techniques[prev >> 1], techniques[code >> 1]
                prices[j - 1] = values[idx - 1]
                return ComplementarityWitness(
                    pair=(j, k),
                    base_prices=tuple(prices),
                    raised_price=pj,
                    demand_before=before.labor,
                    demand_after=after.labor,
                    technique_before=before.name,
                    technique_after=after.name,
                )
            prev = code
    return None


def _distinct(ts: TechnologySet) -> TechnologySet:
    """ts with each labor profile kept once, by its first technique."""
    reps, _ = ts.distinct_profiles()
    return ts if len(reps) == len(ts) else TechnologySet(reps, ts.wage)


def complementarity_witness(
    ts: TechnologySet, pair: tuple[int, int]
) -> Optional[ComplementarityWitness]:
    """Search for a witness that the ordered lag pair (j, k) is complementary.

    Returns None when the searched region shows none (for two distinct
    profiles the analytic search is exhaustive over all positive prices).
    """
    j, k = pair
    if j == k:
        raise ValueError("complementarity needs two distinct inputs")
    for lag in (j, k):
        if lag < 1 or lag > ts.horizon:
            raise ValueError(f"lag {lag} outside horizon 1..{ts.horizon}")
    return _pair_witness(_distinct(ts), j, k, {})


def _pair_witness(
    distinct: TechnologySet, j: int, k: int, codes: dict[tuple[int, ...], int]
) -> Optional[ComplementarityWitness]:
    """The search for checked lags j != k on a menu of distinct profiles;
    codes is the grid table of the calling search."""
    if len(distinct) == 1:
        return None
    if len(distinct) == 2:
        return _analytic_two_technique_witness(distinct, _labor_difference(distinct), j, k)
    return _grid_witness(distinct, j, k, codes)


def find_complementary_pair(ts: TechnologySet) -> Optional[ComplementarityWitness]:
    """First complementary pair in lexicographic (j, k) order, if any."""
    distinct = _distinct(ts)
    if len(distinct) == 2:
        diff = _labor_difference(distinct)
        pair = _first_complementary_pair(diff)
        if pair is None:
            return None
        return _analytic_two_technique_witness(distinct, diff, *pair)
    codes: dict[tuple[int, ...], int] = {}
    for j in range(1, ts.horizon + 1):
        for k in range(1, ts.horizon + 1):
            if j == k:
                continue
            witness = _pair_witness(distinct, j, k, codes)
            if witness is not None:
                return witness
    return None
