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
price space, so witnesses are constructed analytically and exactly. Larger
menus fall back to a documented deterministic grid search (rational price
points rounded exactly from log spacing; all cost comparisons at those
points remain exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Optional, Sequence

from .model import TechnologySet
from .rationals import integer_root

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
        assert self.raised_price > self.base_prices[j - 1]
        assert self.demand_after[k - 1] < self.demand_before[k - 1]


def _check_prices(ts: TechnologySet, prices: Sequence[Fraction]) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(p) for p in prices)
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


def _analytic_two_technique_witness(
    ts: TechnologySet, j: int, k: int
) -> Optional[ComplementarityWitness]:
    first, second = ts.techniques
    for heavy, light in ((first, second), (second, first)):
        if heavy.labor[j - 1] <= light.labor[j - 1]:
            continue
        if heavy.labor[k - 1] <= light.labor[k - 1]:
            continue
        delta = tuple(h - l for h, l in zip(heavy.labor, light.labor))
        if all(d >= 0 for d in delta):
            continue  # heavy never strictly cheaper at positive prices
        # Base point: unit prices except a large price on the lag where the
        # lighter technique is heavier, placed so `heavy` strictly wins.
        m_star = min(range(len(delta)), key=lambda idx: delta[idx])
        rest = sum(d for idx, d in enumerate(delta) if idx != m_star)
        scale = max(Fraction(1), rest / -delta[m_star]) + 1
        base = [Fraction(1)] * ts.horizon
        base[m_star] = scale
        gap = sum(p * d for p, d in zip(base, delta))
        assert gap < 0  # heavy is strictly cheaper at the base point
        # Raise p_j past the tie hyperplane and strictly beyond it.
        crossing = (gap - base[j - 1] * delta[j - 1]) / -delta[j - 1]
        raised = crossing + 1
        return ComplementarityWitness(
            pair=(j, k),
            base_prices=tuple(base),
            raised_price=raised,
            demand_before=heavy.labor,
            demand_after=light.labor,
            technique_before=heavy.name,
            technique_after=light.name,
        )
    return None


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
    ts: TechnologySet, j: int, k: int
) -> Optional[ComplementarityWitness]:
    horizon = ts.horizon
    per_axis = GRID_POINTS
    while per_axis > 2 and per_axis**horizon > _GRID_CAP:
        per_axis -= 1
    values = _grid_values(per_axis)
    other_axes = [t for t in range(1, horizon + 1) if t != j]
    for combo in iter_product(values, repeat=len(other_axes)):
        fixed = dict(zip(other_axes, combo))
        prev: Optional[TechniqueChoice] = None
        prev_pj: Optional[Fraction] = None
        for pj in values:
            prices = [
                pj if t == j else fixed[t] for t in range(1, horizon + 1)
            ]
            choice = chosen_input_vector(ts, prices)
            if (
                prev is not None
                and not prev.is_tie
                and not choice.is_tie
                and choice.vector[k - 1] < prev.vector[k - 1]
            ):
                base = [
                    prev_pj if t == j else fixed[t] for t in range(1, horizon + 1)
                ]
                return ComplementarityWitness(
                    pair=(j, k),
                    base_prices=tuple(base),
                    raised_price=pj,
                    demand_before=prev.vector,
                    demand_after=choice.vector,
                    technique_before=prev.technique,
                    technique_after=choice.technique,
                )
            prev, prev_pj = choice, pj
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
    ts = _distinct(ts)
    if len(ts) == 1:
        return None
    if len(ts) == 2:
        return _analytic_two_technique_witness(ts, j, k)
    return _grid_witness(ts, j, k)


def find_complementary_pair(ts: TechnologySet) -> Optional[ComplementarityWitness]:
    """First complementary pair in lexicographic (j, k) order, if any."""
    distinct = _distinct(ts)
    for j in range(1, ts.horizon + 1):
        for k in range(1, ts.horizon + 1):
            if j == k:
                continue
            witness = complementarity_witness(distinct, (j, k))
            if witness is not None:
                return witness
    return None
