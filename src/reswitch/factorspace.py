"""Factor-price aggregation and the single-switch property.

When the inputs of a lag group keep fixed internal proportions across every
technique that uses them (the discrete form of the Leontief-Sono
separability condition), the group admits a scalar price aggregate F: the
cost of the group's reference bundle at current factor prices. Dividing F
by the rental of a single complementary input yields a relative factor
price, and plotting the technique cost ratio against it collapses the
multi-valued interest-rate picture into a single-valued, strictly monotone
curve with at most one switch. `verify_single_switch` certifies that collapse
by an exact polynomial identity alone; it evaluates no grid, and it isolates
the crossing's interest preimages only when a caller reads them. Its
preconditions (disjoint supports, the group equal to one of them, a single
complement lag) already imply the identity; it is still checked, once, on
the labor coefficient tuples, since the verdict rests on it. The checks read
the group once, through the same helpers as `leontief_sono_check`,
`scalar_complement_lag` and the reference bundle.

Naming note: the aggregate combines the post-factum wage (wage compounded to
period end) with rentals; the ante-factum wage never enters it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    NoRootError,
    NonScalarComplementError,
    NotAggregableError,
)
from .model import FactorPricePoint, Technique, TechnologySet, _check_interest
from .polynomial import (
    Polynomial,
    RootInterval,
    isolate_roots_closed,
    refine_root,
)
from .rationals import integer_root, quote_short
from .switching import APPROX_TOL, DEFAULT_HI, DEFAULT_LO, _domain_start

MIN_REFINE_TOL = Fraction(1, 10**12)


@dataclass(frozen=True)
class FactorGroup:
    """A nonempty set of input lags considered for price aggregation."""

    lags: frozenset[int]

    @classmethod
    def of(cls, *lags: int) -> "FactorGroup":
        return cls(frozenset(int(x) for x in lags))

    def sorted_lags(self) -> tuple[int, ...]:
        return tuple(sorted(self.lags))


@dataclass(frozen=True)
class AggregateCurvePoint:
    interest: Fraction
    relative_price: Fraction
    cost_ratio: Fraction


@dataclass(frozen=True)
class Crossing:
    relative_price: Fraction
    interest_preimages: tuple[RootInterval, ...]  # interest units
    # each preimage: exact, or refined to within APPROX_TOL
    interest_approx: tuple[Fraction, ...]


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of checking for a single switch in factor-price space.

    single_switch is only meaningful when the preconditions hold (reason is
    None); when they fail no claim is made either way.

    crossing holds the relative price where the cost ratio crosses 1 and its
    interest preimages in the domain, or None when the verdict certifies no
    crossing or the domain holds no preimage. It is computed the first time
    it is read, once per verdict, by `_find_crossing`.
    """

    pair: tuple[str, ...]
    aggregable: bool
    single_switch: Optional[bool]
    counterexample: Optional[str]
    reason: Optional[str] = None
    _find_crossing: Optional[Callable[[], Optional[Crossing]]] = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def crossing(self) -> Optional[Crossing]:
        return None if self._find_crossing is None else self._find_crossing()


def _validate_group(ts: TechnologySet, group: FactorGroup) -> tuple[int, ...]:
    lags = group.sorted_lags()
    if not lags:
        raise ValueError("factor group must be nonempty")
    if any(t < 1 or t > ts.horizon for t in lags):
        shown = quote_short(",".join(map(str, lags)))
        raise ValueError(f"group lags {shown} outside horizon 1..{ts.horizon}")
    if len(lags) >= ts.horizon:
        raise ValueError("factor group must be a proper subset of the lags")
    return lags


def _group_subvectors(ts: TechnologySet, lags: Sequence[int]) -> list[tuple[Fraction, ...]]:
    """Each technique's inputs at the validated group lags, in menu order."""
    return [tuple(tech.labor[t - 1] for t in lags) for tech in ts.techniques]


def _proportional(subs: Sequence[tuple[Fraction, ...]]) -> bool:
    """The Leontief-Sono condition on group sub-vectors: every sub-vector
    that is not all zero is proportional to every other one."""
    nonzero = [sub for sub in subs if any(sub)]  # labor is nonnegative
    if len(nonzero) <= 1:
        return True
    ref = nonzero[0]
    for vec in nonzero[1:]:
        for i in range(len(ref)):
            for j in range(i + 1, len(ref)):
                if ref[i] * vec[j] != ref[j] * vec[i]:
                    return False
    return True


def _owner_index(subs: Sequence[tuple[Fraction, ...]]) -> int:
    """The index of the reference technique: the first one that uses the
    group, or the last one when none does."""
    return next((k for k, sub in enumerate(subs) if any(sub)), len(subs) - 1)


def leontief_sono_check(ts: TechnologySet, group: FactorGroup) -> bool:
    """True iff all techniques use the group's inputs in the same proportions.

    All-zero sub-vectors are compatible with any proportions. This is the
    discrete-technology condition under which a group price aggregate is
    well defined.
    """
    return _proportional(_group_subvectors(ts, _validate_group(ts, group)))


def _reference_bundle(ts: TechnologySet, group: FactorGroup) -> dict[int, Fraction]:
    """The group's common proportion vector, scaled to the first technique
    that actually uses the group."""
    lags = _validate_group(ts, group)
    subs = _group_subvectors(ts, lags)
    if not _proportional(subs):
        raise NotAggregableError(
            f"group {lags}: input proportions differ across techniques"
        )
    sub = subs[_owner_index(subs)]
    if not any(sub):
        raise NotAggregableError(f"group {lags}: no technique uses these inputs")
    return dict(zip(lags, sub))


def aggregate_price(
    ts: TechnologySet, group: FactorGroup, prices: FactorPricePoint
) -> Fraction:
    """The group price aggregate F: cost of the reference bundle at `prices`.

    When the group equals the positive support of one technique, F is
    identically that technique's unit cost.
    """
    bundle = _reference_bundle(ts, group)
    return sum(
        (qty * prices.price_of_lag(t) for t, qty in bundle.items()), Fraction(0)
    )


def _complement_lag(lags: Sequence[int], positive: Iterable[int]) -> int:
    """The one lag of `positive` outside the validated group `lags`."""
    outside = [t for t in positive if t not in lags]
    if len(outside) != 1:
        raise NonScalarComplementError(
            f"complement of group {list(lags)} holds {len(outside)} positive "
            "lags; a scalar relative price needs exactly one"
        )
    return outside[0]


def scalar_complement_lag(ts: TechnologySet, group: FactorGroup) -> int:
    """The single positive lag outside the group, used to normalize F."""
    return _complement_lag(_validate_group(ts, group), ts.positive_lags())


def _curve_techniques(ts: TechnologySet, group: FactorGroup) -> tuple[Technique, Technique]:
    if len(ts) == 1:
        # degenerate single-technique curve: the cost ratio is identically 1
        return ts.techniques[0], ts.techniques[0]
    if len(ts) != 2:
        raise ValueError("the relative-price curve compares exactly two techniques")
    k = _owner_index(_group_subvectors(ts, _validate_group(ts, group)))
    return ts.techniques[k], ts.techniques[1 - k]


def aggregate_polynomial(ts: TechnologySet, group: FactorGroup) -> Polynomial:
    """F at unit wage as a polynomial in x = 1 + i."""
    bundle = _reference_bundle(ts, group)
    coeffs = [Fraction(0)] * (max(bundle) + 1)
    for t, qty in bundle.items():
        coeffs[t] = qty
    return Polynomial(coeffs)


def relative_price_curve(
    ts: TechnologySet, group: FactorGroup, interest_grid: Sequence[Fraction]
) -> list[AggregateCurvePoint]:
    """Exact (interest, F/complement-rental, cost ratio) triples.

    The cost ratio is group-using technique over the other one. F and the
    complement rental are w * aggregate_polynomial(x) and w * x**lag at
    x = 1 + i, so the wage cancels from the relative price exactly.
    """
    owner, other = _curve_techniques(ts, group)
    lag = scalar_complement_lag(ts, group)
    f_poly = aggregate_polynomial(ts, group)
    owner_cost = owner.cost_polynomial(ts.wage)
    other_cost = other.cost_polynomial(ts.wage)
    out = []
    for i in interest_grid:
        i = _check_interest(i)
        x = 1 + i
        out.append(
            AggregateCurvePoint(i, f_poly(x) / x**lag, owner_cost(x) / other_cost(x))
        )
    return out


def _price_equation(ts: TechnologySet, group: FactorGroup, target: Fraction) -> Polynomial:
    """F(x) - target * x**lag at unit wage: zero where F/complement-rental
    equals target, x = 1 + i.

    Built as one coefficient list: F's coefficients padded with zeros up to
    degree lag, with target subtracted from the x**lag coefficient.
    """
    lag = scalar_complement_lag(ts, group)
    coeffs = list(aggregate_polynomial(ts, group).coeffs)
    coeffs += [Fraction(0)] * (lag + 1 - len(coeffs))
    coeffs[lag] -= Fraction(target)
    return Polynomial(coeffs)


def interest_rates_for_relative_price(
    ts: TechnologySet,
    group: FactorGroup,
    target: Fraction,
    lo: Fraction = DEFAULT_LO,
    hi: Fraction = DEFAULT_HI,
) -> list[RootInterval]:
    """All interest rates in [lo, hi] where F/complement-rental hits target.

    Roots come back as certificates (exact rationals have lo == hi). Raises
    NoRootError when the target is never attained, e.g. below the curve
    minimum.
    """
    lo, hi = _domain_start(lo), Fraction(hi)
    roots = isolate_roots_closed(_price_equation(ts, group, target), 1 + lo, 1 + hi)
    if not roots:
        raise NoRootError(
            f"relative price {target} is not attained for interest in [{lo}, {hi}]"
        )
    return [RootInterval(r.lo - 1, r.hi - 1, r.parity) for r in roots]


def refined_interest_rates(
    ts: TechnologySet,
    group: FactorGroup,
    target: Fraction,
    lo: Fraction,
    hi: Fraction,
    tol: Fraction,
) -> list[tuple[RootInterval, Fraction]]:
    """interest_rates_for_relative_price, each certificate paired with its
    rate: the exact root, or the root refined to within tol."""
    roots = interest_rates_for_relative_price(ts, group, target, lo, hi)
    cleared = _price_equation(ts, group, target)
    return [
        (
            r,
            r.lo
            if r.is_exact
            else refine_root(RootInterval(r.lo + 1, r.hi + 1, r.parity), cleared, tol) - 1,
        )
        for r in roots
    ]


@dataclass(frozen=True)
class CurveMinimum:
    """Interior minimum of the relative-price curve, refined to high precision."""

    certificate: RootInterval  # interest units, bracket for the minimizer
    interest: Fraction  # refined approximation
    relative_price: Fraction
    cost_ratio: Fraction


def curve_minimum(
    ts: TechnologySet,
    group: FactorGroup,
    lo: Fraction = DEFAULT_LO,
    hi: Fraction = DEFAULT_HI,
) -> Optional[CurveMinimum]:
    """The interior global minimum of F/complement-rental on [lo, hi], if any.

    Found by clearing the derivative of sum b_t x**(t-c) to the polynomial
    sum b_t (t-c) x**t and isolating its roots. The minimizer is refined
    until the second-order error in the price value is negligible (the
    derivative vanishes there, so the value converges quadratically).
    """
    xlo, xhi = 1 + _domain_start(lo), 1 + Fraction(hi)
    lag = scalar_complement_lag(ts, group)
    f_poly = aggregate_polynomial(ts, group)
    owner, other = _curve_techniques(ts, group)
    cleared = Polynomial(c * (t - lag) for t, c in enumerate(f_poly.coeffs))
    # cleared is nonzero: the bundle has a nonzero lag t != lag. Brackets lie
    # in [xlo, xhi] and refine_root returns a point strictly inside one, so
    # only the exact roots on an edge need dropping
    candidates = [
        r for r in isolate_roots_closed(cleared, xlo, xhi) if xlo < r.hi and r.lo < xhi
    ]

    def rel_at(x: Fraction) -> Fraction:
        return f_poly(x) / x**lag

    best: Optional[tuple[Fraction, Fraction, RootInterval]] = None
    for cand in candidates:
        x_star = refine_root(cand, cleared, MIN_REFINE_TOL)
        value = rel_at(x_star)
        if best is None or value < best[0]:
            best = (value, x_star, cand)
    if best is None:
        return None
    value, x_star, cand = best
    if value >= rel_at(xlo) or value >= rel_at(xhi):
        return None
    ratio = owner.cost_polynomial(ts.wage)(x_star) / other.cost_polynomial(ts.wage)(x_star)
    return CurveMinimum(
        certificate=RootInterval(cand.lo - 1, cand.hi - 1, cand.parity),
        interest=x_star - 1,
        relative_price=value,
        cost_ratio=ratio,
    )


def _integer_nth_root(n: int, k: int) -> Optional[int]:
    root = integer_root(n, k)
    return root if root**k == n else None


def symmetric_interest_pairs(
    ts: TechnologySet,
    group: FactorGroup,
    count: int,
    lo: Fraction = DEFAULT_LO,
    hi: Fraction = DEFAULT_HI,
) -> list[tuple[Fraction, Fraction]]:
    """Exact pairs of distinct interest rates with identical relative price.

    Exists in closed form when the group holds exactly two lags placed
    symmetrically around the complement lag: with price factors x, x' the
    aggregate ratio coincides exactly when (x * x')**a equals the bundle
    coefficient ratio, so rational pairs satisfy x * x' = constant.
    """
    xlo, xhi = 1 + _domain_start(lo), 1 + Fraction(hi)
    lag = scalar_complement_lag(ts, group)
    bundle = _reference_bundle(ts, group)
    lags = sorted(bundle)
    if len(lags) != 2:
        return []
    s, u = lags
    alpha = lag - s
    if alpha <= 0 or u - lag != alpha:
        return []
    if not bundle[u]:  # F is b_s * x**s alone, so the relative price is monotone
        return []
    q = bundle[s] / bundle[u]
    num = _integer_nth_root(q.numerator, alpha)
    den = _integer_nth_root(q.denominator, alpha)
    if num is None or den is None:
        return []
    product = Fraction(num, den)  # x * x' on every equal-price pair
    if xhi <= xlo:  # an empty domain; xhi may be 0
        return []

    left = max(xlo, product / xhi)
    right = min(xhi, product / xlo)
    if left >= right:
        return []
    pairs = []
    for k in range(1, count + 1):
        x = left + (right - left) * Fraction(k, 2 * (count + 1))
        if x * x == product:
            continue
        partner = product / x
        if xlo <= partner <= xhi and partner != x:
            pairs.append((x - 1, partner - 1))
    return pairs


def support_groups(ts: TechnologySet) -> list[FactorGroup]:
    """Candidate aggregation groups: each technique's positive support, when
    it is a proper subset of the lags."""
    out = []
    seen = set()
    for tech in ts.techniques:
        support = frozenset(tech.support)
        if 0 < len(support) < ts.horizon and support not in seen:
            seen.add(support)
            out.append(FactorGroup(support))
    return out


def _crossing(
    ts: TechnologySet, group: FactorGroup, target: Fraction, lo: Fraction, hi: Fraction
) -> Optional[Crossing]:
    try:
        found = refined_interest_rates(ts, group, target, lo, hi, APPROX_TOL)
    except NoRootError:
        return None
    return Crossing(
        Fraction(target), tuple(r for r, _ in found), tuple(v for _, v in found)
    )


def verify_single_switch(
    ts: TechnologySet,
    group: FactorGroup,
    lo: Fraction = DEFAULT_LO,
    hi: Fraction = DEFAULT_HI,
) -> TheoremVerdict:
    """Check that the cost ratio is a single-valued, strictly monotone
    function of the relative factor price, crossing 1 at most once.

    Preconditions (two techniques, disjoint positive supports, the group
    exactly equal to one support, a scalar complement) are verified first,
    in that order and in one pass over the group; when any fails the verdict
    carries a reason and makes no claim.

    Given the preconditions, the verdict rests on an exact polynomial
    identity in x = 1 + i, compared coefficient by coefficient on the labor
    tuples, not on sampling: F equals the owner's unit cost
    and the other technique's cost equals other_coeff * x**lag. The cost
    ratio is then identically relative_price / other_coeff. other_coeff is
    positive because the complement lag lies in the other technique's
    support, so the ratio is single-valued and strictly increasing in the
    relative price by construction, and it crosses 1 only where
    relative_price == other_coeff. That crossing's interest preimages in
    [lo, hi] come back as root certificates, isolated the first time the
    verdict's crossing is read, so a caller that reads only single_switch
    pays for no isolation.
    """
    lo = _domain_start(lo)
    names = ts.names
    if len(ts) != 2:
        return TheoremVerdict(names, False, None, None, "needs exactly two techniques")
    try:
        lags = _validate_group(ts, group)
    except ValueError as exc:
        return TheoremVerdict(names, False, None, None, str(exc))
    subs = _group_subvectors(ts, lags)
    if not _proportional(subs):
        return TheoremVerdict(
            names, False, None, None, "group fails the price-aggregation check"
        )
    k = _owner_index(subs)
    owner, other = ts.techniques[k], ts.techniques[1 - k]
    owner_support, other_support = set(owner.support), set(other.support)
    if owner_support & other_support:
        return TheoremVerdict(
            names, True, None, None, "technique supports are not disjoint"
        )
    if owner_support != set(lags):
        return TheoremVerdict(
            names, True, None, None,
            "group must equal the positive support of one technique",
        )
    try:
        lag = _complement_lag(lags, owner_support | other_support)
    except NonScalarComplementError as exc:
        return TheoremVerdict(names, True, None, None, str(exc))

    # Collapse identity, on the coefficients of x**1 .. x**horizon at unit
    # wage: F, the owner's group sub-vector at the group lags (the reference
    # bundle), is the owner's unit cost, and the other technique's cost is
    # the single monomial other_coeff * x**lag, so the cost ratio equals
    # relative_price / other_coeff identically.
    bundle = dict(zip(lags, subs[k]))
    other_coeff = other.labor[lag - 1]
    span = range(1, ts.horizon + 1)
    if owner.labor != tuple(bundle.get(t, 0) for t in span) or other.labor != tuple(
        other_coeff if t == lag else 0 for t in span
    ):
        return TheoremVerdict(
            names, True, False,
            "collapse identity failed: cost ratio is not a function of the "
            "relative price", None,
        )

    return TheoremVerdict(
        names, True, True, None, None, partial(_crossing, ts, group, other_coeff, lo, hi)
    )
