"""Switch points, cost dominance over the interest axis, and reswitching.

All comparisons are exact. Boundary points between dominance segments are
either exact rationals or carried as certified isolating intervals; segment
winners are decided by evaluating costs at exact rational sample points that
provably lie strictly between consecutive tie points. Even-multiplicity
tie points (tangencies, where two cost curves touch without crossing) never
enter the dominance map's segments or boundaries; the same pass over the
technique pairs collects them into `DominanceMap.tangencies`.

A `MenuAnalysis` holds one menu's pair analysis on one domain: the
checked domain, the representatives of its distinct profiles, one integer
cost row per representative (its unit-wage cost polynomial, constant term
first, times the common denominator of all labor inputs; every row has the
menu's degree, so `polynomial._scaled_value` puts all of them at one scale
at any rational point), and a `_PairTies` record for each representative
pair, isolated the first time the pair is asked for. A record holds the
difference of the pair's two rows, an integer vector that is a positive
multiple of the cost difference (no root certificate depends on the
multiple), and its roots in the domain: every certificate, exact or a
bracket, is clipped to the domain alike. A pair of clones, or a
pair asked for in the other orientation, reads the same record. Gap
winners, tie sets and tie costs read the rows. A gap's winner is read at
the gap's midpoint, an integer pair (num, den) over twice the lcm of the
ends' denominators, not reduced, that `_scaled_value` evaluates directly
(a common factor of num and den scales every row alike); only a sample
that hits a tie moves on, in `Fraction`s, toward the right edge. Each tie
cost is one exact `Fraction` of a row's scaled value
(`MenuAnalysis._tie_cost`).
`pairwise_switch_points` and `pairwise_tangencies` read the analysis of a
two-technique menu. The analysis lives as long as its caller keeps it:
`dominance_map` and `detect_reswitching` build a fresh one when given none,
`reswitch analyze` builds one per command and hands it to every step that
reads a pair, and no module-level state or returned object refers to an
analysis or a record, so nothing outlives the call.
Integer vectors are the only polynomials this module computes with: they
are isolated and refined through the integer entry points
`polynomial._isolate_ints` and `polynomial._refine_ints`, and brackets are
narrowed by `polynomial._narrow` on the vectors themselves (on the
square-free part for an even tie).

Each candidate boundary (`_Cut`) records the technique pairs whose odd tie
it certifies, on the bracket and difference of the first of them. One sweep
makes the cuts disjoint, merging or halving only neighbours that overlap, so
a bracket stays a node of its own pair's bisection and an irrational
boundary's approximation is that pair's switch point (unless separation
narrowed the bracket below APPROX_TOL). An exact cut on a domain edge is
set aside before the walk, as it bounds no gap; the other cuts bound
non-empty gaps, and a segment is a run of gaps with one winner, so
boundaries come out in order. At an exact point a boundary's tie set is every technique at
the minimum cost there. In a bracket it is the pairs the cut records, else
a shared-root test per representative (one with an even tie there, say):
whether the square-free part of an integer gcd changes sign across the
bracket. Sturm chains only isolate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import lcm
from typing import Optional, Sequence

from .errors import DomainError, IdenticalTechniquesError
from .model import Technique, TechnologySet
from .polynomial import (
    ODD,
    RootInterval,
    _bisection_poly,
    _cauchy_bound,
    _changes_sign,
    _isolate_ints,
    _narrow,
    _primitive_gcd,
    _refine_ints,
    _scaled_value,
    _sign_at,
    _squarefree_ints,
    _subtract_ints,
    _vanishing_order,
)

# not called here: the benchmark's tracer (bench/spans.py) wraps and
# restores this name on this module
from .polynomial import isolate_real_roots  # noqa: F401

APPROX_TOL = Fraction(1, 10**9)

DEFAULT_LO = Fraction(0)
DEFAULT_HI = Fraction(2)


@dataclass(frozen=True)
class SwitchPoint:
    """An interest rate where two techniques tie with a genuine crossing."""

    certificate: RootInterval  # in interest units; exact when lo == hi
    interest_exact: Optional[Fraction]
    interest_approx: Fraction
    cheaper_below: str
    cheaper_above: str
    tie_cost_exact: Optional[Fraction]
    tie_cost_approx: Fraction

    @property
    def is_exact(self) -> bool:
        return self.interest_exact is not None


@dataclass(frozen=True)
class Tangency:
    """A tie of even multiplicity: costs touch but dominance does not switch."""

    pair: tuple[str, str]
    certificate: RootInterval
    interest_exact: Optional[Fraction]
    interest_approx: Fraction


@dataclass(frozen=True)
class Boundary:
    interest_exact: Optional[Fraction]
    interest_approx: Fraction
    certificate: RootInterval
    ties: tuple[str, ...]
    tie_cost_exact: Optional[Fraction]
    tie_cost_approx: Fraction


@dataclass(frozen=True)
class Segment:
    lo: Fraction
    hi: Fraction
    winner: str
    co_winners: tuple[str, ...] = ()


@dataclass(frozen=True)
class DominanceMap:
    domain: tuple[Fraction, Fraction]
    segments: tuple[Segment, ...]
    boundaries: tuple[Boundary, ...]
    tangencies: tuple[Tangency, ...] = ()

    @property
    def winners(self) -> tuple[str, ...]:
        return tuple(s.winner for s in self.segments)


@dataclass(frozen=True)
class ReswitchReport:
    reswitching: bool
    recurring: Optional[str]
    map: DominanceMap
    tangencies: tuple[Tangency, ...]


def _domain_start(lo: Fraction) -> Fraction:
    """lo as a Fraction, rejected when x = 1 + lo is not positive."""
    # Fraction(Fraction) copies through the slow numbers-ABC path
    lo = lo if type(lo) is Fraction else Fraction(lo)
    if lo <= -1:
        raise DomainError(f"domain start {lo} is at or below -100%")
    return lo


def _check_domain(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    lo = _domain_start(lo)
    hi = hi if type(hi) is Fraction else Fraction(hi)
    if hi <= lo:
        raise DomainError("domain must have positive width")
    return lo, hi


def _clip_bracket(
    f: list[int], iv: RootInterval, xlo: Fraction, xhi: Fraction
) -> Optional[RootInterval]:
    """Narrow a root certificate of the integer vector f until fully inside
    or outside [xlo, xhi]; None when it ends up outside. Only a bracket can
    straddle an edge: an exact root comes back as itself or None."""

    def straddles(a: Fraction, b: Fraction) -> bool:
        return not (b < xlo or a > xhi or (xlo <= a and b <= xhi))

    if straddles(iv.lo, iv.hi):
        lo_b, hi_b = _narrow(_bisection_poly(f, iv.lo, iv.hi), iv.lo, iv.hi, straddles)
        iv = RootInterval(lo_b, hi_b, iv.parity)
    return None if iv.hi < xlo or iv.lo > xhi else iv


def _cost_rows(techs: Sequence[Technique]) -> tuple[list[list[int]], int]:
    """The unit-wage cost rows of techniques of one horizon, and their scale.

    Each row holds a cost polynomial's coefficients, constant term first,
    times denom, the common denominator of all labor inputs. With n the
    horizon, `_scaled_value(row, num, den)` is den**n * denom times the cost
    at x = num/den, one positive scale for every row at a point.
    """
    denom = lcm(*(v.denominator for t in techs for v in t.labor))
    rows = [[0] + [v.numerator * (denom // v.denominator) for v in t.labor] for t in techs]
    return rows, denom


@dataclass(frozen=True)
class _PairTies:
    """One pair's tie structure: f, the integer vector of a positive
    multiple of the cost difference cost_a - cost_b at unit wage, and the
    roots of f inside the closed interest domain, in x = 1 + i, each
    bracket clipped to the domain."""

    f: list[int]
    in_domain: tuple[RootInterval, ...]

    def approx(self, iv: RootInterval) -> Fraction:
        """The root's x: exact, or refined to within APPROX_TOL."""
        return iv.lo if iv.is_exact else _refine_ints(self.f, iv.lo, iv.hi, APPROX_TOL)


def _pair_ties(f: list[int], lo: Fraction, hi: Fraction) -> _PairTies:
    """The tie record of f, the nonzero difference of two cost rows."""
    xlo, xhi = 1 + lo, 1 + hi
    bound = _cauchy_bound(f) + 1
    clipped = (
        _clip_bracket(f, iv, xlo, xhi)
        for iv in _isolate_ints(f, -bound, bound)
    )
    return _PairTies(f, tuple(iv for iv in clipped if iv is not None))


def _sign_above(f: list[int], iv: RootInterval) -> int:
    """A value with the sign of f just above its root certified by iv: at
    the bracket's upper end, or at an exact root that of the first
    derivative of f not vanishing there."""
    return _vanishing_order(f, iv.lo)[1] if iv.is_exact else _sign_at(f, iv.hi)


def _to_interest(iv: RootInterval) -> RootInterval:
    return RootInterval(iv.lo - 1, iv.hi - 1, iv.parity)


def pairwise_switch_points(
    a: Technique,
    b: Technique,
    lo: Fraction = DEFAULT_LO,
    hi: Fraction = DEFAULT_HI,
    wage: Fraction = Fraction(1),
) -> list[SwitchPoint]:
    """All odd-multiplicity tie points of the two cost curves in [lo, hi].

    Switch locations do not depend on the wage (the cost difference is
    homogeneous in it); tie costs are reported at the given wage. The pair
    is read as the two-technique menu `MenuAnalysis(TechnologySet([a, b],
    wage), lo, hi)`: a wage that is not positive, or two techniques of one
    name, raise ModelFormatError, a bad domain DomainError, and two
    techniques of equal cost everywhere IdenticalTechniquesError.
    """
    analysis = MenuAnalysis(TechnologySet([a, b], wage), lo, hi)
    return analysis.switch_points(*analysis.ts.techniques)


def _tangencies(a: Technique, b: Technique, ties: _PairTies) -> list[Tangency]:
    out = []
    for iv in ties.in_domain:
        if iv.parity == ODD:
            continue
        out.append(
            Tangency(
                pair=(a.name, b.name),
                certificate=_to_interest(iv),
                interest_exact=iv.lo - 1 if iv.is_exact else None,
                interest_approx=ties.approx(iv) - 1,
            )
        )
    return out


def pairwise_tangencies(
    a: Technique, b: Technique, lo: Fraction = DEFAULT_LO, hi: Fraction = DEFAULT_HI
) -> list[Tangency]:
    """Even-multiplicity tie points of the pair in [lo, hi], read as the
    two-technique menu `MenuAnalysis(TechnologySet([a, b]), lo, hi)`, with
    the errors of `pairwise_switch_points`."""
    analysis = MenuAnalysis(TechnologySet([a, b]), lo, hi)
    a, b = analysis.ts.techniques
    return _tangencies(a, b, analysis.pair_ties(a, b))


class MenuAnalysis:
    """The pair analysis of one menu on one interest domain, for one call.

    It checks the domain, collapses identical profiles and builds the
    representatives' integer cost rows once (`rows`, each the unit-wage
    cost times `denom`, all of one degree), and isolates each
    representative pair the first time it is asked for. Clones read their
    representative's record, and the other orientation reads it with the
    difference negated: isolation, clipping and bisection make the same
    choices for -f as for f, so the roots and brackets are the same. Switch
    points and tie costs are read from the records and rows alone. No
    object it returns refers to it.
    """

    def __init__(
        self, ts: TechnologySet, lo: Fraction = DEFAULT_LO, hi: Fraction = DEFAULT_HI
    ):
        self.ts = ts
        self.lo, self.hi = _check_domain(lo, hi)
        self.reps, self.aliases = ts.distinct_profiles()
        # name -> name of the representative sharing its profile
        self.rep_of = {
            name: rep.name
            for rep in self.reps
            for name in (rep.name, *self.aliases[rep.name])
        }
        rows, self.denom = _cost_rows(self.reps)
        self.rows = {r.name: row for r, row in zip(self.reps, rows)}
        self._members = {t.name: t for t in ts.techniques}
        self._rank = {r.name: k for k, r in enumerate(self.reps)}
        self._ties: dict[tuple[str, str], _PairTies] = {}

    def pair_ties(self, a: Technique, b: Technique) -> _PairTies:
        """The tie record of f = cost_a - cost_b for two menu techniques."""
        for tech in (a, b):
            member = self._members.get(tech.name)
            if member is not tech and member != tech:
                raise ValueError(f"technique {tech.name!r} is not on this menu")
        ra, rb = self.rep_of[a.name], self.rep_of[b.name]
        if ra == rb:
            raise IdenticalTechniquesError(
                f"techniques {a.name!r} and {b.name!r} have identical costs everywhere"
            )
        flip = self._rank[ra] > self._rank[rb]
        key = (rb, ra) if flip else (ra, rb)
        ties = self._ties.get(key)
        if ties is None:
            ties = _pair_ties(self.difference(*key), self.lo, self.hi)
            self._ties[key] = ties
        return _PairTies([-c for c in ties.f], ties.in_domain) if flip else ties

    def difference(self, u: str, v: str) -> list[int]:
        """A positive multiple of cost_u - cost_v, for two representatives,
        as an integer vector."""
        return _subtract_ints(self.rows[u], self.rows[v])

    def _tie_cost(self, name: str, x: Fraction) -> Fraction:
        """The cost of the named menu technique at x = 1 + i, at the menu's
        wage: its row's scaled value over the scale at x."""
        value = _scaled_value(self.rows[self.rep_of[name]], x.numerator, x.denominator)
        wage = self.ts.wage
        return Fraction(
            wage.numerator * value,
            wage.denominator * x.denominator**self.ts.horizon * self.denom,
        )

    def switch_points(self, a: Technique, b: Technique) -> list[SwitchPoint]:
        """`pairwise_switch_points(a, b, lo, hi, ts.wage)`, read from the
        shared record: the sides of a switch point from the sign of the
        difference just above it (the root's multiplicity is odd, so the
        sign below is the opposite), its tie cost from a's row."""
        ties = self.pair_ties(a, b)
        out = []
        for iv in ties.in_domain:
            if iv.parity != ODD:
                continue
            a_dearer_above = _sign_above(ties.f, iv) > 0
            approx_x = ties.approx(iv)
            tie_cost = self._tie_cost(a.name, approx_x)
            out.append(
                SwitchPoint(
                    certificate=_to_interest(iv),
                    interest_exact=iv.lo - 1 if iv.is_exact else None,
                    interest_approx=approx_x - 1,
                    cheaper_below=a.name if a_dearer_above else b.name,
                    cheaper_above=b.name if a_dearer_above else a.name,
                    tie_cost_exact=tie_cost if iv.is_exact else None,
                    tie_cost_approx=tie_cost,
                )
            )
        return out


class _Cut:
    """A candidate dominance boundary: one certified tie point in x-space, a
    root of odd multiplicity of the integer vector f, the cost difference of
    the cut's first pair, so f changes sign across the bracket. An exact cut
    has lo == hi == exact.

    pairs holds the representative pairs (as frozensets of two names) whose
    odd ties the cut certifies; a merge takes the union.
    """

    __slots__ = ("f", "exact", "lo", "hi", "pairs")

    def __init__(self, f: list[int], lo: Fraction, hi: Fraction, pairs: set):
        self.f = f
        self.exact = lo if lo == hi else None
        self.lo = lo
        self.hi = hi
        self.pairs = pairs

    def narrow(self, more) -> None:
        """Bisect the bracket while more(lo, hi) holds; exact cuts stay put."""
        if self.exact is None:
            self.lo, self.hi = _narrow(self.f, self.lo, self.hi, more)


def _merge_or_separate(cuts: list[_Cut]) -> list[_Cut]:
    """Make all cuts pairwise disjoint, as closed intervals.

    One sweep takes the cuts in order of left end, each against the last one
    kept, the only one it can overlap. Two exact cuts hold one point when
    they are equal; an exact cut and a bracket never hold one, as no bracket
    contains an exact root of its own polynomial. Two brackets that share a
    recorded pair hold distinct roots of its difference; two others hold one
    root when their polynomials share a root where they meet, as each
    isolates its own polynomial's root (`_shares_root` on the overlap). One
    point or root merges into the cut built first; else the wider cut (an
    exact one has width 0) is halved and goes back into the sweep."""
    heap = [(c.lo, serial, c) for serial, c in enumerate(cuts)]
    heapify(heap)
    kept: list[tuple[int, _Cut]] = []  # (serial, cut), disjoint, by left end
    while heap:
        serial, c = heappop(heap)[1:]
        if not kept or kept[-1][1].hi < c.lo:
            kept.append((serial, c))
            continue
        k_serial, k = kept[-1]  # k.lo <= c.lo <= k.hi
        if c.exact is not None or k.exact is not None:
            same = c.exact == k.exact
        else:
            same = not k.pairs & c.pairs and _shares_root(
                c.f, k.f, c.lo, min(k.hi, c.hi)
            )
        if same:
            if serial < k_serial:
                c.pairs |= k.pairs
                kept[-1] = (serial, c)
            else:
                k.pairs |= c.pairs
            continue
        wider = k if k.hi - k.lo > c.hi - c.lo else c
        wider.narrow(lambda a, b, width=wider.hi - wider.lo: b - a == width)
        if wider is k:
            kept.pop()
            heappush(heap, (k.lo, k_serial, k))
        heappush(heap, (c.lo, serial, c))
    return [c for _, c in kept]


def _shares_root(f: list[int], g: list[int], a: Fraction, b: Fraction) -> bool:
    """Whether the integer vectors f and g share a root in (a, b), where f
    has at most one root in [a, b] and a and b are not roots of f.

    gcd(f, g) has no other root there, so its square-free part changes sign
    across [a, b] exactly when that root is shared, at any multiplicity in
    g (an even tie, say).
    """
    return _changes_sign(_squarefree_ints(_primitive_gcd(f, g)), a, b)


def dominance_map(
    ts: TechnologySet,
    lo: Fraction = DEFAULT_LO,
    hi: Fraction = DEFAULT_HI,
    *,
    analysis: Optional[MenuAnalysis] = None,
) -> DominanceMap:
    """Partition [lo, hi] into segments whose interior has a strict unique
    cost minimizer; ties occur only at the recorded boundaries.

    The cuts are the odd ties of the representative pairs, made disjoint.
    An exact cut on a domain edge is set aside first, and is a boundary
    when two distinct profiles share the minimum there. The other cuts
    bound non-empty gaps with one cheapest winner each; a segment is a run
    of gaps with one winner, and each cut where the winner changes is a
    boundary. Techniques with identical profiles are collapsed into one
    competitor and reported as co-winners of its segments. The same walk
    over the representative pairs collects their even-multiplicity ties in
    [lo, hi] as `tangencies`, sorted by approximate interest rate (stable,
    in pair order), so callers need not isolate any pair again. Pair
    records are read from `analysis` (a fresh `MenuAnalysis(ts, lo, hi)` by
    default); one built for another menu or domain raises ValueError.
    """
    if analysis is None:
        analysis = MenuAnalysis(ts, lo, hi)
    elif analysis.ts is not ts or _check_domain(lo, hi) != (analysis.lo, analysis.hi):
        raise ValueError("the analysis was built for another menu or domain")
    lo, hi = analysis.lo, analysis.hi
    xlo, xhi = 1 + lo, 1 + hi
    reps, aliases = analysis.reps, analysis.aliases
    # gap winners and tie sets compare scaled row values, which share one
    # positive scale at a point (the wage is positive too, so unit costs
    # have the same argmin)
    rows, rep_of = analysis.rows, analysis.rep_of

    cuts: list[_Cut] = []
    tangencies: list[Tangency] = []
    for u, v in combinations(reps, 2):
        ties = analysis.pair_ties(u, v)
        for iv in ties.in_domain:
            if iv.parity != ODD:
                continue
            pair = frozenset((u.name, v.name))
            cuts.append(_Cut(ties.f, iv.lo, iv.hi, {pair}))
        tangencies.extend(_tangencies(u, v, ties))
    tangencies.sort(key=lambda t: t.interest_approx)
    cuts = _merge_or_separate(cuts)
    # cuts are strictly apart; an exact one on a domain edge bounds no gap,
    # and brackets are kept off the edges, so every gap has an inner sample
    edges = [cuts.pop(0).exact] if cuts and cuts[0].exact == xlo else []
    if cuts and cuts[-1].exact == xhi:
        edges.append(cuts.pop().exact)
    if cuts:
        cuts[0].narrow(lambda a, b: a <= xlo)
        cuts[-1].narrow(lambda a, b: b >= xhi)

    def min_owners(num: int, den: int) -> list[Technique]:
        # the representatives cheapest at x = num/den, den > 0, not
        # necessarily in lowest terms: the scaled values share the positive
        # scale den**n at the point
        values = [_scaled_value(rows[r.name], num, den) for r in reps]
        best = min(values)
        return [r for r, c in zip(reps, values) if c == best]

    def winner_at(a: Fraction, b: Fraction) -> Technique:
        # The sample is the gap's midpoint, num over twice the lcm of the
        # ends' denominators, not reduced. Move toward (never onto) the
        # right gap edge if the sample happens to hit a tangency tie; tie
        # points in the open gap are finite.
        den = lcm(a.denominator, b.denominator)
        num = a.numerator * (den // a.denominator) + b.numerator * (den // b.denominator)
        den *= 2
        while len(owners := min_owners(num, den)) > 1:
            point = (Fraction(num, den) + b) / 2
            num, den = point.numerator, point.denominator
        return owners[0]

    # gap k lies before cut k; one final gap follows the last cut
    gaps = zip([xlo] + [c.hi for c in cuts], [c.lo for c in cuts] + [xhi])
    winners = [winner_at(a, b) for a, b in gaps]

    def named(tied: set[str]) -> tuple[str, ...]:
        # aliases follow their representative; names stay in menu order
        return tuple(t.name for t in ts.techniques if rep_of[t.name] in tied)

    def exact_boundary(x: Fraction, owners: list[Technique]) -> Boundary:
        """The boundary at an exact cut x, whose tie set is owners, the
        representatives at the minimum cost there."""
        ties = named({r.name for r in owners})
        cost = analysis._tie_cost(owners[0].name, x)
        i = x - 1
        return Boundary(i, i, RootInterval(i, i, ODD), ties, cost, cost)

    def boundary_from(cut: _Cut, anchor: Technique) -> Boundary:
        """The boundary at a cut where the anchor is a cheapest technique.

        At an exact point the tie set is every technique at the minimum. In
        a bracket it is the anchor, the pairs the cut records, and any other
        representative whose difference with the anchor keeps a root in the
        bracket (an even tie at the cut, say)."""
        x = cut.exact
        if x is not None:
            return exact_boundary(x, min_owners(x.numerator, x.denominator))
        ties = named(
            {
                r.name
                for r in reps
                if r.name == anchor.name
                or frozenset((anchor.name, r.name)) in cut.pairs
                or _shares_root(
                    cut.f, analysis.difference(anchor.name, r.name), cut.lo, cut.hi
                )
            }
        )
        approx_x = _refine_ints(cut.f, cut.lo, cut.hi, APPROX_TOL)
        cert = RootInterval(cut.lo - 1, cut.hi - 1, ODD)
        cost = analysis._tie_cost(anchor.name, approx_x)
        return Boundary(None, approx_x - 1, cert, ties, None, cost)

    # a segment is a run of gaps with one winner, and a boundary is read
    # where the winner changes, so boundaries come in order
    boundaries: list[Boundary] = []
    starts, runs = [lo], [winners[0]]
    for cut, below, above in zip(cuts, winners, winners[1:]):
        if above is not below:
            boundaries.append(boundary_from(cut, below))
            starts.append(boundaries[-1].interest_approx)
            runs.append(above)
    # an exact cut on a domain edge is a boundary when two distinct profiles
    # share the minimum there; the left edge's goes first, the right's last
    for x in edges:
        owners = min_owners(x.numerator, x.denominator)
        if len(owners) > 1:
            boundaries.insert(0 if x == xlo else len(boundaries), exact_boundary(x, owners))
    segments = (
        Segment(a, b, w.name, tuple(aliases[w.name]))
        for a, b, w in zip(starts, starts[1:] + [hi], runs)
    )
    return DominanceMap((lo, hi), tuple(segments), tuple(boundaries), tuple(tangencies))


def detect_reswitching(
    ts: TechnologySet,
    lo: Fraction = DEFAULT_LO,
    hi: Fraction = DEFAULT_HI,
    *,
    analysis: Optional[MenuAnalysis] = None,
) -> ReswitchReport:
    """Dominance map plus recurrence verdict: does any technique win on two
    non-adjacent segments? `analysis` is handed to `dominance_map`."""
    dom = dominance_map(ts, lo, hi, analysis=analysis)
    # a segment opens only where the gap winner changes, so no two adjacent
    # segments share a winner and any repeated winner recurs
    winners = dom.winners
    recurring = next((w for k, w in enumerate(winners) if w in winners[:k]), None)
    return ReswitchReport(recurring is not None, recurring, dom, dom.tangencies)


def cost_ratio_curve(
    numerator: Technique,
    denominator: Technique,
    interest_grid: Sequence[Fraction],
) -> list[tuple[Fraction, Fraction]]:
    """Exact cost ratio numerator/denominator at each grid interest rate.

    The wage scales both costs alike, so the ratio is read at unit wage; a
    nonzero labor profile costs more than nothing at every rate above -100%.
    """
    return [
        (Fraction(i), numerator.cost_at(1, i) / denominator.cost_at(1, i))
        for i in interest_grid
    ]
