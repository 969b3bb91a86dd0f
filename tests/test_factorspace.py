import random
from collections import Counter
from fractions import Fraction as F
from itertools import zip_longest

import pytest

import reswitch.factorspace as factorspace
from oracles import (
    _poly_eval as _poly_value,
    bisect_root,
    equal_price_pairs,
    factor_grid,
    factor_space_violations,
    fraction_narrow,
    fraction_yun,
)
from reswitch import (
    DomainError,
    EVEN,
    FactorGroup,
    GeneratorConfig,
    MenuAnalysis,
    NoRootError,
    NonScalarComplementError,
    NotAggregableError,
    Polynomial,
    RootInterval,
    Technique,
    TechnologySet,
    aggregate_price,
    curve_minimum,
    generate_technology,
    interest_rates_for_relative_price,
    isolate_real_roots,
    isolate_roots_closed,
    leontief_sono_check,
    pairwise_switch_points,
    pairwise_tangencies,
    refine_root,
    relative_price_curve,
    samuelson_example,
    scalar_complement_lag,
    support_groups,
    symmetric_interest_pairs,
    verify_single_switch,
)
from reswitch.factorspace import aggregate_polynomial
from reswitch.switching import APPROX_TOL

TS = samuelson_example()
G13 = FactorGroup.of(1, 3)


class TestLeontiefSono:
    def test_champagne_grouping_aggregable(self):
        assert leontief_sono_check(TS, G13) is True

    def test_non_proportional_subvectors(self):
        ts = TechnologySet(
            [Technique("p", (1, 1, 5)), Technique("q", (2, 1, 5))]
        )
        assert leontief_sono_check(ts, FactorGroup.of(1, 2)) is False

    def test_single_technique_always_aggregable(self):
        ts = TechnologySet([Technique("only", (3, 1, 4))])
        assert leontief_sono_check(ts, FactorGroup.of(1, 3)) is True

    def test_zero_subvector_compatible(self):
        assert leontief_sono_check(TS, FactorGroup.of(3)) is True

    def test_group_must_be_proper(self):
        with pytest.raises(ValueError):
            leontief_sono_check(TS, FactorGroup.of(1, 2, 3))
        with pytest.raises(ValueError):
            leontief_sono_check(TS, FactorGroup.of(5))

    def test_order_and_scale_invariance(self):
        base = [Technique("p", (2, 0, 6)), Technique("q", (1, 0, 3))]
        g = FactorGroup.of(1, 3)
        assert leontief_sono_check(TechnologySet(base), g)
        assert leontief_sono_check(TechnologySet(list(reversed(base))), g)
        scaled = [Technique("p", (2, 0, 6)), Technique("q", (7, 0, 21))]
        assert leontief_sono_check(TechnologySet(scaled), g)


class TestAggregatePrice:
    def test_equals_group_owner_cost(self):
        for i in (F(0), F(1, 2), F(1)):
            fp = TS.factor_prices(i)
            assert aggregate_price(TS, G13, fp) == TS.get("b").cost_at(F(1), i)

    def test_known_values(self):
        assert aggregate_price(TS, G13, TS.factor_prices(F(1, 2))) == F(63, 4)
        assert aggregate_price(TS, G13, TS.factor_prices(F(0))) == 8
        assert aggregate_price(TS, G13, TS.factor_prices(F(1))) == 28

    def test_identity_over_random_rates(self):
        rng = random.Random(31)
        b = TS.get("b")
        for _ in range(60):
            i = F(rng.randint(0, 400), rng.randint(100, 200))
            fp = TS.factor_prices(i)
            assert aggregate_price(TS, G13, fp) == b.cost_at(F(1), i)

    def test_not_aggregable_raises(self):
        with pytest.raises(NotAggregableError):
            aggregate_price(TS, FactorGroup.of(1, 2), TS.factor_prices(F(1)))


class TestRelativePriceCurve:
    def test_table_rows(self):
        points = {
            p.interest: p
            for p in relative_price_curve(TS, G13, [F(1, 2), F(1, 4), F(0), F(1, 3)])
        }
        assert points[F(1, 2)].relative_price == 7
        assert points[F(1, 2)].cost_ratio == 1
        assert points[F(1, 4)].relative_price == F(73, 10)
        assert points[F(1, 4)].cost_ratio == F(73, 70)
        assert points[F(0)].relative_price == 8
        assert points[F(0)].cost_ratio == F(8, 7)
        assert points[F(1, 3)].relative_price == F(43, 6)
        assert points[F(1, 3)].cost_ratio == F(43, 42)

    def test_scalar_complement_found(self):
        assert scalar_complement_lag(TS, G13) == 2

    def test_non_scalar_complement(self):
        with pytest.raises(NonScalarComplementError):
            scalar_complement_lag(TS, FactorGroup.of(3))
        with pytest.raises(NonScalarComplementError):
            relative_price_curve(TS, FactorGroup.of(3), [F(0)])

    def test_collapse_identity_on_grid(self):
        # the algebraic heart: ratio == relative_price / 7 exactly everywhere
        grid = [F(k, 17) for k in range(0, 35)]
        for p in relative_price_curve(TS, G13, grid):
            assert p.cost_ratio * 7 == p.relative_price

    def test_matches_factor_price_definition(self):
        # F priced input by input over the complement rental, and the cost
        # ratio at the model wage, on a model whose curve is not the collapse
        ts = TechnologySet(
            [Technique("g", (F(3, 2), 0, F(5, 4))), Technique("h", (3, F(1, 3), F(5, 2)))],
            wage=F(5, 3),
        )
        group = FactorGroup.of(1, 3)
        grid = [F(-9, 10), F(-1, 3), F(0), F(2, 7), F(1), F(5, 2)]
        for point in relative_price_curve(ts, group, grid):
            fp = ts.factor_prices(point.interest)
            g, h = ts.techniques
            assert point.relative_price == aggregate_price(ts, group, fp) / fp.price_of_lag(2)
            assert point.cost_ratio == g.cost_at(ts.wage, point.interest) / h.cost_at(
                ts.wage, point.interest
            )
        with pytest.raises(DomainError):
            relative_price_curve(ts, group, [F(0), F(-1)])

    def test_wage_does_not_move_the_curve(self):
        waged = TechnologySet(list(TS.techniques), wage=F(5, 3))
        for a, b in zip(
            relative_price_curve(TS, G13, [F(1, 4), F(1)]),
            relative_price_curve(waged, G13, [F(1, 4), F(1)]),
        ):
            assert a.relative_price == b.relative_price
            assert a.cost_ratio == b.cost_ratio


class TestPreimages:
    def test_paper_pairs(self):
        roots = interest_rates_for_relative_price(TS, G13, F(73, 10))
        assert [r.lo for r in roots] == [F(1, 4), F(7, 5)]
        assert all(r.is_exact for r in roots)
        roots = interest_rates_for_relative_price(TS, G13, F(7))
        assert [r.lo for r in roots] == [F(1, 2), F(1)]
        roots = interest_rates_for_relative_price(TS, G13, F(8))
        assert [r.lo for r in roots] == [F(0), F(2)]

    def test_below_minimum_no_root(self):
        with pytest.raises(NoRootError):
            interest_rates_for_relative_price(TS, G13, F(69282, 10000))

    def test_just_above_minimum_two_roots(self):
        target = F(693, 100)
        roots = interest_rates_for_relative_price(TS, G13, target)
        assert len(roots) == 2
        # oracle: the cleared quadratic 2x^2 - t x + 6 via plain bisection
        lo_root = bisect_root(
            lambda x: 2 * x * x - target * x + 6, F(1, 1), F(173, 100), F(1, 10**10)
        )
        hi_root = bisect_root(
            lambda x: 2 * x * x - target * x + 6, F(174, 100), F(3), F(1, 10**10)
        )
        assert roots[0].lo < lo_root - 1 < roots[0].hi
        assert roots[1].lo < hi_root - 1 < roots[1].hi

    def test_preimage_multiplicity_above_minimum(self):
        # over the full admissible factor range (interest above -100%), any
        # rational level above the minimum is hit exactly twice
        for target in (F(7), F(73, 10), F(8), F(10), F(18)):
            roots = interest_rates_for_relative_price(
                TS, G13, target, F(-99, 100), F(20)
            )
            assert len(roots) == 2

    def test_switch_rates_share_one_relative_price(self):
        points = relative_price_curve(TS, G13, [F(1, 2), F(1)])
        assert points[0].relative_price == points[1].relative_price == 7


class TestCurveMinimum:
    def test_champagne_minimum(self):
        m = curve_minimum(TS, G13)
        sqrt3 = bisect_root(lambda x: x * x - 3, F(1), F(2), F(1, 10**12))
        assert abs(m.interest - (sqrt3 - 1)) < F(1, 10**9)
        assert abs(m.relative_price - 4 * sqrt3) < F(1, 10**9)
        assert abs(m.cost_ratio - 4 * sqrt3 / 7) < F(1, 10**9)

    def test_certified_against_discriminant(self):
        # the minimum level is where 2x^2 - rho x + 6 acquires a double root:
        # the positive root of rho^2 - 48
        m = curve_minimum(TS, G13)
        disc = Polynomial([-48, 0, 1])
        (root,) = isolate_real_roots(disc, F(0), None)
        rho_star = refine_root(root, disc, F(1, 10**6))
        assert abs(m.relative_price - rho_star) <= F(2, 10**6)

    def test_monotone_curve_has_no_interior_minimum(self):
        ts = TechnologySet([Technique("s", (1, 0, 0)), Technique("w", (0, 0, 3))])
        g = FactorGroup.of(3)
        assert curve_minimum(ts, g, F(0), F(2)) is None


class TestSymmetricPairs:
    def test_pairs_share_price_and_ratio(self):
        pairs = symmetric_interest_pairs(TS, G13, 110)
        assert len(pairs) >= 100
        for i1, i2 in pairs:
            assert i1 != i2
            p1 = relative_price_curve(TS, G13, [i1])[0]
            p2 = relative_price_curve(TS, G13, [i2])[0]
            assert p1.relative_price == p2.relative_price
            assert p1.cost_ratio == p2.cost_ratio
            assert (1 + i1) * (1 + i2) == 3

    def test_no_construction_for_asymmetric_supports(self):
        ts = TechnologySet([Technique("s", (0, 5, 0, 0)), Technique("w", (3, 0, 0, 1))])
        assert symmetric_interest_pairs(ts, FactorGroup.of(1, 4), 10) == []

    def test_empty_domain_gives_no_pairs(self):
        # hi = -1 puts the domain's upper end at x = 0, which no pair divides by
        assert symmetric_interest_pairs(TS, G13, 5, F(-1, 2), F(-1)) == []
        assert symmetric_interest_pairs(TS, G13, 5, F(1), F(1, 2)) == []


class TestDomainStart:
    """A domain start at or below -100% leaves x = 1 + i non-positive; each
    routine rejects it when called, not when a result is read."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: curve_minimum(TS, G13, F(-1)),
            lambda: symmetric_interest_pairs(TS, G13, 5, F(-1)),
            lambda: symmetric_interest_pairs(TS, G13, 5, F(-3, 2), F(-1)),
            lambda: verify_single_switch(TS, G13, F(-2)),
            lambda: interest_rates_for_relative_price(TS, G13, F(7), F(-1)),
        ],
        ids=["curve_minimum", "pairs", "pairs_below", "verify", "preimages"],
    )
    def test_rejected_when_called(self, call):
        with pytest.raises(DomainError, match="is at or below -100%"):
            call()

    @pytest.mark.parametrize("lo", [F(-1), F(-3, 2), -2])
    def test_same_message_as_a_menu_analysis(self, lo):
        # both read the one domain-start check in switching
        with pytest.raises(DomainError) as menu_err:
            MenuAnalysis(TS, lo)
        with pytest.raises(DomainError) as curve_err:
            curve_minimum(TS, G13, lo)
        message = f"domain start {lo} is at or below -100%"
        assert str(curve_err.value) == str(menu_err.value) == message


class TestVerifySingleSwitch:
    def test_champagne_verdict(self):
        v = verify_single_switch(TS, G13)
        assert v.aggregable and v.single_switch is True
        assert v.counterexample is None and v.reason is None
        assert v.crossing.relative_price == 7
        assert [r.lo for r in v.crossing.interest_preimages] == [F(1, 2), F(1)]
        assert all(r.is_exact for r in v.crossing.interest_preimages)

    def test_crossing_isolated_once_on_first_read(self, monkeypatch):
        calls = []
        original = factorspace.isolate_roots_closed

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(factorspace, "isolate_roots_closed", counting)
        v = verify_single_switch(samuelson_example(), G13)
        assert v.single_switch is True and calls == []
        first = v.crossing
        assert v.crossing is first
        assert len(calls) == 1
        assert first.interest_approx == (F(1, 2), F(1))

    def test_irrational_preimages_refined(self):
        # F - 8 x^2 = x (2x^2 - 8x + 7): preimages 1 -+ sqrt(1/2)
        ts = TechnologySet([Technique("a", (0, 8, 0)), Technique("b", (7, 0, 2))])
        crossing = verify_single_switch(ts, G13).crossing
        assert crossing.relative_price == 8
        assert len(crossing.interest_preimages) == 2
        for iv, approx in zip(crossing.interest_preimages, crossing.interest_approx):
            assert not iv.is_exact and iv.lo < approx < iv.hi
            below, above = approx - F(1, 10**9) - 1, approx + F(1, 10**9) - 1
            assert (below * below - F(1, 2)) * (above * above - F(1, 2)) < 0

    def test_overlapping_supports_unmet(self):
        ts = TechnologySet([Technique("a", (1, 1)), Technique("b", (2, 2))])
        v = verify_single_switch(ts, FactorGroup.of(1))
        assert v.single_switch is None
        assert v.reason is not None

    def test_group_not_a_support_unmet(self):
        v = verify_single_switch(TS, FactorGroup.of(3))
        assert v.single_switch is None

    def test_non_scalar_complement_unmet(self):
        ts = TechnologySet(
            [Technique("a", (0, 5, 0, 0)), Technique("b", (3, 0, 2, 1))]
        )
        v = verify_single_switch(ts, FactorGroup.of(2))
        assert v.single_switch is None
        assert "scalar" in v.reason

    def test_random_disjoint_verifiable_pairs(self):
        rng = random.Random(606)
        verified = 0
        for _ in range(40):
            horizon = rng.randint(3, 6)
            mid = rng.randint(2, horizon - 1)
            below = rng.randint(1, mid - 1)
            above = rng.randint(mid + 1, horizon)
            single = [F(0)] * horizon
            single[mid - 1] = F(rng.randint(1, 10), rng.choice((1, 2)))
            owner = [F(0)] * horizon
            owner[below - 1] = F(rng.randint(1, 10), rng.choice((1, 2)))
            owner[above - 1] = F(rng.randint(1, 10), rng.choice((1, 2)))
            ts = TechnologySet([Technique("a", single), Technique("b", owner)])
            v = verify_single_switch(ts, FactorGroup.of(below, above))
            assert v.single_switch is True
            assert factor_space_violations([single, owner], (below, above), mid) == []
            verified += 1
        assert verified == 40

    def test_support_groups_enumeration(self):
        groups = {tuple(sorted(g.lags)) for g in support_groups(TS)}
        assert groups == {(2,), (1, 3)}

    def test_not_two_techniques_unmet(self):
        three = TechnologySet([*TS.techniques, Technique("c", (1, 0, 0))])
        for ts in (three, TechnologySet([TS.get("b")])):
            v = verify_single_switch(ts, G13)
            assert (v.aggregable, v.single_switch, v.counterexample) == (False, None, None)
            assert v.reason == "needs exactly two techniques"
            assert v.pair == ts.names and v.crossing is None

    @pytest.mark.parametrize(
        "lags, reason",
        [
            ((4,), "group lags '4' outside horizon 1..3"),
            ((0, 2), "group lags '0,2' outside horizon 1..3"),
            ((1, 2, 3), "factor group must be a proper subset of the lags"),
            ((), "factor group must be nonempty"),
        ],
    )
    def test_bad_group_unmet(self, lags, reason):
        v = verify_single_switch(TS, FactorGroup.of(*lags))
        assert (v.aggregable, v.single_switch, v.reason) == (False, None, reason)
        assert v.crossing is None

    def test_price_aggregation_check_fails_unmet(self):
        ts = TechnologySet([Technique("p", (1, 1, 5)), Technique("q", (2, 1, 5))])
        v = verify_single_switch(ts, FactorGroup.of(1, 2))
        assert (v.aggregable, v.single_switch, v.counterexample) == (False, None, None)
        assert v.reason == "group fails the price-aggregation check"
        assert v.crossing is None

    def test_verdict_builds_no_polynomial_until_crossing_read(self, monkeypatch):
        built, costed = [], []
        init, cost = Polynomial.__init__, Technique.cost_polynomial

        def counting_init(self, coeffs=()):
            built.append(coeffs)
            init(self, coeffs)

        def counting_cost(self, wage=F(1)):
            costed.append(self.name)
            return cost(self, wage)

        monkeypatch.setattr(Polynomial, "__init__", counting_init)
        monkeypatch.setattr(Technique, "cost_polynomial", counting_cost)
        cfg = GeneratorConfig(seed=5, trials=40)
        verdicts = [verify_single_switch(TS, G13)] + [
            verify_single_switch(ts, group)
            for ts in [generate_technology(cfg, k) for k in range(cfg.trials)]
            for group in support_groups(ts)
        ]
        assert sum(v.single_switch is True for v in verdicts) >= 30
        assert built == [] and costed == []
        assert verdicts[0].crossing.relative_price == 7
        assert built and costed == []

    def test_seeded_verdicts_match_public_oracle(self):
        rng = random.Random(1717)
        domains = [(F(0), F(2)), (F(-1, 2), F(1)), (F(1, 3), F(5)), (F(3, 2), F(2))]
        seen = Counter()
        cfgs = [
            GeneratorConfig(seed=11, trials=150),
            GeneratorConfig(seed=12, trials=150, structure="free", horizon_max=6),
        ]
        for cfg in cfgs:
            for k in range(cfg.trials):
                ts = generate_technology(cfg, k)
                if k % 20 == 0:  # one technique alone
                    ts = TechnologySet(ts.techniques[:1])
                elif k % 10 == 0:  # a third technique, one lag longer
                    labor = [F(rng.randint(0, 3)) for _ in range(ts.horizon)] + [F(1)]
                    ts = TechnologySet([*ts.techniques, Technique("c", labor)])
                groups = support_groups(ts) + [
                    FactorGroup.of(*rng.sample(range(0, ts.horizon + 2), rng.randint(1, 3)))
                ]
                lo, hi = rng.choice(domains)
                for group in groups:
                    v = verify_single_switch(ts, group, lo, hi)
                    expected = _verdict_oracle(ts, group, lo, hi)
                    assert _verdict_record(v) == expected, (cfg.structure, k, sorted(group.lags))
                    seen[" ".join(v.reason.split()[:2]) if v.reason else v.single_switch] += 1
                    seen["crossing"] += expected[-1] is not None
        assert seen[True] >= 120 and seen["crossing"] >= 50, seen
        for kind in ("needs exactly", "group lags", "group fails", "technique supports",
                     "group must", "complement of"):
            assert seen[kind] >= 20, (kind, seen)


class TestCrossingAtTies:
    """The theorem's one factor-price crossing is where the cost ratio is 1,
    so its interest preimages are the pair's ties on the interest axis: the
    champagne switches at 50% and 100% are the two preimages of relative
    price 7."""

    def test_champagne_switches_are_the_crossings_preimages(self):
        crossing = verify_single_switch(TS, G13).crossing
        assert crossing.relative_price == 7
        points = pairwise_switch_points(*TS.techniques)
        assert [r.lo for r in crossing.interest_preimages] == [F(1, 2), F(1)]
        assert [p.interest_exact for p in points] == [F(1, 2), F(1)]

    def test_verified_preimages_match_switch_points_and_tangencies(self):
        domains = [(F(0), F(2)), (F(-1, 2), F(3, 2)), (F(1, 4), F(4))]
        cfgs = [
            GeneratorConfig(seed=21, trials=200),
            GeneratorConfig(seed=22, trials=400, structure="free"),
        ]
        # costs touching without crossing: x (x - 3/2)**2 at i = 1/2, and
        # x (x**2 - 2)**2 at i = sqrt(2) - 1
        tangent = [
            TechnologySet([Technique("o", (F(9, 4), 0, 1)), Technique("s", (0, 3, 0))]),
            TechnologySet([Technique("o", (4, 0, 0, 0, 1)), Technique("s", (0, 0, 4, 0, 0))]),
        ]
        menus = [generate_technology(cfg, k) for cfg in cfgs for k in range(cfg.trials)]
        seen = Counter()
        for ts in menus + tangent:
            for group in support_groups(ts):
                for lo, hi in domains:
                    v = verify_single_switch(ts, group, lo, hi)
                    if v.single_switch is not True:
                        continue
                    seen["verified"] += 1
                    ties = [
                        (p.certificate, p.interest_approx)
                        for p in pairwise_switch_points(*ts.techniques, lo, hi)
                    ] + [
                        (t.certificate, t.interest_approx)
                        for t in pairwise_tangencies(*ts.techniques, lo, hi)
                    ]
                    ties.sort(key=lambda tie: tie[0].lo)
                    crossing = v.crossing
                    if crossing is None:
                        assert ties == [], (ts, lo, hi)
                        continue
                    found = list(zip(crossing.interest_preimages, crossing.interest_approx))
                    assert len(found) == len(ties), (ts, lo, hi)
                    for (r, approx), (c, tie_approx) in zip(found, ties):
                        assert r.parity == c.parity
                        if r.is_exact or c.is_exact:
                            assert (r.lo, r.hi) == (c.lo, c.hi)
                            seen["exact"] += 1
                        else:
                            assert r.lo < c.hi and c.lo < r.hi
                            assert abs(approx - tie_approx) <= 2 * APPROX_TOL
                            seen["bracket"] += 1
                        seen[r.parity] += 1
        assert seen["verified"] >= 750 and seen["exact"] >= 400, seen
        assert seen["bracket"] >= 140 and seen[EVEN] >= 6, seen


def _verdict_record(v):
    crossing = v.crossing
    if crossing is not None:
        crossing = (crossing.relative_price, crossing.interest_preimages, crossing.interest_approx)
    return (v.pair, v.aggregable, v.single_switch, v.counterexample, v.reason, crossing)


def _verdict_oracle(ts, group, lo, hi):
    """The verdict rebuilt from the public precondition checks, the collapse
    identity on cost polynomials, and the crossing as the tie points of the
    two unit-wage cost curves in [lo, hi]."""
    names = ts.names
    if len(ts) != 2:
        return (names, False, None, None, "needs exactly two techniques", None)
    try:
        aggregable = leontief_sono_check(ts, group)
    except ValueError as exc:
        return (names, False, None, None, str(exc), None)
    if not aggregable:
        return (names, False, None, None, "group fails the price-aggregation check", None)
    a, b = ts.techniques
    sa, sb = set(a.support), set(b.support)
    if sa & sb:
        return (names, True, None, None, "technique supports are not disjoint", None)
    if set(group.lags) not in (sa, sb):
        reason = "group must equal the positive support of one technique"
        return (names, True, None, None, reason, None)
    try:
        lag = scalar_complement_lag(ts, group)
    except NonScalarComplementError as exc:
        return (names, True, None, None, str(exc), None)
    owner, other = (a, b) if sa == set(group.lags) else (b, a)
    assert FactorGroup(frozenset(owner.support)) in support_groups(ts)
    coeff = other.lag(lag)
    unit = F(1)
    owner_cost, other_cost = owner.cost_polynomial(unit), other.cost_polynomial(unit)
    assert owner_cost == aggregate_polynomial(ts, group)
    assert other_cost == Polynomial([0] * lag + [coeff])
    d = Polynomial(
        a - b for a, b in zip_longest(owner_cost.coeffs, other_cost.coeffs, fillvalue=0)
    )
    roots = isolate_roots_closed(d, 1 + lo, 1 + hi)
    crossing = None
    if roots:
        preimages = tuple(RootInterval(r.lo - 1, r.hi - 1, r.parity) for r in roots)
        approx = tuple(
            r.lo if r.is_exact else _narrowed_midpoint(d.coeffs, r.lo + 1, r.hi + 1) - 1
            for r in preimages
        )
        crossing = (coeff, preimages, approx)
    return (names, True, True, None, None, crossing)


def _complement_lag(labors, group_lags):
    """The one positive lag outside the group, read off the raw vectors."""
    (lag,) = {
        t
        for labor in labors
        for t, v in enumerate(labor, start=1)
        if v > 0 and t not in group_lags
    }
    return lag


def _grid_oracle(ts, group):
    labors = [t.labor for t in ts.techniques]
    lag = _complement_lag(labors, group.lags)
    return factor_space_violations(labors, group.lags, lag)


def _has_equal_price_pairs(ts, group):
    lag = _complement_lag([t.labor for t in ts.techniques], group.lags)
    (owner,) = [t for t in ts.techniques if set(t.support) == group.lags]
    bundle = {t: owner.lag(t) for t in group.lags}
    return bool(equal_price_pairs(bundle, lag, factor_grid()))


class TestGridOracle:
    """The exact-grid re-check of the single switch lives here, outside the
    library: every verified model must also pass it."""

    def test_champagne(self):
        assert verify_single_switch(TS, G13).single_switch is True
        assert _grid_oracle(TS, G13) == []
        assert len(equal_price_pairs({1: F(6), 3: F(2)}, 2, factor_grid())) == 41

    def test_symmetric_lag_family(self):
        # owner lags c-a and c+a with coefficient ratio r**a: equal-price
        # pairs x * x' = r are rational, so the pair check always runs
        for a, c, r, k, m in [
            (1, 2, F(3), F(2), F(7)),
            (1, 3, F(9, 4), F(1, 2), F(5)),
            (2, 3, F(2), F(3), F(11, 2)),
            (1, 4, F(5, 2), F(4), F(1, 4)),
        ]:
            owner = [F(0)] * (c + a)
            owner[c - a - 1] = k * r**a
            owner[c + a - 1] = k
            single = [F(0)] * (c + a)
            single[c - 1] = m
            ts = TechnologySet([Technique("s", single), Technique("o", owner)])
            group = FactorGroup.of(c - a, c + a)
            assert verify_single_switch(ts, group).single_switch is True
            assert _grid_oracle(ts, group) == []
            assert _has_equal_price_pairs(ts, group)

    def test_every_verified_falsify_model(self):
        cfg = GeneratorConfig(seed=1, trials=300)
        verified = paired = 0
        for idx in range(cfg.trials):
            ts = generate_technology(cfg, idx)
            for group in support_groups(ts):
                v = verify_single_switch(ts, group, cfg.domain_lo, cfg.domain_hi)
                if v.single_switch is not True:
                    continue
                assert _grid_oracle(ts, group) == [], (idx, sorted(group.lags))
                verified += 1
                paired += _has_equal_price_pairs(ts, group)
        assert verified > 250 and paired > 100

    def test_oracle_catches_broken_models(self):
        # the other technique uses two lags, so the ratio is not a function
        # of the relative price: the collapse and the equal-price pairs fail
        broken = factor_space_violations([(6, 0, 2), (1, 7, 0)], (1, 3), 2)
        assert any(m.startswith("collapse fails") for m in broken)
        assert any(m.endswith("unequal ratios") for m in broken)
        # a negative complement coefficient keeps the collapse but reverses
        # the direction, which only the monotone scan sees
        reversed_ = factor_space_violations([(0, -7, 0), (6, 0, 2)], (1, 3), 2)
        assert reversed_ and all("not increasing" in m for m in reversed_)


def _narrowed_midpoint(coeffs, lo, hi):
    """The midpoint of the first bracket narrower than APPROX_TOL, bisecting
    the polynomial, or its square-free part at an even root."""
    odd = _poly_value(coeffs, lo) * _poly_value(coeffs, hi) < 0
    s = coeffs if odd else fraction_yun(coeffs)[0]
    a, b = fraction_narrow(s, lo, hi, lambda a, b: b - a >= APPROX_TOL)
    return (a + b) / 2
