import contextlib
import gc
import io
import random
import time
import weakref
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, groupby, permutations
from pathlib import Path

import pytest

from oracles import (
    bisect_root,
    cheapest_at,
    cheapest_changes,
    cheapest_names,
    fraction_gcd,
    fraction_sturm_count,
    grid_mismatches,
    int_product,
)
import reswitch.cli as cli
import reswitch.harness as harness
import reswitch.polynomial as polynomial
import reswitch.switching as switching
from reswitch import (
    DominanceMap,
    DomainError,
    IdenticalTechniquesError,
    MenuAnalysis,
    ModelFormatError,
    Polynomial,
    Segment,
    Technique,
    TechnologySet,
    cost_ratio_curve,
    detect_reswitching,
    dominance_map,
    pairwise_switch_points,
    pairwise_tangencies,
    samuelson_example,
)

DATA = Path(__file__).parent / "data"

A = Technique("a", (0, 7, 0))
B = Technique("b", (6, 0, 2))


class TestPairwiseSwitchPoints:
    def test_champagne_pair(self):
        points = pairwise_switch_points(A, B)
        assert [(p.interest_exact, p.tie_cost_exact) for p in points] == [
            (F(1, 2), F(63, 4)),
            (F(1), F(28)),
        ]
        assert (points[0].cheaper_below, points[0].cheaper_above) == ("a", "b")
        assert (points[1].cheaper_below, points[1].cheaper_above) == ("b", "a")

    def test_one_lag_pair_never_ties(self):
        assert pairwise_switch_points(Technique("a", (1,)), Technique("b", (2,))) == []

    def test_identical_techniques_error(self):
        with pytest.raises(IdenticalTechniquesError):
            pairwise_switch_points(A, Technique("copy", (0, 7, 0)))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: pairwise_switch_points(A, B, wage=-1), "wage must be positive"),
            (lambda: pairwise_switch_points(A, B, wage=0), "wage must be positive"),
            (lambda: pairwise_switch_points(A, Technique("a", (6, 0, 2))), "unique"),
            (lambda: pairwise_tangencies(A, Technique("a", (6, 0, 2))), "unique"),
        ],
        ids=["negative_wage", "zero_wage", "one_name", "tangencies_one_name"],
    )
    def test_bad_input_rejected_as_on_a_menu(self, call, message):
        # a pair is read as a two-technique menu, so the menu's checks hold
        with pytest.raises(ModelFormatError, match=message):
            call()

    @pytest.mark.parametrize(
        "lo, hi",
        [(F(0), F(2)), (F(1, 2), F(2)), (F(-1, 2), F(1, 2))],
        ids=["inside", "lower_edge", "upper_edge"],
    )
    def test_triple_tie_sides_match_costs(self, lo, hi):
        # cost_u - cost_v = x (2x - 3)^3: an exact tie of multiplicity 3 at 50%
        u, v = Technique("u", (0, 54, 0, 8)), Technique("v", (27, 0, 36, 0))
        half, step = F(1, 2), F(1, 100)
        for a, b in ((u, v), (v, u)):
            (point,) = pairwise_switch_points(a, b, lo, hi)
            assert point.interest_exact == half and point.certificate.parity == "odd"
            below = min((a, b), key=lambda t: t.cost_at(F(1), half - step))
            above = min((a, b), key=lambda t: t.cost_at(F(1), half + step))
            assert (point.cheaper_below, point.cheaper_above) == (below.name, above.name)
            assert point.tie_cost_exact == a.cost_at(F(1), half) == b.cost_at(F(1), half)

    def test_wage_invariance(self):
        for wage in (F(1), F(3), F(2, 7)):
            points = pairwise_switch_points(A, B, wage=wage)
            assert [p.interest_exact for p in points] == [F(1, 2), F(1)]
            assert points[0].tie_cost_exact == wage * F(63, 4)

    def test_exchange_antisymmetry(self):
        fwd = pairwise_switch_points(A, B)
        rev = pairwise_switch_points(B, A)
        assert [p.interest_exact for p in fwd] == [p.interest_exact for p in rev]
        for f, r in zip(fwd, rev):
            assert (f.cheaper_below, f.cheaper_above) == (r.cheaper_below, r.cheaper_above)

    def test_irrational_switch_certificate(self):
        # 4x^2 vs 2x + x^3 tie at x = 2 +/- sqrt(2); only x = 2 + sqrt(2) has i >= 0
        u = Technique("u", (0, 4, 0))
        v = Technique("v", (2, 0, 1))
        (point,) = pairwise_switch_points(u, v, F(0), F(3))
        assert point.interest_exact is None
        target = bisect_root(
            lambda x: 4 * x * x - 2 * x - x**3, F(3), F(4), F(1, 10**12)
        )
        assert abs(point.interest_approx - (target - 1)) < F(1, 10**8)
        cert = point.certificate
        assert cert.lo < target - 1 < cert.hi

    def test_random_pairs_match_grid_scan(self):
        rng = random.Random(77)
        for _ in range(12):
            horizon = rng.randint(2, 6)
            la = [F(rng.randint(0, 10)) for _ in range(horizon)]
            lb = [F(rng.randint(0, 10)) for _ in range(horizon)]
            if all(v == 0 for v in la):
                la[0] = F(1)
            if all(v == 0 for v in lb):
                lb[-1] = F(1)
            if la == lb:
                lb[0] += 1
            ta, tb = Technique("a", la), Technique("b", lb)
            if ta.cost_at(F(1), F(0)) == tb.cost_at(F(1), F(0)):
                continue  # tie on the domain edge is invisible to the scan
            try:
                points = pairwise_switch_points(ta, tb, F(0), F(3))
            except IdenticalTechniquesError:
                continue
            tangs = pairwise_tangencies(ta, tb, F(0), F(3))

            # dense scan of the cost difference: step 1/1000 over [0, 3]
            grid_ties = set()
            brackets = []
            prev_sign = None
            prev_at = None
            skip_next_flip = False
            for k in range(0, 3001):
                i = F(k, 1000)
                diff = ta.cost_at(F(1), i) - tb.cost_at(F(1), i)
                sign = 0 if diff == 0 else (1 if diff > 0 else -1)
                if sign == 0:
                    grid_ties.add(i)
                    skip_next_flip = True
                    continue
                if prev_sign is not None and sign != prev_sign and not skip_next_flip:
                    brackets.append((prev_at, i))
                prev_sign, prev_at = sign, i
                skip_next_flip = False

            def on_grid(value):
                return value is not None and (value * 1000).denominator == 1

            package_grid_ties = {
                p.interest_exact
                for p in list(points) + list(tangs)
                if on_grid(p.interest_exact)
            }
            assert grid_ties == package_grid_ties
            off_grid_odd = [p for p in points if not on_grid(p.interest_exact)]
            assert len(brackets) == len(off_grid_odd)
            for (glo, ghi), p in zip(brackets, off_grid_odd):
                assert glo < p.interest_approx < ghi


class TestTangencies:
    def test_touch_without_crossing(self):
        # x^3 + 4x vs 4x^2: difference x(x-2)^2 touches at i = 1
        u = Technique("u", (4, 0, 1))
        v = Technique("v", (0, 4, 0))
        assert pairwise_switch_points(u, v, F(0), F(2)) == []
        (tang,) = pairwise_tangencies(u, v, F(0), F(2))
        assert tang.interest_exact == 1
        assert tang.certificate.parity == "even"

    def test_dominance_ignores_tangency(self):
        ts = TechnologySet([Technique("u", (4, 0, 1)), Technique("v", (0, 4, 0))])
        dom = dominance_map(ts, F(0), F(2))
        assert dom.winners == ("v",)
        assert dom.boundaries == ()
        report = detect_reswitching(ts, F(0), F(2))
        assert not report.reswitching
        assert len(report.tangencies) == 1

    def test_exact_tie_multiplicity_decides_switch_or_tangency(self):
        # cost_a - cost_b = x (x^2 + 1) (den x - num)^m: a tie at x = num/den
        # of odd multiplicity m switches, with sides read off the costs just
        # below and above it; of even m it is a tangency
        eps = F(1, 1000)
        for m in range(1, 7):
            for x in (F(3, 2), F(2), F(7, 3)):
                diff = int_product([[1, 0, 1]] + [[-x.numerator, x.denominator]] * m)
                a = Technique("a", [max(c, 0) for c in diff])
                b = Technique("b", [max(-c, 0) for c in diff])
                i = x - 1
                for u, v in ((a, b), (b, a)):
                    points = pairwise_switch_points(u, v)
                    tangencies = pairwise_tangencies(u, v)
                    if m % 2 == 0:
                        assert points == []
                        (tang,) = tangencies
                        assert tang.interest_exact == i
                        assert tang.certificate.parity == "even"
                        continue
                    assert tangencies == []
                    (point,) = points
                    assert point.interest_exact == i
                    assert point.certificate.parity == "odd"
                    below = min((u, v), key=lambda t: t.cost_at(F(1), i - eps))
                    above = min((u, v), key=lambda t: t.cost_at(F(1), i + eps))
                    assert below != above
                    assert (point.cheaper_below, point.cheaper_above) == (below.name, above.name)
                    assert point.tie_cost_exact == u.cost_at(F(1), i) == v.cost_at(F(1), i)


class TestDominance:
    def test_champagne_reswitch_map(self):
        dom = dominance_map(samuelson_example(), F(0), F(3, 2))
        assert dom.winners == ("a", "b", "a")
        assert [(s.lo, s.hi) for s in dom.segments] == [
            (0, F(1, 2)),
            (F(1, 2), 1),
            (1, F(3, 2)),
        ]
        assert [b.interest_exact for b in dom.boundaries] == [F(1, 2), F(1)]
        assert all(set(b.ties) == {"a", "b"} for b in dom.boundaries)

    def test_single_technique(self):
        # one profile has no pairs, so no cuts: one gap, one segment
        for clones in ((), ("a2", "a3")):
            ts = TechnologySet([A] + [Technique(name, A.labor) for name in clones])
            for lo, hi in ((F(0), F(2)), (F(1, 2), F(1)), (F(-1, 2), F(3))):
                dom = dominance_map(ts, lo, hi)
                assert dom == DominanceMap((lo, hi), (Segment(lo, hi, "a", clones),), ())

    def test_exact_cuts_on_both_edges(self):
        # the champagne pair ties at 50% and 100%, the two domain edges;
        # the dearer c does not hide either boundary
        ts = TechnologySet([A, B, Technique("c", (9, 9, 9))])
        dom = dominance_map(ts, F(1, 2), F(1))
        assert dom.segments == (Segment(F(1, 2), F(1), "b"),)
        assert [b.interest_exact for b in dom.boundaries] == [F(1, 2), F(1)]
        assert all(b.ties == ("a", "b") for b in dom.boundaries)

    def test_dominated_technique_never_wins(self):
        fat = Technique("fat", tuple(x + y for x, y in zip(A.labor, B.labor)))
        ts = TechnologySet([A, B, fat])
        dom = dominance_map(ts, F(0), F(3, 2))
        assert "fat" not in dom.winners
        assert dom.winners == ("a", "b", "a")

    def test_identical_pair_merges(self):
        ts = TechnologySet([A, Technique("clone", (0, 7, 0))])
        dom = dominance_map(ts, F(0), F(2))
        assert dom.winners == ("a",)
        assert dom.segments[0].co_winners == ("clone",)

    def test_three_way_tie_at_boundary(self):
        # the midpoint profile ties exactly wherever a and b tie
        mid = Technique("mid", (3, F(7, 2), 1))
        ts = TechnologySet([A, B, mid])
        dom = dominance_map(ts, F(0), F(3, 2))
        assert dom.winners == ("a", "b", "a")
        assert all(set(b.ties) == {"a", "b", "mid"} for b in dom.boundaries)

    def test_three_way_tie_at_irrational_boundaries(self):
        # a and b cross at x = 2 -+ sqrt(2)/2; mid is their average and the
        # clone repeats a, so all four tie at both boundaries
        ts = TechnologySet(
            [
                Technique("a", (0, 8, 0)),
                Technique("b", (7, 0, 2)),
                Technique("mid", (F(7, 2), 4, 1)),
                Technique("clone", (0, 8, 0)),
            ]
        )
        dom = dominance_map(ts, F(0), F(2))
        assert dom.winners == ("a", "b", "a")
        assert len(dom.boundaries) == 2
        for boundary in dom.boundaries:
            assert boundary.interest_exact is None
            assert set(boundary.ties) == {"a", "b", "mid", "clone"}

    def test_tie_sets_read_from_the_cuts(self, monkeypatch):
        # the pair's two cuts are distinct roots of its own difference, and
        # each boundary's tie is the pair the cut records: no gcd at all
        calls = []
        original = switching._primitive_gcd

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(switching, "_primitive_gcd", counting)
        ts = TechnologySet([Technique("a", (0, 8, 0)), Technique("b", (7, 0, 2))])
        dom = dominance_map(ts, F(0), F(2))
        assert [set(b.ties) for b in dom.boundaries] == [{"a", "b"}, {"a", "b"}]
        assert calls == []

    def test_even_tie_at_a_cut_joins_the_tie_set(self):
        # c - a = x (2x^2 - 8x + 7)^2 / 14 touches zero where a and b cross,
        # so c ties a there without crossing it; only a gcd test sees that
        dom = dominance_map(_even_tie_menu(), F(0), F(2))
        assert dom.winners == ("a", "b", "a")
        assert [t.pair for t in dom.tangencies] == [("a", "c"), ("a", "c")]
        assert [set(b.ties) for b in dom.boundaries] == [{"a", "b", "c"}] * 2

    def test_even_tie_at_an_exact_switch_point(self):
        # c - a = 2x (x - 3/2)^2 touches zero where a and b cross at 50%,
        # and c - b = x (x - 3/2) crosses there too
        ts = TechnologySet([A, B, Technique("c", (F(9, 2), 1, 2))])
        dom = dominance_map(ts, F(0), F(2))
        assert dom.winners == ("a", "b", "a")
        assert [(b.interest_exact, b.ties) for b in dom.boundaries] == [
            (F(1, 2), ("a", "b", "c")),
            (F(1), ("a", "b")),
        ]

    def test_clone_of_the_cheapest_adds_no_edge_boundary(self):
        # b and c, both dearer than a everywhere, cross exactly at the
        # domain's lower edge; a clone of a is not a second competitor there
        a, b, c = (
            Technique("a", (1, F(1, 2))),
            Technique("b", (1, 2)),
            Technique("c", (2, 1)),
        )
        with_clone = dominance_map(
            TechnologySet([a, Technique("a2", (1, F(1, 2))), b, c]), F(0), F(2)
        )
        without = dominance_map(TechnologySet([a, b, c]), F(0), F(2))
        assert with_clone.boundaries == without.boundaries == ()
        assert with_clone.segments == (Segment(F(0), F(2), "a", ("a2",)),)
        assert without.segments == (Segment(F(0), F(2), "a"),)

    def test_separated_cuts_are_disjoint_and_off_exact_points(self, monkeypatch):
        # menus of random profiles plus midpoint profiles, which tie three
        # ways wherever their two parents tie, exact or irrational
        rng = random.Random(2024)
        original = switching._merge_or_separate
        seen = {"exact": 0, "bracket": 0, "merged": 0}

        def checked(cuts):
            out = original(cuts)
            for ci, cj in combinations(out, 2):
                assert ci.hi < cj.lo or cj.hi < ci.lo
            points = [c.exact for c in out if c.exact is not None]
            for c in out:
                if c.exact is None:
                    assert not any(c.lo <= e <= c.hi for e in points)
            seen["exact"] += len(points)
            seen["bracket"] += len(out) - len(points)
            seen["merged"] += sum(len(c.pairs) > 1 for c in out if c.exact is None)
            return out

        monkeypatch.setattr(switching, "_merge_or_separate", checked)
        for _ in range(12):
            horizon, size = rng.randint(2, 4), rng.randint(3, 5)
            profiles = []
            while len(profiles) < size:
                prof = tuple(F(rng.randint(0, 8)) for _ in range(horizon))
                if any(prof) and prof not in profiles:
                    profiles.append(prof)
            u, v = profiles[0], profiles[1]
            profiles.append(tuple((p + q) / 2 for p, q in zip(u, v)))
            techs = [Technique(f"t{k}", prof) for k, prof in enumerate(profiles)]
            dominance_map(TechnologySet(techs), F(0), F(3))
        # 16 techniques, four of them midpoints, so that the sweep merges
        for _ in range(4):
            horizon = rng.randint(3, 5)
            profiles = []
            while len(profiles) < 12:
                prof = tuple(F(rng.randint(0, 8)) for _ in range(horizon))
                if any(prof) and prof not in profiles:
                    profiles.append(prof)
            for _ in range(4):
                u, v = rng.sample(profiles[:12], 2)
                profiles.append(tuple((p + q) / 2 for p, q in zip(u, v)))
            techs = [Technique(f"t{k}", prof) for k, prof in enumerate(profiles)]
            dominance_map(TechnologySet(techs), F(0), F(3))
        assert seen["exact"] > 0 and seen["bracket"] > 0 and seen["merged"] > 0

    def test_shared_root_test_matches_sturm_count_of_the_gcd(self):
        # f and g share x^2 - m at multiplicity 1-3 each (or g lacks it), and
        # each has a root of its own near sqrt(m); on every bracket of f, and
        # on both halves of it, the test must say whether a Sturm count of
        # the Fraction gcd finds a root there
        rng = random.Random(1931)
        seen = Counter()
        for _ in range(80):
            m = rng.choice((2, 3, 5, 6, 7, 10, 11))
            n = rng.randint(3, 9)
            shared = [-m, 0, 1]
            near = [-(m * n * n + 1), 0, n * n]  # roots +-sqrt(m + 1/n^2)
            f = [[rng.randint(-4, 4), rng.choice((-3, 1, 2))], near]
            g = [[rng.choice((-2, 1, 5))], [-(m * n + 1), 0, n]]
            j, k = rng.randint(1, 3), rng.randint(0, 3)
            f = Polynomial(int_product(f + [shared] * j))
            g = Polynomial(int_product(g + [shared] * k))
            seen[f"f^{j}"] += 1
            seen[f"g^{k}"] += 1
            common = fraction_gcd(f.coeffs, g.coeffs)
            fi, gi = polynomial._int_vector(f), polynomial._int_vector(g)
            for iv in polynomial.isolate_real_roots(f, F(-10), F(10)):
                if iv.is_exact:
                    continue
                m_iv = iv.midpoint
                for a, b in ((iv.lo, iv.hi), (iv.lo, m_iv), (m_iv, iv.hi)):
                    expected = fraction_sturm_count(common, a, b) if len(common) > 1 else 0
                    assert expected in (0, 1)
                    assert switching._shares_root(fi, gi, a, b) == (expected == 1)
                    seen["shared" if expected else "apart"] += 1
        for key in ("f^1", "f^2", "f^3", "g^0", "g^1", "g^2", "g^3"):
            assert seen[key] >= 10, (key, seen)
        assert seen["shared"] >= 150 and seen["apart"] >= 300, seen

    def test_exact_cut_meeting_a_bracket_takes_no_gcd(self, monkeypatch):
        # c - d = x (5 - 2x^2) crosses at x = sqrt(5/2), and its isolating
        # bracket holds a's and b's exact tie at x = 3/2; c and d never come
        # near the minimum, so the map is that of a and b alone
        calls = []
        original = switching._primitive_gcd

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        c, d = Technique("c", (44, 39, 41)), Technique("d", (39, 39, 43))
        alone = dominance_map(samuelson_example(), F(0), F(3, 2))
        monkeypatch.setattr(switching, "_primitive_gcd", counting)
        dom = dominance_map(TechnologySet([A, B, c, d]), F(0), F(3, 2))
        assert calls == []
        assert (dom.segments, dom.boundaries) == (alone.segments, alone.boundaries)
        assert [b.interest_exact for b in dom.boundaries] == [F(1, 2), F(1)]

    def test_matches_fraction_oracle_at_points(self):
        # gap winners, exact tie sets and tie costs at wage 3/2 against a
        # direct Fraction evaluation of every technique's cost
        rng = random.Random(1406)
        three_way = irrational = clones = 0
        for _ in range(60):
            ts = _planted_exact_tie_menu(rng)
            labors = {t.name: t.labor for t in ts.techniques}
            dom = dominance_map(ts, F(0), F(2))
            for seg in dom.segments:
                names, _ = cheapest_at(labors, ts.wage, (seg.lo + seg.hi) / 2)
                assert names == {seg.winner, *seg.co_winners}
                clones += bool(seg.co_winners)
            for b in dom.boundaries:
                if b.interest_exact is not None:
                    names, cost = cheapest_at(labors, ts.wage, b.interest_exact)
                    assert set(b.ties) == names
                    assert b.tie_cost_exact == b.tie_cost_approx == cost
                    three_way += len(names) >= 3
                    continue
                # the anchor is the winner of the segment that ends here
                (anchor,) = [s.winner for s in dom.segments if s.hi == b.interest_approx]
                _, cost = cheapest_at({anchor: labors[anchor]}, ts.wage, b.interest_approx)
                assert b.tie_cost_exact is None and b.tie_cost_approx == cost
                irrational += 1
        assert three_way >= 30 and irrational >= 15 and clones >= 20

    def test_irrational_boundaries_read_a_pair_switch_point(self):
        # r1 and b cross once near 29.6%; the merged three-way tie of a, b
        # and c sits near 170.7%. Separation narrows no bracket past its own
        # pair's bisection, so each boundary reads a pair's approximation.
        menu = {
            "r1": (0, F(3, 4), 3, 2),
            "b": (7, 0, 2, 0),
            "r0": (5, 2, 6, 0),
            "a": (0, 8, 0, 0),
            "c": (F(308, 185), F(32, 5), F(24, 185), F(16, 185)),
            "r2": (F(3, 2), 3, 1, 7),
            "r3": (6, 2, 8, F(11, 4)),
        }
        ts = TechnologySet([Technique(n, p) for n, p in menu.items()])
        dom = dominance_map(ts, F(0), F(2))
        assert [b.ties for b in dom.boundaries] == [("r1", "b"), ("b", "a", "c")]
        assert _approximations_off_switch_points(ts, dom) == []
        rng = random.Random(1)
        irrational = 0
        for _ in range(30):
            ts = _three_way_tie_menu(rng)
            dom = dominance_map(ts, F(0), F(2))
            assert _approximations_off_switch_points(ts, dom) == []
            irrational += sum(b.interest_exact is None for b in dom.boundaries)
        assert irrational >= 30

    def test_matches_brute_force_at_grid(self):
        rng = random.Random(4242)
        for _ in range(8):
            horizon = rng.randint(2, 6)
            labors = {}
            for name in ("a", "b", "c"):
                prof = [F(rng.randint(0, 10)) for _ in range(horizon)]
                if all(v == 0 for v in prof):
                    prof[rng.randrange(horizon)] = F(1)
                labors[name] = tuple(prof)
            if len(set(labors.values())) < 3:
                continue
            ts = TechnologySet([Technique(n, l) for n, l in labors.items()])
            dom = dominance_map(ts, F(0), F(3))
            for b in dom.boundaries:
                if b.interest_exact is not None:
                    assert set(b.ties) == cheapest_names(labors, F(1), b.interest_exact)
            guard = F(1, 10**6)
            for k in range(0, 3001, 7):
                i = F(k, 1000)
                if any(abs(i - b.interest_approx) <= guard for b in dom.boundaries):
                    continue
                seg = next(
                    s for s in dom.segments if s.lo - guard <= i <= s.hi + guard
                )
                winners = cheapest_names(labors, F(1), i)
                assert seg.winner in winners or set(seg.co_winners) & winners


class TestReswitchDetection:
    def test_champagne(self):
        report = detect_reswitching(samuelson_example(), F(0), F(3, 2))
        assert report.reswitching and report.recurring == "a"

    def test_single_technique_no_reswitch(self):
        report = detect_reswitching(TechnologySet([B]))
        assert not report.reswitching and report.recurring is None

    def test_proportional_costs_never_cross(self):
        ts = TechnologySet([Technique("a", (1,)), Technique("b", (2,))])
        report = detect_reswitching(ts)
        assert not report.reswitching

    def test_reswitching_needs_more_inputs_than_techniques(self):
        rng = random.Random(2024)
        found = 0
        for _ in range(300):
            horizon = rng.randint(2, 6)
            la = [F(rng.randint(0, 8), rng.choice((1, 2))) for _ in range(horizon)]
            lb = [F(rng.randint(0, 8), rng.choice((1, 2))) for _ in range(horizon)]
            if all(v == 0 for v in la) or all(v == 0 for v in lb) or la == lb:
                continue
            ts = TechnologySet([Technique("a", la), Technique("b", lb)])
            report = detect_reswitching(ts, F(0), F(3))
            if report.reswitching:
                found += 1
                assert len(ts.positive_lags()) > 2
        assert found >= 1  # the property was actually exercised


class TestDomainErrors:
    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (F(-1), F(2), "domain start -1 is at or below -100%"),
            (-2, 1, "domain start -2 is at or below -100%"),
            (F(1), F(1), "domain must have positive width"),
            (F(1, 2), F(-1, 2), "domain must have positive width"),
        ],
        ids=["lo_minus_one", "lo_below", "empty", "reversed"],
    )
    @pytest.mark.parametrize(
        "call", [MenuAnalysis, dominance_map, detect_reswitching], ids=lambda f: f.__name__
    )
    def test_bad_domain_raises(self, call, lo, hi, message):
        with pytest.raises(DomainError) as err:
            call(samuelson_example(), lo, hi)
        assert str(err.value) == message


def _tangent_pair(rng: random.Random, horizon: int) -> list[tuple[F, ...]]:
    """Two profiles whose cost difference is c x^j (x - r)^2, or
    c x (x^2 - m)^2 at horizon 5, on top of a shared random base."""
    base = [F(rng.randint(0, 3)) if rng.random() < 0.4 else F(0) for _ in range(horizon)]
    a, b = list(base), list(base)
    c = F(rng.randint(1, 3), rng.choice((1, 2)))
    if horizon == 5 and rng.random() < 0.75:
        m = rng.randint(2, 8)  # touches at x = sqrt(m), inside (1, 3)
        a[0] += c * m * m
        a[4] += c
        b[2] += 2 * c * m
    else:
        r = F(rng.randint(5, 11), 4)  # touches at x = r, inside (1, 3)
        s = rng.randint(2, horizon - 1)
        a[s - 2] += c * r * r
        a[s] += c
        b[s - 1] += 2 * c * r
    return [tuple(a), tuple(b)]


def _menu_with_tangencies(rng: random.Random) -> TechnologySet:
    """2-8 techniques over horizon 2-5 with some duplicate profiles and
    planted tangencies."""
    horizon = rng.randint(2, 5)
    size = rng.randint(2, 8)
    profiles: list[tuple[F, ...]] = []
    while len(profiles) < size:
        roll = rng.random()
        if profiles and roll < 0.15:
            profiles.append(rng.choice(profiles))
        elif roll < 0.5 and horizon >= 3 and len(profiles) + 2 <= size:
            profiles.extend(_tangent_pair(rng, horizon))
        else:
            prof = [F(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(horizon)]
            if all(v == 0 for v in prof):
                prof[rng.randrange(horizon)] = F(1)
            profiles.append(tuple(prof))
    return TechnologySet([Technique(f"t{k}", p) for k, p in enumerate(profiles)])


def _menu_with_clones(rng: random.Random) -> tuple[TechnologySet, list[bool]]:
    """2-6 techniques over horizon 3-4 at wage 1 or 5/3: random profiles,
    crossing pairs b x + c x^3 against a x^2 (irrational ties when
    b^2 - 4ac is not a square), and clones inserted anywhere in the menu,
    some written without their trailing zeros. Also returns, per clone,
    whether it landed before the technique it copies."""
    horizon = rng.randint(3, 4)
    size = rng.randint(2, 6)
    menu: list[tuple[str, tuple[F, ...]]] = []  # names in creation order
    placed_before = []
    while len(menu) < size:
        roll = rng.random()
        name = f"t{len(menu)}"
        if menu and roll < 0.3:
            source = rng.randrange(len(menu))
            clone = menu[source][1]
            while len(clone) > 1 and clone[-1] == 0 and rng.random() < 0.5:
                clone = clone[:-1]
            at = rng.randrange(len(menu) + 1)
            menu.insert(at, (name, clone))
            placed_before.append(at <= source)
        elif roll < 0.6 and len(menu) + 2 <= size:
            s = rng.randint(2, horizon - 1)
            single, pair = [F(0)] * horizon, [F(0)] * horizon
            single[s - 1] = F(rng.randint(3, 9))
            pair[s - 2] = F(rng.randint(1, 7), rng.choice((1, 2)))
            pair[s] = F(rng.randint(1, 3))
            menu += [(name, tuple(single)), (f"t{len(menu) + 1}", tuple(pair))]
        else:
            prof = [F(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(horizon)]
            if all(v == 0 for v in prof):
                prof[rng.randrange(horizon)] = F(1)
            menu.append((name, tuple(prof)))
    wage = rng.choice((F(1), F(5, 3)))
    ts = TechnologySet([Technique(n, p) for n, p in menu], wage=wage)
    return ts, placed_before


def _three_way_tie_menu(rng: random.Random) -> TechnologySet:
    """a and b crossing at x = 2 -+ sqrt(2)/2, c with c - a = s x (2x^2 -
    8x + 7)(x + t), which ties both there without being proportional to
    b - a, sometimes the midpoint of a and b, and 2-5 random profiles, all
    over horizon 4 and shuffled."""
    a = (F(0), F(8), F(0), F(0))
    b = (F(7), F(0), F(2), F(0))
    t = F(rng.randint(8, 16), 2)
    s = F(8, 8 * t - 7) * F(rng.randint(1, 4), 4)  # keeps c's labor nonnegative
    c = tuple(p + s * q for p, q in zip(a, (7 * t, 7 - 8 * t, 2 * t - 8, 2)))
    profiles = [a, b, c]
    if rng.random() < 0.5:
        profiles.append(tuple((p + q) / 2 for p, q in zip(a, b)))
    for _ in range(rng.randint(2, 5)):
        prof = tuple(F(rng.randint(0, 8), rng.choice((1, 2, 4))) for _ in range(4))
        profiles.append(prof if any(prof) else (F(1),) * 4)
    rng.shuffle(profiles)
    return TechnologySet([Technique(f"t{k}", p) for k, p in enumerate(profiles)])


def _planted_exact_tie_menu(rng: random.Random) -> TechnologySet:
    """a and b with b - a = s x (x - r1)(x - r2) for rationals r1 < r2 in
    (1, 3), their midpoint, which ties both exactly at r1 and r2, 1-4
    random profiles and 1-2 clones, over horizon 3-5 at wage 3/2,
    shuffled."""
    horizon = rng.randint(3, 5)
    r1, r2 = sorted(rng.sample([F(5, 4), F(3, 2), F(7, 4), F(2), F(9, 4), F(5, 2)], 2))
    s = F(rng.randint(1, 4), 2)
    lag = rng.randint(1, horizon - 2)  # b - a occupies lags lag .. lag + 2
    a = [F(rng.randint(0, 4), rng.choice((1, 2))) for _ in range(horizon)]
    a[lag] += s * (r1 + r2)
    b = list(a)
    b[lag - 1] += s * r1 * r2
    b[lag] -= s * (r1 + r2)
    b[lag + 1] += s
    profiles = [tuple(a), tuple(b), tuple((p + q) / 2 for p, q in zip(a, b))]
    for _ in range(rng.randint(1, 4)):
        prof = tuple(F(rng.randint(0, 8), rng.choice((1, 2))) for _ in range(horizon))
        profiles.append(prof if any(prof) else (F(1),) * horizon)
    profiles += rng.sample(profiles, rng.randint(1, 2))
    rng.shuffle(profiles)
    techs = [Technique(f"t{k}", p) for k, p in enumerate(profiles)]
    return TechnologySet(techs, wage=F(3, 2))


def _even_tie_menu() -> TechnologySet:
    """a and b cross at x = 2 -+ sqrt(2)/2, where c - a has a double root."""
    return TechnologySet(
        [
            Technique("a", (0, 8, 0, F(16, 7))),
            Technique("b", (7, 0, 2, F(16, 7))),
            Technique("c", (F(7, 2), 0, F(46, 7), 0, F(2, 7))),
        ]
    )


def _merging_menu(seed: int) -> TechnologySet:
    """16 random profiles, four of them midpoints of two others, which tie
    three ways wherever their parents tie."""
    rng = random.Random(seed)
    horizon = rng.randint(3, 5)
    profiles = []
    while len(profiles) < 12:
        prof = tuple(F(rng.randint(0, 8)) for _ in range(horizon))
        if any(prof) and prof not in profiles:
            profiles.append(prof)
    for _ in range(4):
        u, v = rng.sample(profiles[:12], 2)
        profiles.append(tuple((p + q) / 2 for p, q in zip(u, v)))
    return TechnologySet([Technique(f"t{k}", p) for k, p in enumerate(profiles)])


def _approximations_off_switch_points(ts: TechnologySet, dom) -> list:
    """The irrational boundaries whose interest_approx is no switch point
    of two of their tied techniques."""
    techs = {t.name: t for t in ts.techniques}
    lo, hi = dom.domain
    return [
        b
        for b in dom.boundaries
        if b.interest_exact is None
        and not any(
            p.interest_approx == b.interest_approx
            for u, v in combinations(b.ties, 2)
            for p in pairwise_switch_points(techs[u], techs[v], lo, hi)
        )
    ]


def _horizon5_menu(size: int, seed: int) -> TechnologySet:
    rng = random.Random(seed)
    profiles = []
    while len(profiles) < size:
        prof = tuple(F(rng.randint(0, 12), rng.choice((1, 2, 4))) for _ in range(5))
        if any(prof):
            profiles.append(prof)
    return TechnologySet([Technique(f"t{k}", p) for k, p in enumerate(profiles)])


class TestSegmentWinners:
    """dominance_map opens a segment only where the gap winner changes, so
    detect_reswitching reads a recurrence as any repeated winner."""

    @staticmethod
    def _edge_domains(ts: TechnologySet) -> list[tuple[F, F]]:
        """[0, 2], and two domains with an exact odd tie of some pair on an
        edge, where the gap next to that edge is empty."""
        analysis = MenuAnalysis(ts, F(0), F(2))
        exact = sorted(
            {
                p.interest_exact
                for u, v in combinations(analysis.reps, 2)
                for p in analysis.switch_points(u, v)
                if p.is_exact
            }
        )
        domains = [(F(0), F(2))]
        if exact:
            e = exact[len(exact) // 2]
            domains += [(e, e + 1), (e - F(1, 2), e)]
        return domains

    def test_adjacent_segments_never_share_a_winner(self):
        builders = [
            lambda rng: _menu_with_clones(rng)[0],
            _menu_with_tangencies,
            _three_way_tie_menu,
            _planted_exact_tie_menu,
        ]
        edge_ties = recurrences = 0
        for seed in range(40):
            for build in builders:
                ts = build(random.Random(seed))
                for lo, hi in self._edge_domains(ts):
                    report = detect_reswitching(ts, lo, hi)
                    winners = report.map.winners
                    assert all(u != v for u, v in zip(winners, winners[1:]))
                    # brute force: collapse runs, then the first name seen twice
                    runs = [name for name, _ in groupby(winners)]
                    recurring = next(
                        (name for k, name in enumerate(runs) if name in runs[:k]), None
                    )
                    assert report.recurring == recurring
                    assert report.reswitching == (recurring is not None)
                    edge_ties += (lo, hi) != (F(0), F(2))
                    recurrences += recurring is not None
        assert edge_ties >= 150 and recurrences >= 20

    def test_nested_recurrence_reads_the_first_repeat(self):
        # b - a = x (x - 5/4)(x - 5/2) and c - b = x (x - 3/2)(x - 2): c wins
        # inside b's interval, so b recurs (at 100%) before a does (at 150%)
        a = Technique("a", (0, 10, 0))
        b = Technique("b", (F(25, 8), F(25, 4), 1))
        c = Technique("c", (F(49, 8), F(11, 4), 2))
        report = detect_reswitching(TechnologySet([a, b, c]), F(0), F(2))
        assert report.map.winners == ("a", "b", "c", "b", "a")
        assert [x.interest_exact for x in report.map.boundaries] == [
            F(1, 4), F(1, 2), F(1), F(3, 2)
        ]
        assert report.reswitching and report.recurring == "b"


class TestManyTechniques:
    def test_32_techniques_in_under_a_second(self):
        ts = _horizon5_menu(32, 2)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            dominance_map(ts, F(0), F(2))
            times.append(time.perf_counter() - start)
        assert min(times) < 1.0

    def test_64_techniques_match_brute_force_grid(self):
        ts = _horizon5_menu(64, 1)
        dom = dominance_map(ts, F(0), F(2))
        labors = {t.name: t.labor for t in ts.techniques}
        segments = [(s.lo, s.hi, s.winner) for s in dom.segments]
        approx = [b.interest_approx for b in dom.boundaries]
        assert grid_mismatches(labors, ts.wage, segments, approx, 0, 2, points=400) == 0
        cells = cheapest_changes(labors, ts.wage, 0, 2, points=400)
        assert cells and len(cells) <= len(dom.boundaries)
        for a, b in cells:
            assert any(a <= x <= b for x in approx)


class TestSharedPairAnalysis:
    def _count_isolations(self, monkeypatch) -> list:
        calls = []
        original = switching._isolate_ints

        def counting(f, *args, **kwargs):
            calls.append(tuple(f))
            return original(f, *args, **kwargs)

        monkeypatch.setattr(switching, "_isolate_ints", counting)
        return calls

    def test_champagne_pair_isolated_once(self, monkeypatch):
        calls = self._count_isolations(monkeypatch)
        report = detect_reswitching(samuelson_example())
        assert report.reswitching
        assert len(calls) == 1

    def test_menu_isolates_each_pair_once(self, monkeypatch):
        labors = [(0, 7, 0), (6, 0, 2), (1, 2, 3), (3, 1, 4), (2, 5, 1), (4, 4, 0)]
        ts = TechnologySet([Technique(f"t{k}", l) for k, l in enumerate(labors)])
        calls = self._count_isolations(monkeypatch)
        detect_reswitching(ts)
        assert len(calls) == 15
        assert len(set(calls)) == 15

    def test_odd_ties_bisected_without_square_free_part(self, monkeypatch):
        # the tie at x = 2 + sqrt(2) is a simple root: every bracket of this
        # pair is narrowed on the cost difference itself, so the one
        # square-free part taken is the isolation's own
        calls = []
        original = polynomial._squarefree_ints

        def counting(f):
            calls.append(f)
            return original(f)

        monkeypatch.setattr(polynomial, "_squarefree_ints", counting)
        ts = TechnologySet([Technique("u", (0, 4, 0)), Technique("v", (2, 0, 1))])
        report = detect_reswitching(ts, F(0), F(3))
        (boundary,) = report.map.boundaries
        assert boundary.interest_exact is None
        assert calls == [[0, -2, 4, -1]]

    def test_tangencies_from_dominance_pass_match_pairwise(self):
        planted = irrational = duplicated = 0
        for seed in range(40):
            ts = _menu_with_tangencies(random.Random(seed))
            dom = dominance_map(ts)
            report = detect_reswitching(ts)
            assert report.map == dom
            assert report.tangencies == dom.tangencies
            reps = []
            for tech in ts.techniques:
                if all(tech.labor != rep.labor for rep in reps):
                    reps.append(tech)
            expected = [
                t for u, v in combinations(reps, 2) for t in pairwise_tangencies(u, v)
            ]
            expected.sort(key=lambda t: t.interest_approx)
            assert dom.tangencies == tuple(expected)
            planted += len(expected)
            irrational += sum(t.interest_exact is None for t in expected)
            duplicated += len(reps) < len(ts)
        assert planted >= 20 and irrational >= 5 and duplicated >= 10

    @pytest.mark.parametrize("model", ["samuelson.json", "clone_irr.json"])
    def test_analyze_isolates_each_pair_once(self, monkeypatch, model):
        # one representative pair each; clone_irr.json also reads it through
        # the clone c and in the other orientation
        calls = self._count_isolations(monkeypatch)
        path = str(Path(__file__).parent / "data" / model)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analyze", "--model", path]) == 0
        assert len(calls) == 1

    def test_edge_tie_scales_each_row_once(self, monkeypatch):
        # the champagne pair ties exactly at i = 1/2, the domain's start,
        # where the gap is empty: the tie set and the tie cost there take
        # one scaled value per representative and one for the cost
        c = Technique("c", (9, 9, 9))
        ts = TechnologySet([A, B, c])
        calls = []
        original = switching._scaled_value

        def counting(coeffs, num, den):
            calls.append(F(num, den))
            return original(coeffs, num, den)

        monkeypatch.setattr(switching, "_scaled_value", counting)
        dom = dominance_map(ts, F(1, 2), F(2))
        assert [b.interest_exact for b in dom.boundaries] == [F(1, 2), F(1)]
        assert dom.boundaries[0].ties == ("a", "b")
        assert calls.count(F(3, 2)) == len(ts.techniques) + 1

    def test_dominance_map_evaluates_no_cost_polynomial(self, monkeypatch):
        # with every pair record built first, gap winners, tie sets and tie
        # costs come from the integer rows alone
        menus = [samuelson_example(), cli.load_model(str(DATA / "clone_irr.json"))]
        cfg = harness.GeneratorConfig(seed=7, trials=200)
        menus += [harness.generate_technology(cfg, k) for k in range(200)]
        calls = []
        original = polynomial.Polynomial.__call__

        def counting(p, x):
            calls.append(x)
            return original(p, x)

        boundaries = 0
        for ts in menus:
            analysis = MenuAnalysis(ts)
            for u, v in combinations(analysis.reps, 2):
                analysis.pair_ties(u, v)
            monkeypatch.setattr(polynomial.Polynomial, "__call__", counting)
            dom = dominance_map(ts, analysis=analysis)
            monkeypatch.setattr(polynomial.Polynomial, "__call__", original)
            assert calls == []
            assert dom == dominance_map(ts)
            boundaries += len(dom.boundaries)
        assert boundaries >= 100

    @pytest.mark.parametrize(
        "menu, hi",
        [(_even_tie_menu, F(2)), (lambda: _merging_menu(8), F(3))],
        ids=["even_tie", "merging_16"],
    )
    def test_tie_tests_build_no_sturm_chain(self, monkeypatch, menu, hi):
        # with every pair record built first, the sweep's and the tie sets'
        # shared-root tests run on integer gcds alone: Sturm chains only
        # isolate
        ts = menu()
        analysis = MenuAnalysis(ts, F(0), hi)
        for u, v in combinations(analysis.reps, 2):
            analysis.pair_ties(u, v)
        chains, gcds = [], []

        def counting(calls, original):
            def wrapper(*args):
                calls.append(args)
                return original(*args)

            return wrapper

        monkeypatch.setattr(polynomial, "sturm_chain", counting(chains, polynomial.sturm_chain))
        monkeypatch.setattr(
            switching, "_primitive_gcd", counting(gcds, switching._primitive_gcd)
        )
        dom = dominance_map(ts, F(0), hi, analysis=analysis)
        assert chains == [] and gcds
        # a bracketed boundary where three or more profiles tie
        assert any(b.interest_exact is None and len(b.ties) > 2 for b in dom.boundaries)

    def test_analysis_reads_match_standalone_calls(self):
        placements, wages, irrational = [], set(), 0
        for seed in range(220):
            ts, placed_before = _menu_with_clones(random.Random(seed))
            placements += placed_before
            wages.add(ts.wage)
            lo, hi = ((F(0), F(2)), (F(-1, 4), F(5, 2)))[seed % 2]
            analysis = MenuAnalysis(ts, lo, hi)
            read_first = seed % 3 == 0
            if read_first:
                dom = dominance_map(ts, lo, hi, analysis=analysis)
            for u, v in permutations(ts.techniques, 2):
                if u.labor == v.labor:
                    with pytest.raises(IdenticalTechniquesError):
                        analysis.switch_points(u, v)
                    with pytest.raises(IdenticalTechniquesError):
                        pairwise_switch_points(u, v, lo, hi, ts.wage)
                    continue
                shared = analysis.switch_points(u, v)
                alone = pairwise_switch_points(u, v, lo, hi, ts.wage)
                assert repr(shared) == repr(alone), (seed, u.name, v.name)
                irrational += sum(not sp.is_exact for sp in alone)
            if not read_first:
                dom = dominance_map(ts, lo, hi, analysis=analysis)
            assert repr(dom) == repr(dominance_map(ts, lo, hi))
            report = detect_reswitching(ts, lo, hi, analysis=analysis)
            assert report == detect_reswitching(ts, lo, hi)
        assert placements.count(True) >= 30 and placements.count(False) >= 30
        assert wages == {F(1), F(5, 3)} and irrational >= 200

    def test_clone_pair_in_other_orientation_reads_shared_record(self, monkeypatch):
        ts = TechnologySet(
            [Technique("a", (0, 4, 0)), Technique("b", (F(7, 2), 0, 1)), Technique("c", (0, 4))],
            wage=F(3, 2),
        )
        calls = self._count_isolations(monkeypatch)
        analysis = MenuAnalysis(ts)
        a, b, c = ts.techniques
        assert analysis.pair_ties(b, c).f == [-v for v in analysis.pair_ties(a, b).f]
        assert analysis.pair_ties(b, c).in_domain == analysis.pair_ties(c, b).in_domain
        (low, high) = analysis.switch_points(b, c)
        assert (low.cheaper_below, high.cheaper_below) == ("c", "b")
        assert low.certificate == analysis.switch_points(a, b)[0].certificate
        assert len(calls) == 1
        with pytest.raises(IdenticalTechniquesError, match="'c' and 'a'"):
            analysis.switch_points(c, a)

    def test_switch_points_evaluate_no_polynomial(self, monkeypatch):
        # with every pair record built first, a switch point's sides come
        # from the record's integer vector and its tie cost from a row
        cfg = harness.GeneratorConfig(seed=7, trials=200)
        evaluations, cost_polynomials = [], []

        def counting(calls, original):
            def wrapper(*args):
                calls.append(args)
                return original(*args)

            return wrapper

        points = 0
        for k in range(200):
            ts = harness.generate_technology(cfg, k)
            analysis = MenuAnalysis(ts)
            pairs = list(combinations(ts.techniques, 2))
            for u, v in pairs:
                analysis.pair_ties(u, v)
            with monkeypatch.context() as m:
                m.setattr(
                    polynomial.Polynomial,
                    "__call__",
                    counting(evaluations, polynomial.Polynomial.__call__),
                )
                m.setattr(
                    Technique, "cost_polynomial", counting(cost_polynomials, Technique.cost_polynomial)
                )
                points += sum(len(analysis.switch_points(u, v)) for u, v in pairs)
        assert evaluations == [] and cost_polynomials == []
        assert points >= 150

    def test_tie_costs_match_cost_at(self):
        # an exact switch point ties in exact cost; a bracket's tie cost is
        # the first technique's cost at the approximation
        wages, kinds = set(), Counter()
        for seed in range(60):
            ts, _ = _menu_with_clones(random.Random(seed))
            wages.add(ts.wage)
            analysis = MenuAnalysis(ts)
            for u, v in permutations(ts.techniques, 2):
                if u.labor == v.labor:
                    continue
                for sp in analysis.switch_points(u, v):
                    kinds["exact" if sp.is_exact else "bracket"] += 1
                    if sp.is_exact:
                        i = sp.interest_exact
                        assert sp.tie_cost_exact == sp.tie_cost_approx
                        assert sp.tie_cost_exact == u.cost_at(ts.wage, i) == v.cost_at(ts.wage, i)
                    else:
                        assert sp.tie_cost_exact is None
                        assert sp.tie_cost_approx == u.cost_at(ts.wage, sp.interest_approx)
        assert wages == {F(1), F(5, 3)}
        assert kinds["exact"] >= 60 and kinds["bracket"] >= 100, kinds

    def test_analysis_for_another_menu_or_domain_rejected(self):
        ts = samuelson_example()
        analysis = MenuAnalysis(ts)
        with pytest.raises(ValueError, match="another menu or domain"):
            dominance_map(samuelson_example(), analysis=analysis)
        with pytest.raises(ValueError, match="another menu or domain"):
            detect_reswitching(ts, F(0), F(1), analysis=analysis)
        assert dominance_map(ts, F(0), 2, analysis=analysis) == dominance_map(ts)
        stranger = Technique("a", (0, 7, 1))
        with pytest.raises(ValueError, match="not on this menu"):
            analysis.switch_points(stranger, ts.techniques[1])

    def test_outputs_do_not_keep_the_analysis(self):
        ts = TechnologySet(
            [Technique("a", (0, 4, 0)), Technique("b", (F(7, 2), 0, 1)), Technique("c", (0, 4))]
        )
        analysis = MenuAnalysis(ts)
        report = detect_reswitching(ts, analysis=analysis)
        points = analysis.switch_points(*ts.techniques[1:])
        refs = [weakref.ref(analysis)] + [weakref.ref(t) for t in analysis._ties.values()]
        del analysis
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert report.reswitching and len(points) == 2


class TestCostRatioCurve:
    def test_champagne_ratios(self):
        curve = dict(cost_ratio_curve(B, A, [F(0), F(1, 2), F(1, 5), F(3, 2)]))
        assert curve[F(0)] == F(8, 7)
        assert curve[F(1, 2)] == 1
        assert curve[F(1, 5)] == curve[F(3, 2)] == F(37, 35)

    def test_non_extremal_values_hit_twice(self):
        # symmetric grid around the dip: every sampled ratio value recurs
        grid = [F(1, 5), F(1, 4), F(1, 2), F(1), F(7, 5), F(3, 2)]
        values = [r for _, r in cost_ratio_curve(B, A, grid)]
        assert values.count(F(37, 35)) == 2
        assert values.count(F(73, 70)) == 2
        assert values.count(F(1)) == 2

    def test_unequal_horizons_match_padded_copies(self):
        short, long = Technique("s", (2, F(1, 3))), Technique("l", (1, 0, F(5, 2)))
        grid = [F(-1, 2), F(0), F(1, 3), F(1), F(5, 2)]
        for num, den in ((short, long), (long, short)):
            padded = cost_ratio_curve(num.padded(3), den.padded(3), grid)
            for got, want in zip(cost_ratio_curve(num, den, grid), padded, strict=True):
                assert got == want
            # the ratio at wage 3/2 is the ratio the curve reads at unit wage
            for i, ratio in padded:
                assert ratio == num.cost_at(F(3, 2), i) / den.cost_at(F(3, 2), i)
