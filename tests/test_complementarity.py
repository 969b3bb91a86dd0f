import random
import time
from fractions import Fraction as F
from itertools import product as iter_product

import pytest

import reswitch.complementarity as complementarity
from reswitch import (
    Technique,
    TechnologySet,
    chosen_input_vector,
    complementarity_witness,
    detect_reswitching,
    find_complementary_pair,
    samuelson_example,
)
from reswitch.complementarity import (
    GRID_HI,
    GRID_LO,
    ComplementarityWitness,
    _grid_values,
)
from reswitch.harness import GeneratorConfig, generate_technology

from oracles import log_grid

TS = samuelson_example()


class TestChosenInputVector:
    def test_unit_prices_pick_cheaper_technique(self):
        choice = chosen_input_vector(TS, [F(1), F(1), F(1)])
        assert choice.technique == "a"
        assert choice.vector == (0, 7, 0)
        assert choice.cost == 7
        assert not choice.is_tie

    def test_dear_middle_lag_flips_choice(self):
        choice = chosen_input_vector(TS, [F(1), F(10), F(1)])
        assert choice.technique == "b"
        assert choice.vector == (6, 0, 2)
        assert choice.cost == 8

    def test_single_technique(self):
        ts = TechnologySet([Technique("only", (2, 3))])
        choice = chosen_input_vector(ts, [F(5), F(1, 3)])
        assert choice.vector == (2, 3)

    def test_tie_resolves_lexicographically(self):
        ts = TechnologySet([Technique("z", (1, 0)), Technique("m", (0, 1))])
        choice = chosen_input_vector(ts, [F(2), F(2)])
        assert choice.technique == "m"
        assert choice.tied_with == ("z",)

    def test_positive_prices_required(self):
        with pytest.raises(ValueError):
            chosen_input_vector(TS, [F(1), F(0), F(1)])
        with pytest.raises(ValueError):
            chosen_input_vector(TS, [F(1), F(1)])

    def test_demand_homogeneous_degree_zero(self):
        rng = random.Random(15)
        for _ in range(40):
            prices = [F(rng.randint(1, 20), rng.randint(1, 6)) for _ in range(3)]
            lam = F(rng.randint(1, 9), rng.randint(1, 9))
            base = chosen_input_vector(TS, prices)
            scaled = chosen_input_vector(TS, [lam * p for p in prices])
            assert base.technique == scaled.technique
            assert base.vector == scaled.vector


class TestWitness:
    def test_labor_capital2_pair(self):
        w = complementarity_witness(TS, (1, 3))
        assert w is not None
        assert w.pair == (1, 3)
        assert w.demand_before[2] == 2 and w.demand_after[2] == 0
        assert w.technique_before == "b" and w.technique_after == "a"
        assert w.raised_price > w.base_prices[0]
        # the base point really does choose b, and the raised point a
        assert chosen_input_vector(TS, w.base_prices).technique == "b"
        raised = list(w.base_prices)
        raised[0] = w.raised_price
        assert chosen_input_vector(TS, raised).technique == "a"

    def test_reverse_orientation_also_complementary(self):
        w = complementarity_witness(TS, (3, 1))
        assert w is not None
        assert w.demand_before[0] == 6 and w.demand_after[0] == 0

    def test_pairs_without_witness(self):
        assert complementarity_witness(TS, (2, 1)) is None
        assert complementarity_witness(TS, (2, 3)) is None
        assert complementarity_witness(TS, (1, 2)) is None

    def test_single_technique_demand_constant(self):
        ts = TechnologySet([Technique("only", (1, 2, 3))])
        assert complementarity_witness(ts, (1, 3)) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            complementarity_witness(TS, (1, 1))
        with pytest.raises(ValueError):
            complementarity_witness(TS, (0, 2))

    def test_find_first_pair(self):
        w = find_complementary_pair(TS)
        assert w.pair == (1, 3)

    def test_identical_profiles_count_once(self):
        # c pads to a's profile: wherever a or c is cheapest the choice ties,
        # and a tie never counts as a switch, so the clone must be collapsed
        clone = TechnologySet([*TS.techniques, Technique("c", (0, 7))])
        start = time.perf_counter()
        expected = find_complementary_pair(TS)
        assert find_complementary_pair(clone) == expected
        assert complementarity_witness(clone, (1, 3)) == expected
        assert complementarity_witness(clone, (2, 1)) is None
        assert time.perf_counter() - start < 1
        first = TechnologySet([Technique("c", (0, 7)), *TS.techniques])
        w = find_complementary_pair(first)
        assert (w.pair, w.technique_before, w.technique_after) == ((1, 3), "b", "c")

    def test_search_collapses_the_menu_once(self, monkeypatch):
        # every lag pair of one search runs on the menu collapsed up front:
        # one technique left, two profiles (witness at the second pair, or
        # none at all) and the grid over three profiles
        monkeypatch.setattr(complementarity, "GRID_POINTS", 8)
        calls = []
        original = TechnologySet.distinct_profiles

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(TechnologySet, "distinct_profiles", counting)
        menus = {
            "one": TechnologySet([Technique("a", (2, 3, 1)), Technique("b", (2, 3, 1))]),
            "two": TechnologySet([*TS.techniques, Technique("c", (0, 7))]),
            "two_none": TechnologySet([Technique("a", (1, 2, 3)), Technique("b", (2, 4, 6))]),
            "grid": TechnologySet([*TS.techniques, Technique("c", (3, 3, 3))]),
        }
        found = {}
        for name, ts in menus.items():
            calls.clear()
            w = find_complementary_pair(ts)
            found[name] = w and w.pair
            assert len(calls) == 1, name
        assert found == {"one": None, "two": (1, 3), "two_none": None, "grid": (1, 3)}
        expected = find_complementary_pair(TS)
        calls.clear()
        assert complementarity_witness(menus["two"], (1, 3)) == expected
        assert len(calls) == 1


def reference_pair(ts):
    """The first (j, k) in lexicographic order at which one of the menu's
    two distinct profiles has strictly more of lags j and k and strictly
    less of some lag, read on the Fraction profiles; None for one profile."""
    profiles = ts.distinct_profiles()[0]
    if len(profiles) == 1:
        return None
    first, second = profiles
    lags = range(1, ts.horizon + 1)
    for j in lags:
        for k in lags:
            if j == k:
                continue
            for heavy, light in ((first, second), (second, first)):
                if (
                    heavy.lag(j) > light.lag(j)
                    and heavy.lag(k) > light.lag(k)
                    and any(heavy.lag(t) < light.lag(t) for t in lags)
                ):
                    return j, k
    return None


def two_profile_menus():
    """Generated two-technique menus, both structures, horizons 2-6, then
    hand cases: equal entries, a dominating technique, clones."""
    menus = []
    for structure in ("disjoint", "free"):
        cfg = GeneratorConfig(
            seed=21, trials=1100, structure=structure, horizon_min=2, horizon_max=6
        )
        menus += [generate_technology(cfg, idx) for idx in range(cfg.trials)]
    hand = [
        [(1, 2, 3), (1, 5, 0)],  # equal first entries, one lag each way: none
        [(2, 2, 2), (2, 2, 2, 1)],  # one profile pads the other: dominating
        [(3, 1, 4), (1, 0, 2)],  # the first dominates the second everywhere
        [(4, 0, 1, 1), (0, 4, 1, 1)],  # equal tails, one positive lag each
        [(0, 7, 0), (6, 0, 2), (0, 7)],  # a clone of the first after padding
        [(6, 0, 2), (6, 0, 2), (0, 7, 0)],  # a clone listed before the other
        [(1, 5, 5, 0, 2), (1, 1, 1, 3, 1)],  # equal first entries, first pair (2, 3)
        [(1, 0, 5, 5), (2, 1, 1, 3)],  # first pair (1, 2) on the second
    ]
    for profiles in hand:
        menus.append(
            TechnologySet(Technique(f"t{n}", p) for n, p in enumerate(profiles))
        )
    return menus


def strict_choice(ts, prices):
    """The cheapest profile at prices, which must not tie with another."""
    reps = TechnologySet(ts.distinct_profiles()[0], ts.wage)
    choice = chosen_input_vector(reps, prices)
    assert not choice.is_tie
    return choice


class TestTwoProfileWitness:
    """The witness of two distinct profiles, read off the signs of their
    integer labor difference, against a Fraction reference."""

    def test_matches_reference_and_replays(self):
        menus = two_profile_menus()
        assert len(menus) >= 2000
        horizons, found, none = set(), 0, 0
        for ts in menus:
            horizons.add(ts.horizon)
            want = reference_pair(ts)
            w = find_complementary_pair(ts)
            assert (w and w.pair) == want, [t.labor for t in ts]
            if w is None:
                none += 1
                continue
            found += 1
            j, k = w.pair
            before = strict_choice(ts, w.base_prices)
            raised = list(w.base_prices)
            raised[j - 1] = w.raised_price
            after = strict_choice(ts, raised)
            assert (before.vector, after.vector) == (w.demand_before, w.demand_after)
            assert after.vector[k - 1] < before.vector[k - 1]
            assert complementarity_witness(ts, w.pair) == w
        assert horizons == {2, 3, 4, 5, 6}
        assert found >= 500 and none >= 500

    def test_every_ordered_pair_against_reference(self):
        # a pair has a witness exactly when one profile has strictly more of
        # both its lags and strictly less of another
        for ts in two_profile_menus()[::7]:
            profiles = ts.distinct_profiles()[0]
            first, second = profiles * 2 if len(profiles) == 1 else profiles
            for j in range(1, ts.horizon + 1):
                for k in range(1, ts.horizon + 1):
                    if j == k:
                        continue
                    w = complementarity_witness(ts, (j, k))
                    qualifies = any(
                        h.lag(j) > l.lag(j)
                        and h.lag(k) > l.lag(k)
                        and any(h.lag(t) < l.lag(t) for t in range(1, ts.horizon + 1))
                        for h, l in ((first, second), (second, first))
                    )
                    assert (w is not None) == qualifies
                    if w is not None:
                        assert w.pair == (j, k)
                        assert strict_choice(ts, w.base_prices).vector == w.demand_before

    def test_search_builds_at_most_one_witness(self, monkeypatch):
        calls = []
        original = complementarity._analytic_two_technique_witness

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(complementarity, "_analytic_two_technique_witness", counting)
        # the champagne pair's first complementary pair is (1, 3), not (1, 2)
        assert find_complementary_pair(TS).pair == (1, 3)
        assert len(calls) == 1
        calls.clear()
        late = TechnologySet([Technique("a", (1, 5, 5, 0, 2)), Technique("b", (1, 1, 1, 3, 1))])
        assert find_complementary_pair(late).pair == (2, 3)
        assert len(calls) == 1
        calls.clear()
        dominated = TechnologySet([Technique("a", (3, 1, 4)), Technique("b", (1, 0, 2))])
        assert find_complementary_pair(dominated) is None
        assert calls == []

    def test_invalid_witness_raises(self):
        with pytest.raises(ValueError, match="raised price"):
            ComplementarityWitness((1, 2), (F(2), F(1)), F(2), (1, 2), (0, 1), "a", "b")
        with pytest.raises(ValueError, match="demand for input 2"):
            ComplementarityWitness((1, 2), (F(1), F(1)), F(2), (1, 2), (0, 2), "a", "b")


class TestOwnPriceLaw:
    def test_raising_own_price_never_raises_own_demand(self):
        rng = random.Random(99)
        for _ in range(60):
            horizon = rng.randint(2, 4)
            techs = []
            for name in ("a", "b", "c")[: rng.randint(2, 3)]:
                prof = [F(rng.randint(0, 6)) for _ in range(horizon)]
                if all(v == 0 for v in prof):
                    prof[0] = F(1)
                techs.append(Technique(name, prof))
            try:
                ts = TechnologySet(techs)
            except Exception:
                continue
            prices = [F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(horizon)]
            j = rng.randrange(horizon)
            before = chosen_input_vector(ts, prices)
            bumped = list(prices)
            bumped[j] += F(rng.randint(1, 15), rng.randint(1, 3))
            after = chosen_input_vector(ts, bumped)
            if before.is_tie or after.is_tie:
                continue
            assert after.vector[j] <= before.vector[j]


class TestGridFallback:
    def three_technique_set(self, rng):
        techs = []
        for name in ("a", "b", "c"):
            prof = [F(rng.randint(0, 5)) for _ in range(3)]
            if all(v == 0 for v in prof):
                prof[rng.randrange(3)] = F(1)
            techs.append(Technique(name, prof))
        return TechnologySet(techs)

    def oracle_has_witness(self, ts, j, k):
        # independent coarse brute force over a 12^3 positive price grid
        values = [F(n, 4) for n in (1, 2, 3, 4, 6, 8, 10, 14, 20, 28, 36, 40)]
        axes = [t for t in range(1, 4) if t != j]
        for combo in iter_product(values, repeat=2):
            fixed = dict(zip(axes, combo))
            prev = None
            for pj in values:
                prices = [pj if t == j else fixed[t] for t in range(1, 4)]
                choice = chosen_input_vector(ts, prices)
                if (
                    prev is not None
                    and not prev.is_tie
                    and not choice.is_tie
                    and choice.vector[k - 1] < prev.vector[k - 1]
                ):
                    return True
                prev = choice
        return False

    def test_grid_agrees_with_brute_force(self, monkeypatch):
        monkeypatch.setattr(complementarity, "GRID_POINTS", 16)
        rng = random.Random(321)
        exercised = 0
        for _ in range(6):
            ts = self.three_technique_set(rng)
            for j, k in ((1, 3), (3, 1), (2, 3)):
                got = complementarity_witness(ts, (j, k))
                if got is not None:
                    # any returned witness is valid by construction; re-check
                    base = chosen_input_vector(ts, got.base_prices)
                    raised_prices = list(got.base_prices)
                    raised_prices[j - 1] = got.raised_price
                    after = chosen_input_vector(ts, raised_prices)
                    assert after.vector[k - 1] < base.vector[k - 1]
                    exercised += 1
                if self.oracle_has_witness(ts, j, k):
                    assert got is not None
        assert exercised >= 1

    @staticmethod
    def scan_reduced_grid(ts, j, k, values):
        """The first witness of a brute-force scan of values**horizon: the
        other axes in lag order, each lexicographically, p_j innermost."""
        horizon = ts.horizon
        axes = [t for t in range(1, horizon + 1) if t != j]
        for combo in iter_product(values, repeat=len(axes)):
            fixed = dict(zip(axes, combo))
            prev = prev_prices = None
            for pj in values:
                prices = tuple(pj if t == j else fixed[t] for t in range(1, horizon + 1))
                choice = chosen_input_vector(ts, prices)
                if (
                    prev is not None
                    and not prev.is_tie
                    and not choice.is_tie
                    and choice.vector[k - 1] < prev.vector[k - 1]
                ):
                    return ComplementarityWitness(
                        (j, k), prev_prices, pj, prev.vector, choice.vector,
                        prev.technique, choice.technique,
                    )
                prev, prev_prices = choice, prices
        return None

    @pytest.mark.parametrize("horizon, cap", [(4, 5**4), (4, 5**4 - 1), (5, 3**5), (6, 50)])
    def test_reduced_grid_matches_brute_force(self, monkeypatch, horizon, cap):
        # past the cap the grid drops to the most points per axis whose
        # product fits, and to no fewer than 2
        monkeypatch.setattr(complementarity, "_GRID_CAP", cap)
        per_axis = max(
            [n for n in range(2, complementarity.GRID_POINTS + 1) if n**horizon <= cap],
            default=2,
        )
        values = log_grid(per_axis, GRID_LO, GRID_HI)
        rng = random.Random(horizon * 1000 + cap)
        found = none = 0
        for _ in range(3):
            profiles = set()  # three distinct nonzero profiles: the grid search
            while len(profiles) < 3:
                prof = tuple(F(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(horizon))
                if any(prof):
                    profiles.add(prof)
            ts = TechnologySet([Technique(f"t{n}", p) for n, p in enumerate(sorted(profiles))])
            for j in range(1, horizon + 1):
                for k in range(1, horizon + 1):
                    if j == k:
                        continue
                    want = self.scan_reduced_grid(ts, j, k, values)
                    assert complementarity_witness(ts, (j, k)) == want
                    found += want is not None
                    none += want is None
        assert found >= 1 and none >= 1

    def test_exact_grid_matches_float_definition(self):
        for points in range(2, 51):
            assert list(_grid_values(points)) == log_grid(
                points, GRID_LO, GRID_HI
            )

    def test_grid_is_memoised(self):
        assert _grid_values(37) is _grid_values(37)


class TestHattaNecessity:
    def test_reswitching_implies_complementary_pair(self):
        cfg = GeneratorConfig(seed=77, trials=160)
        found = 0
        for idx in range(cfg.trials):
            ts = generate_technology(cfg, idx)
            if not detect_reswitching(ts).reswitching:
                continue
            found += 1
            assert find_complementary_pair(ts) is not None
        assert found >= 20
