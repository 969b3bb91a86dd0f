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
from reswitch.complementarity import GRID_HI, GRID_LO, _grid_values
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
