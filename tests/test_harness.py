import json
import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

import reswitch.factorspace as factorspace
import reswitch.harness as harness
from reswitch import (
    GeneratorConfig,
    Technique,
    TechnologySet,
    detect_reswitching,
    generate_technology,
    run_falsification,
    samuelson_example,
    trial_seed,
)
from reswitch.cli import load_model
from reswitch.harness import (
    GRID_CHECK_EVERY,
    _cannot_reswitch,
    _grid_mismatches,
    _planted_two_switch,
)
from reswitch.polynomial import _domain_variations, _subtract_ints
from reswitch.switching import DEFAULT_HI, DEFAULT_LO, _cost_rows

from oracles import grid_mismatches, roots_with_multiplicity

DATA = Path(__file__).parent / "data"


class TestGenerator:
    def test_deterministic_per_trial(self):
        cfg = GeneratorConfig(seed=42, trials=10)
        for idx in range(10):
            first = generate_technology(cfg, idx)
            second = generate_technology(cfg, idx)
            assert [t.labor for t in first] == [t.labor for t in second]

    def test_trials_differ(self):
        cfg = GeneratorConfig(seed=42, trials=10)
        profiles = {tuple(t.labor for t in generate_technology(cfg, i)) for i in range(10)}
        assert len(profiles) > 1

    def test_disjoint_supports(self):
        cfg = GeneratorConfig(seed=7, trials=50, structure="disjoint")
        for idx in range(50):
            ts = generate_technology(cfg, idx)
            a, b = ts.techniques
            assert set(a.support) & set(b.support) == set()
            assert a.support and b.support

    def test_seed_mixing_spreads(self):
        seeds = {trial_seed(1, i) for i in range(100)}
        assert len(seeds) == 100
        assert trial_seed(1, 5) != trial_seed(2, 5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, trials=0)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, trials=5, horizon_min=1)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, trials=5, structure="weird")


class TestRun:
    def test_small_run_clean(self):
        cfg = GeneratorConfig(seed=5, trials=80)
        report = run_falsification(cfg)
        assert report.trials_run == 80
        assert report.counterexamples == ()
        assert report.missing_complementary == ()
        assert report.reswitching_found > 0
        assert report.complementary_confirmed == report.reswitching_found
        assert (
            report.theorem_verified + report.theorem_precondition_unmet
            == report.reswitching_found
        )
        assert report.grid_mismatches == 0
        assert report.grid_checks == 1

    def test_verdicts_isolate_no_crossing(self, monkeypatch):
        # the report reads only single_switch, so no crossing preimage is isolated
        calls = []
        original = factorspace.isolate_roots_closed

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(factorspace, "isolate_roots_closed", counting)
        report = run_falsification(GeneratorConfig(seed=1, trials=200))
        assert report.theorem_verified > 0
        assert calls == []

    def test_byte_identical_reports(self):
        cfg = GeneratorConfig(seed=9, trials=40)
        assert run_falsification(cfg).to_json() == run_falsification(cfg).to_json()

    def test_json_schema(self):
        report = run_falsification(GeneratorConfig(seed=3, trials=12))
        doc = json.loads(report.to_json())
        assert doc["trials_run"] == 12
        assert doc["config"]["seed"] == 3
        assert doc["config"]["structure"] == "disjoint"
        assert isinstance(doc["reswitching_trials"], list)
        assert doc["counterexamples"] == []

    def test_free_structure_runs(self):
        report = run_falsification(GeneratorConfig(seed=11, trials=30, structure="free"))
        assert report.counterexamples == ()
        assert report.missing_complementary == ()

    def test_wider_domain(self):
        # the single-switch verdict on [0, 3] for every support group of the
        # menus a 30-trial run generates: none is a counterexample
        cfg = GeneratorConfig(seed=2, trials=30)
        verdicts = [
            factorspace.verify_single_switch(ts, group, F(0), F(3)).single_switch
            for ts in (generate_technology(cfg, idx) for idx in range(cfg.trials))
            for group in factorspace.support_groups(ts)
        ]
        assert all(v is not False for v in verdicts) and True in verdicts


def oracle_count(ts, dom, lo, hi):
    return grid_mismatches(
        {t.name: t.labor for t in ts},
        ts.wage,
        [(seg.lo, seg.hi, seg.winner) for seg in dom.segments],
        [b.interest_approx for b in dom.boundaries],
        lo,
        hi,
    )


def swapped_winners(dom, ts):
    """The map with each segment won by the next technique of the menu."""
    names = ts.names
    following = {n: names[(k + 1) % len(names)] for k, n in enumerate(names)}
    return replace(
        dom, segments=tuple(replace(seg, winner=following[seg.winner]) for seg in dom.segments)
    )


class TestGridCheck:
    """The integer grid scan against a Fraction scan built on cheapest_names."""

    @pytest.mark.parametrize("structure", ["disjoint", "free"])
    @pytest.mark.parametrize("lo, hi", [(F(0), F(2)), (F(-1, 3), F(5, 7))])
    def test_matches_oracle_on_seeded_trials(self, structure, lo, hi):
        cfg = GeneratorConfig(seed=1, trials=8, structure=structure, horizon_min=2, horizon_max=6)
        swapped_total = 0
        horizons = set()
        for idx in range(cfg.trials):
            ts = generate_technology(cfg, idx)
            horizons.add(ts.horizon)
            if idx % 2:
                ts = TechnologySet(ts.techniques, wage=F(5, 3))
            dom = detect_reswitching(ts, lo, hi).map
            assert _grid_mismatches(ts, dom, lo, hi) == oracle_count(ts, dom, lo, hi) == 0
            swapped = swapped_winners(dom, ts)
            count = _grid_mismatches(ts, swapped, lo, hi)
            assert count == oracle_count(ts, swapped, lo, hi)
            swapped_total += count
        assert swapped_total > 0
        assert horizons == {2, 3, 4, 5, 6}

    @pytest.mark.parametrize("lo, hi", [(F(0), F(2)), (F(-1, 3), F(5, 7))])
    def test_matches_oracle_on_larger_menus(self, lo, hi):
        # each grid column's minimum runs over every technique, which only
        # menus of more than two profiles exercise
        rng = random.Random(2718)
        swapped_total = 0
        for size in (4, 5, 6, 7, 8):
            horizon = rng.randint(3, 5)
            profiles = set()
            while len(profiles) < size:
                prof = tuple(F(rng.randint(0, 12), rng.choice((1, 2, 4))) for _ in range(horizon))
                if any(prof):
                    profiles.add(prof)
            ts = TechnologySet(
                [Technique(f"t{n}", p) for n, p in enumerate(sorted(profiles))],
                wage=rng.choice((F(1), F(5, 3))),
            )
            dom = detect_reswitching(ts, lo, hi).map
            assert _grid_mismatches(ts, dom, lo, hi) == oracle_count(ts, dom, lo, hi) == 0
            swapped = swapped_winners(dom, ts)
            count = _grid_mismatches(ts, swapped, lo, hi)
            assert count == oracle_count(ts, swapped, lo, hi)
            swapped_total += count
        assert swapped_total > 0

    @pytest.mark.parametrize("lo, hi", [(F(0), F(2)), (F(-1, 3), F(5, 7))])
    def test_ties_gaps_overlaps_and_unknown_winners(self, lo, hi):
        # on [0, 2] both switch points 1/2 and 1 are grid points, where the
        # guard band and the first of two overlapping segment spans decide
        menu = TechnologySet([*samuelson_example().techniques, Technique("twin", (0, 7, 0))])
        dom = detect_reswitching(menu, lo, hi).map
        first, *rest = dom.segments
        maps = [
            dom,
            swapped_winners(dom, menu),
            replace(dom, segments=tuple(rest)),
            replace(dom, segments=()),
            replace(
                dom,
                segments=(first, *(replace(seg, winner="absent") for seg in rest)),
                boundaries=(),
            ),
        ]
        counts = [_grid_mismatches(menu, m, lo, hi) for m in maps]
        assert counts == [oracle_count(menu, m, lo, hi) for m in maps]
        assert counts[0] == 0 and all(counts[1:])


def cost_difference(a: Technique, b: Technique) -> list[int]:
    """The integer difference of the two techniques' cost rows, a positive
    multiple of cost_a - cost_b at unit wage, as `_cannot_reswitch` takes it."""
    return _subtract_ints(*_cost_rows(TechnologySet([a, b]).techniques)[0])


def seeded_and_fixture_pairs():
    """2,000 generated trials (both structures, horizons 2-6) as menus, then
    every pair of distinct profiles of every model in tests/data."""
    for structure in ("disjoint", "free"):
        cfg = GeneratorConfig(
            seed=31, trials=1000, horizon_min=2, horizon_max=6, structure=structure
        )
        for idx in range(cfg.trials):
            yield generate_technology(cfg, idx)
    for path in sorted(DATA.glob("*.json")):
        reps = load_model(str(path)).distinct_profiles()[0]
        for a, b in combinations(reps, 2):
            yield TechnologySet([a, b])


class TestDescartesScreen:
    """The trial screen of `run_falsification`: Descartes' rule of signs on
    the domain-mapped cost difference."""

    XLO, XHI = 1 + DEFAULT_LO, 1 + DEFAULT_HI

    def test_bound_holds_and_skipped_trials_cannot_reswitch(self):
        # roots in the open domain, with multiplicity, number at most the
        # variations and have their parity; a skipped trial's full map has
        # no reswitching and no tangency
        menus = list(seeded_and_fixture_pairs())
        assert len(menus) > 2000
        horizons, skipped, planted_size = set(), 0, 0
        for ts in menus:
            horizons.add(ts.horizon)
            f = cost_difference(*ts.techniques)
            if f:
                count = _domain_variations(f, self.XLO, self.XHI)
                roots = roots_with_multiplicity(f, self.XLO, self.XHI)
                assert roots <= count and (count - roots) % 2 == 0, ts
                planted_size += roots >= 2
            if _cannot_reswitch(ts, DEFAULT_LO, DEFAULT_HI):
                skipped += 1
                report = detect_reswitching(ts)
                assert not report.reswitching and report.tangencies == (), ts
        assert horizons == {2, 3, 4, 5, 6}
        assert planted_size > 0 and 0 < skipped < len(menus)

    def test_planted_pairs_have_two_variations(self):
        for seed in range(400):
            labors = _planted_two_switch(random.Random(seed), 3 + seed % 4)
            ts = TechnologySet([Technique("a", labors[0]), Technique("b", labors[1])])
            f = cost_difference(*ts.techniques)
            assert _domain_variations(f, self.XLO, self.XHI) >= 2
            assert not _cannot_reswitch(ts, DEFAULT_LO, DEFAULT_HI)

    @pytest.mark.parametrize(
        "a, b",
        [
            ((1, 0, 1), (0, 2, 0)),  # x(x - 1)**2: a tangency at 0%, the left edge
            ((3, 0), (0, 1)),  # x(3 - x): a switch at 200%, the right edge
            ((1, 2, 3), (1, 2, 3)),  # identical profiles
        ],
    )
    def test_edge_roots_and_identical_profiles_are_not_skipped(self, a, b):
        ts = TechnologySet([Technique("a", a), Technique("b", b)])
        assert not _cannot_reswitch(ts, DEFAULT_LO, DEFAULT_HI)

    def test_edge_tangency_is_in_the_full_map(self):
        # no root inside the domain, so the variation test alone would skip
        # this pair and lose its tangency
        ts = TechnologySet([Technique("a", (1, 0, 1)), Technique("b", (0, 2, 0))])
        f = cost_difference(*ts.techniques)
        assert _domain_variations(f, self.XLO, self.XHI) <= 1
        (tangency,) = detect_reswitching(ts).tangencies
        assert tangency.interest_exact == 0

    def test_detect_calls_on_seed_one(self, monkeypatch):
        # the maps the screen leaves on `falsify --seed 1 --trials 1000`: every
        # grid-check trial and every reswitching trial is among them
        generated, mapped = [], []
        generate, detect = harness.generate_technology, harness.detect_reswitching

        def generating(cfg, idx):
            generated.append(idx)
            return generate(cfg, idx)

        def detecting(*args, **kwargs):
            mapped.append(generated[-1])
            return detect(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_technology", generating)
        monkeypatch.setattr(harness, "detect_reswitching", detecting)
        report = run_falsification(GeneratorConfig(seed=1, trials=1000))
        assert len(mapped) == 410
        assert set(range(0, 1000, GRID_CHECK_EVERY)) <= set(mapped)
        assert set(report.reswitching_trials) <= set(mapped)
        assert report.grid_checks == 10
