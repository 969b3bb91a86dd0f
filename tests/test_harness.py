import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import reswitch.factorspace as factorspace
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
from reswitch.harness import _grid_mismatches

from oracles import grid_mismatches


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
