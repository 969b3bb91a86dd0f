"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Tolerances are pinned here and nowhere else."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

from cli_process import run_cli
from oracles import _fraction_derivative, fraction_gcd, oracle_root_value, scan_sign_roots
from reswitch import (
    FactorGroup,
    GeneratorConfig,
    Polynomial,
    Technique,
    complementarity_witness,
    curve_minimum,
    detect_reswitching,
    format_fixed,
    isolate_real_roots,
    pairwise_switch_points,
    refine_root,
    relative_price_curve,
    run_falsification,
    samuelson_example,
    symmetric_interest_pairs,
    verify_single_switch,
)

MODEL = str(Path(__file__).parent / "data" / "samuelson.json")


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {title}")
        raise
    print(f"ACCEPTANCE {number} PASS {title}")


def test_criterion_1_table1_values_and_runtime():
    with criterion(1, "unit-cost table matches all 14 printed values in < 1 s"):
        ts = samuelson_example()
        rates = [F(150), F(125), F(100), F(75), F(50), F(25), F(0)]
        start = time.monotonic()
        rendered = []
        for pct in rates:
            i = pct / 100
            for tech in ts.techniques:
                rendered.append(format_fixed(tech.cost_at(ts.wage, i), 2))
        elapsed = time.monotonic() - start
        assert rendered == [
            "43.75", "46.25",
            "35.44", "36.28",
            "28.00", "28.00",
            "21.44", "21.22",
            "15.75", "15.75",
            "10.94", "11.41",
            "7.00", "8.00",
        ]
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_switch_points_exact():
    with criterion(2, "switch points are exactly 1/2 and 1 with tie costs 63/4, 28"):
        ts = samuelson_example()
        a, b = ts.techniques
        points = pairwise_switch_points(a, b)
        assert [(p.interest_exact, p.tie_cost_exact) for p in points] == [
            (F(1, 2), F(63, 4)),
            (F(1), F(28)),
        ]
        assert all(p.certificate.lo == p.certificate.hi for p in points)


def test_criterion_3_reswitching_detected():
    with criterion(3, "dominance runs a -> b -> a on [0, 1.5] with a recurring"):
        report = detect_reswitching(samuelson_example(), F(0), F(3, 2))
        assert report.map.winners == ("a", "b", "a")
        assert report.reswitching and report.recurring == "a"


def test_criterion_4_table2_rows_and_minimum_certificate():
    with criterion(4, "ratio table matches all 6 rows; minimum certified to 1e-6"):
        cp = run_cli(
            "table2", "--model", MODEL, "--group", "1,3", "--rates", "0,20,25,100/3,50"
        )
        assert cp.returncode == 0, cp.stderr
        rows = [line.split(",") for line in cp.stdout.strip().splitlines()][1:]
        assert rows == [
            ["6.9282", "73.21", "98.97", "*"],
            ["7.00", "50.00 and 100.00", "100.00", "**"],
            ["7.17", "33.33 and 125.00", "102.38", ""],
            ["7.30", "25.00 and 140.00", "104.29", ""],
            ["7.40", "20.00 and 150.00", "105.71", ""],
            ["8.00", "0.00 and 200.00", "114.29", ""],
        ]
        # minimum row certificate: the level where the preimage quadratic
        # 2x^2 - rho x + 6 has a double root, i.e. the root of rho^2 - 48
        discriminant = Polynomial([-48, 0, 1])
        (bracket,) = isolate_real_roots(discriminant, F(0), None)
        rho_star = refine_root(bracket, discriminant, F(1, 10**6))
        minimum = curve_minimum(samuelson_example(), FactorGroup.of(1, 3))
        assert abs(minimum.relative_price - rho_star) <= F(1, 10**6)


def test_criterion_5_single_switch_in_factor_price_space():
    with criterion(5, "cost ratio is single-valued and monotone; one crossing at 7"):
        ts = samuelson_example()
        group = FactorGroup.of(1, 3)
        pairs = symmetric_interest_pairs(ts, group, 110)
        assert len(pairs) >= 100
        curve = []
        for i1, i2 in pairs:
            p1 = relative_price_curve(ts, group, [i1])[0]
            p2 = relative_price_curve(ts, group, [i2])[0]
            assert (1 + i1) * (1 + i2) == 3
            assert p1.relative_price == p2.relative_price  # single-valued
            assert p1.cost_ratio == p2.cost_ratio
            curve.append((p1.relative_price, p1.cost_ratio))
        curve.sort()
        for (ra, ca), (rb, cb) in zip(curve, curve[1:]):
            if ra != rb:
                assert ca < cb  # strictly increasing
        crossings = {rel for rel, ratio in curve if ratio == 1}
        assert crossings <= {F(7)}
        verdict = verify_single_switch(ts, group)
        assert verdict.single_switch is True
        assert verdict.crossing.relative_price == 7
        preimages = [r.lo for r in verdict.crossing.interest_preimages]
        assert preimages == [F(1, 2), F(1)]
        assert all(r.is_exact for r in verdict.crossing.interest_preimages)


def test_criterion_6_structural_equals_reduced_identity():
    with criterion(6, "structural cost equals reduced cost on 10^4 random triples"):
        rng = random.Random(2718281828)
        failures = 0
        for _ in range(10_000):
            horizon = rng.randint(1, 6)
            labor = [
                F(rng.randint(0, 9), rng.choice((1, 2, 4))) for _ in range(horizon)
            ]
            if all(v == 0 for v in labor):
                labor[rng.randrange(horizon)] = F(1)
            tech = Technique("t", labor)
            wage = F(rng.randint(1, 50), rng.randint(1, 10))
            interest = F(rng.randint(-90, 300), 100)
            from reswitch import FactorPricePoint

            fp = FactorPricePoint.at(horizon, wage, interest)
            if tech.structural_cost(fp) != tech.cost_at(wage, interest):
                failures += 1
        assert failures == 0


def test_criterion_7_complementarity_witness():
    with criterion(7, "labor/late-capital pair witnessed: demand drops 2 -> 0"):
        from reswitch import chosen_input_vector

        ts = samuelson_example()
        witness = complementarity_witness(ts, (1, 3))
        assert witness is not None
        assert witness.pair == (1, 3)
        assert witness.demand_before[2] == 2
        assert witness.demand_after[2] == 0
        assert witness.raised_price > witness.base_prices[0]
        # replay: only the labor price moves, and the choice actually flips
        assert chosen_input_vector(ts, witness.base_prices).vector[2] == 2
        raised = list(witness.base_prices)
        raised[0] = witness.raised_price
        assert chosen_input_vector(ts, raised).vector[2] == 0


def test_criterion_8_falsification_run():
    with criterion(8, "1000 seeded trials: no counterexamples, Hatta 100%, < 60 s"):
        cfg = GeneratorConfig(seed=1, trials=1000, structure="disjoint")
        start = time.monotonic()
        report = run_falsification(cfg)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        assert report.trials_run == 1000
        assert report.counterexamples == ()
        assert report.reswitching_found > 0
        assert report.missing_complementary == ()
        assert report.complementary_confirmed == report.reswitching_found
        assert report.grid_mismatches == 0
        assert report.to_json() == run_falsification(cfg).to_json()


def test_criterion_9_root_isolation_soundness():
    with criterion(9, "certified isolation matches sign-scan oracle on 500 polys"):
        rng = random.Random(314159)
        checked = 0
        discrepancies = 0
        while checked < 500:
            degree = rng.randint(1, 8)
            coeffs = [rng.randint(-8, 8) for _ in range(degree)]
            coeffs.append(rng.choice([c for c in range(-8, 9) if c]))
            p = Polynomial(coeffs)
            if len(fraction_gcd(coeffs, _fraction_derivative(coeffs))) != 1:
                continue  # sign scans cannot certify repeated roots
            checked += 1
            expected = scan_sign_roots(coeffs, F(-4), F(4), denom=512)
            expected = [e for e in expected if oracle_root_value(e) < 4]
            got = isolate_real_roots(p, F(-4), F(4))
            if len(got) != len(expected):
                discrepancies += 1
                continue
            for iv, entry in zip(got, expected):
                target = oracle_root_value(entry)
                approx = refine_root(iv, p, F(1, 2**45))
                if abs(approx - target) > F(1, 10**8):
                    discrepancies += 1
        assert checked == 500
        assert discrepancies == 0
