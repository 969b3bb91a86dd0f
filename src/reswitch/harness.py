"""Seeded falsification harness for the single-switch property.

Generates random small-rational technologies, hunts for reswitching over the
interest axis, and, wherever reswitching shows up, (a) confirms that a
complementary input pair exists and (b) re-verifies the single-switch
property in factor-price space whenever its preconditions hold. Trials are
pure functions of (seed, trial index), so reports are byte-identical across
runs and trial order. A trial that Descartes' rule of signs shows to have at
most one simple tie in the domain cannot reswitch and adds nothing to the
report, so it gets no dominance map (`_cannot_reswitch`), unless it is one
of the trials that the grid check reads.

A claimed counterexample must come with an exact-rational certificate; the
verification path is exact arithmetic end to end, so the counterexample list
stays empty unless the property itself is genuinely violated.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from .complementarity import find_complementary_pair
from .factorspace import support_groups, verify_single_switch
from .model import Technique, TechnologySet
from .polynomial import _domain_variations, _sign_at, _subtract_ints
from .switching import DEFAULT_HI, DEFAULT_LO, _cost_rows, detect_reswitching

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# generated labor coefficients: numerator in 1..NUMERATOR_MAX over a
# denominator from DENOMINATORS
NUMERATOR_MAX = 12
DENOMINATORS = (1, 2, 4)

GRID_CHECK_EVERY = 100
GRID_CHECK_POINTS = 300
_GRID_GUARD = Fraction(1, 10**6)
# the zero labor entry every generated profile shares
_ZERO = Fraction(0)
# the planted tie points to choose from: the quarters in (1, 3)
_QUARTERS = tuple(Fraction(n, 4) for n in range(5, 12))


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(seed: int, trial_index: int) -> int:
    """Derived per-trial seed: splitmix64(seed XOR splitmix64(trial))."""
    return _splitmix64((seed & _MASK64) ^ _splitmix64(trial_index & _MASK64))


@dataclass(frozen=True)
class GeneratorConfig:
    """Sampling ranges for random technologies.

    Coefficients are small rationals (numerator up to NUMERATOR_MAX over a
    denominator from DENOMINATORS) so switch-point polynomials stay low
    degree and isolation stays fast. `structure` controls whether the two
    techniques' positive lags are forced disjoint or drawn freely. Every
    run covers the default interest domain, DEFAULT_LO to DEFAULT_HI.
    """

    seed: int
    trials: int
    horizon_min: int = 3
    horizon_max: int = 5
    structure: str = "disjoint"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.horizon_min < 2:
            raise ValueError("horizon_min must be at least 2")
        if self.horizon_max < self.horizon_min:
            raise ValueError("horizon range is empty")
        if self.structure not in ("disjoint", "free"):
            raise ValueError(f"unknown support structure {self.structure!r}")


def _planted_two_switch(rng: random.Random, horizon: int) -> list[list[Fraction]]:
    """A disjoint pair built backwards from two chosen tie points.

    With a single-lag technique at lag s against lags s-1 and s+1, the cost
    difference factors through a quadratic; choosing its roots x1 != x2 in
    (1, 3) first and deriving the labor coefficients plants two genuine
    switch points inside the default interest domain. Reswitching is a
    knife-edge property under independent coefficient draws, so the harness
    concentrates part of its sampling mass on this constructive family.
    """
    base = rng.randint(1, horizon - 2)
    s = base + 1
    crossings = rng.sample(_QUARTERS, 2)
    x1, x2 = sorted(crossings)
    scale = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
    inner = scale * (x1 + x2)  # single-lag coefficient
    low = scale * x1 * x2  # owner's early-lag coefficient
    single = [_ZERO] * horizon
    single[s - 1] = inner
    owner = [_ZERO] * horizon
    owner[base - 1] = low
    owner[base + 1] = scale
    return [single, owner] if rng.random() < 0.5 else [owner, single]


def generate_technology(cfg: GeneratorConfig, trial_index: int) -> TechnologySet:
    """Deterministic technology for one trial."""
    rng = random.Random(trial_seed(cfg.seed, trial_index))
    horizon = rng.randint(cfg.horizon_min, cfg.horizon_max)

    def coeff() -> Fraction:
        return Fraction(rng.randint(1, NUMERATOR_MAX), rng.choice(DENOMINATORS))

    labors: list[list[Fraction]]
    if cfg.structure == "disjoint":
        shape = rng.random()
        if horizon >= 3 and shape < 0.4:
            labors = _planted_two_switch(rng, horizon)
        elif horizon >= 3 and shape < 0.7:
            # free coefficients on the same bracketed shape: one lag strictly
            # between two lags of the other technique
            s = rng.randint(2, horizon - 1)
            t_lo = rng.randint(1, s - 1)
            t_hi = rng.randint(s + 1, horizon)
            single = [_ZERO] * horizon
            single[s - 1] = coeff()
            owner = [_ZERO] * horizon
            owner[t_lo - 1] = coeff()
            owner[t_hi - 1] = coeff()
            labors = [single, owner] if rng.random() < 0.5 else [owner, single]
        else:
            lags = list(range(1, horizon + 1))
            rng.shuffle(lags)
            split = rng.randint(1, horizon - 1)
            first, second = lags[:split], lags[split:]
            labors = [
                [coeff() if t in first else _ZERO for t in range(1, horizon + 1)],
                [coeff() if t in second else _ZERO for t in range(1, horizon + 1)],
            ]
    else:
        labors = []
        for _ in range(2):
            profile = [
                coeff() if rng.random() < 0.6 else _ZERO for _ in range(horizon)
            ]
            if all(v == 0 for v in profile):
                profile[rng.randrange(horizon)] = coeff()
            labors.append(profile)
    return TechnologySet([Technique("a", labors[0]), Technique("b", labors[1])])


@dataclass(frozen=True)
class FalsificationReport:
    config: GeneratorConfig
    trials_run: int
    reswitching_found: int
    reswitching_trials: tuple[int, ...]
    complementary_confirmed: int
    missing_complementary: tuple[int, ...]
    theorem_verified: int
    theorem_precondition_unmet: int
    counterexamples: tuple[str, ...]
    tangencies_seen: int
    grid_checks: int
    grid_mismatches: int

    def to_dict(self) -> dict:
        """The config spelled out, then every other field by name, tuples
        as lists."""
        cfg = self.config
        out = {
            "config": {
                "seed": cfg.seed,
                "trials": cfg.trials,
                "horizon": [cfg.horizon_min, cfg.horizon_max],
                "numerator_max": NUMERATOR_MAX,
                "denominators": list(DENOMINATORS),
                "structure": cfg.structure,
                "disjoint_mix": "40% planted two-switch, 30% bracketed single "
                "lag, 30% random split",
                "domain": [str(DEFAULT_LO), str(DEFAULT_HI)],
                "trial_seed_mixing": "splitmix64(seed xor splitmix64(trial))",
            }
        }
        for f in fields(self)[1:]:  # every field after config
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _grid_mismatches(ts: TechnologySet, dom, lo: Fraction, hi: Fraction) -> int:
    """Brute-force cheapest-technique scan against the dominance map,
    skipping points inside a guard band around each boundary.

    The scan runs on Python ints. Grid point k is x_k = (x0 + k*dx) / scale.
    Every technique's unit-wage cost row (`switching._cost_rows`: one common
    denominator, the menu's degree) is evaluated at every x_k at once, by
    one homogenized-Horner pass per coefficient over the list of integer
    abscissae x0 + k*dx: each value is scale**degree times the row's value
    at x_k (`polynomial._scaled_value`), one positive integer scale for
    every row, so the integer costs have the same argmin sets as the
    Fraction costs at the menu's positive wage. Each grid column is then
    compared with its minimum: a point counts as a mismatch when its
    segment's winner costs more than the cheapest technique there. Each
    guard band and each segment's guarded span becomes a range of k by one
    exact ceil and floor; the first segment holding k wins.
    """
    points = GRID_CHECK_POINTS
    step = (hi - lo) / points
    start = 1 + lo
    scale = math.lcm(start.denominator, step.denominator)
    x0, dx = int(start * scale), int(step * scale)

    def k_range(a: Fraction, b: Fraction) -> range:
        """Grid indices k in [0, points] with a <= lo + k*step <= b."""
        first = max(0, math.ceil((a - lo) / step))
        return range(first, min(points, math.floor((b - lo) / step)) + 1)

    skipped = bytearray(points + 1)
    for b in dom.boundaries:
        for k in k_range(b.interest_approx - _GRID_GUARD, b.interest_approx + _GRID_GUARD):
            skipped[k] = 1
    owner: list[Optional[str]] = [None] * (points + 1)
    for seg in dom.segments:
        for k in k_range(seg.lo - _GRID_GUARD, seg.hi + _GRID_GUARD):
            if owner[k] is None:
                owner[k] = seg.winner

    xs = [x0 + k * dx for k in range(points + 1)]
    costs = {}
    for name, row in zip(ts.names, _cost_rows(ts.techniques)[0]):
        values = [0] * (points + 1)
        power = 1
        for c in reversed(row):
            term = c * power
            values = [v * x + term for v, x in zip(values, xs)]
            power *= scale
        costs[name] = values
    cheapest = [min(column) for column in zip(*costs.values())]

    mismatches = 0
    for k in range(points + 1):
        if skipped[k]:
            continue
        winner = owner[k]
        # no segment covers the point, or no such technique, or a dearer one
        if winner not in costs or costs[winner][k] > cheapest[k]:
            mismatches += 1
    return mismatches


def _cannot_reswitch(ts: TechnologySet, lo: Fraction, hi: Fraction) -> bool:
    """Whether Descartes' rule of signs proves that the trial's two
    techniques have at most one simple tie in the closed domain [lo, hi].

    f, the integer difference of their cost rows, is nonzero, nonzero at
    both domain ends, and its domain-mapped vector has at most one sign
    variation (`polynomial._domain_variations`), so f has at most one root
    in the open domain, simple if any. Then the dominance map has at most
    two segments with different winners (no reswitching) and no even tie
    (no tangency), so the trial adds nothing to the report.
    """
    xlo, xhi = 1 + lo, 1 + hi
    f = _subtract_ints(*_cost_rows(ts.techniques)[0])
    return (
        bool(f)
        and _sign_at(f, xlo) != 0
        and _sign_at(f, xhi) != 0
        and _domain_variations(f, xlo, xhi) <= 1
    )


def run_falsification(cfg: GeneratorConfig) -> FalsificationReport:
    lo, hi = DEFAULT_LO, DEFAULT_HI
    reswitch_trials: list[int] = []
    missing: list[int] = []
    counterexamples: list[str] = []
    verified = 0
    unmet = 0
    tangencies = 0
    grid_checks = 0
    grid_bad = 0

    for idx in range(cfg.trials):
        ts = generate_technology(cfg, idx)
        grid_check = idx % GRID_CHECK_EVERY == 0
        if not grid_check and _cannot_reswitch(ts, lo, hi):
            continue
        report = detect_reswitching(ts, lo, hi)
        tangencies += len(report.tangencies)
        if grid_check:
            grid_checks += 1
            grid_bad += _grid_mismatches(ts, report.map, lo, hi)
        if not report.reswitching:
            continue
        reswitch_trials.append(idx)
        if find_complementary_pair(ts) is None:
            missing.append(idx)
        for group in support_groups(ts):
            verdict = verify_single_switch(ts, group, lo, hi)
            if verdict.single_switch is True:
                verified += 1
                break
            if verdict.single_switch is False:
                counterexamples.append(
                    f"trial {idx}: single-switch violated for group "
                    f"{sorted(group.lags)}: {verdict.counterexample}"
                )
                break
        else:  # no group met the theorem's preconditions
            unmet += 1

    return FalsificationReport(
        config=cfg,
        trials_run=cfg.trials,
        reswitching_found=len(reswitch_trials),
        reswitching_trials=tuple(reswitch_trials),
        complementary_confirmed=len(reswitch_trials) - len(missing),
        missing_complementary=tuple(missing),
        theorem_verified=verified,
        theorem_precondition_unmet=unmet,
        counterexamples=tuple(counterexamples),
        tangencies_seen=tangencies,
        grid_checks=grid_checks,
        grid_mismatches=grid_bad,
    )
