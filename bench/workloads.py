"""Seeded request streams for the four benchmark workloads.

Request ``i`` of a workload is a pure function of ``(workload, seed, i)``, so
a run never repeats an input and two runs with one seed see the same inputs.
Each stream cycles through a fixed schedule of input sizes (the stratum is
``i`` modulo a small period) and draws only the contents from the seed; that
keeps the cost mix of a run the same from seed to seed.

``reswitch`` only ever sees the generated inputs. Every call goes through a
module attribute (``switching.detect_reswitching``, not a name bound at
import), so the traced run can wrap the same entry points.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

from reswitch import cli, complementarity, harness, switching
from reswitch.model import Technique, TechnologySet

import checks

TRIALS_PER_REQUEST = 25
SAMUELSON = (("a", ("0", "7", "0")), ("b", ("6", "0", "2")))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds are hashed with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{index}")


def _small_rational(rng: random.Random, zero_share: float = 0.0) -> Fraction:
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(1, 12), rng.choice((1, 2, 4)))


def _distinct_menu(
    rng: random.Random, size: int, horizon: int, zero_share: float
) -> TechnologySet:
    seen: set[tuple[Fraction, ...]] = set()
    techniques = []
    while len(techniques) < size:
        labor = tuple(_small_rational(rng, zero_share) for _ in range(horizon))
        if all(v == 0 for v in labor) or labor in seen:
            continue
        seen.add(labor)
        techniques.append(Technique(f"t{len(techniques)}", labor))
    return TechnologySet(techniques)


def _labors(ts: TechnologySet) -> dict[str, tuple[Fraction, ...]]:
    return {t.name: t.labor for t in ts.techniques}


# --- falsify ---------------------------------------------------------------


def falsify_request(seed: int, index: int, workdir: str) -> harness.GeneratorConfig:
    """CLI-default falsification config over TRIALS_PER_REQUEST trials."""
    trial_seed = _rng("falsify", seed, index).getrandbits(48)
    return harness.GeneratorConfig(seed=trial_seed, trials=TRIALS_PER_REQUEST)


def falsify_execute(cfg: harness.GeneratorConfig):
    return harness.run_falsification(cfg)


def falsify_check(cfg, report) -> list[str]:
    generated = [
        _labors(harness.generate_technology(cfg, k)) for k in range(cfg.trials)
    ]
    return checks.check_falsify_report(report.to_dict(), generated)


def falsify_summary(reports) -> dict[str, int]:
    return {
        "harness.trials": sum(r.trials_run for r in reports),
        "harness.grid_checks": sum(r.grid_checks for r in reports),
        "switching.reswitch_found": sum(r.reswitching_found for r in reports),
        "factorspace.verified": sum(r.theorem_verified for r in reports),
        "complementarity.search.calls": sum(r.reswitching_found for r in reports),
        "complementarity.witness_found": sum(
            r.complementary_confirmed for r in reports
        ),
    }


# --- menu ------------------------------------------------------------------

MENU_SIZES = (6, 7, 8, 9, 10)
MENU_HORIZONS = (4, 5, 6)


def menu_request(seed: int, index: int, workdir: str) -> TechnologySet:
    size = MENU_SIZES[index % len(MENU_SIZES)]
    horizon = MENU_HORIZONS[(index // len(MENU_SIZES)) % len(MENU_HORIZONS)]
    return _distinct_menu(_rng("menu", seed, index), size, horizon, zero_share=0.3)


def menu_execute(ts: TechnologySet):
    """The switching part of ``analyze``: the dominance map and reswitch
    verdict, then the switch points of every pair."""
    report = switching.detect_reswitching(ts)
    points = [
        switching.pairwise_switch_points(u, v)
        for u, v in combinations(ts.techniques, 2)
    ]
    return report, points


def _switch_record(sp) -> tuple:
    return (
        sp.interest_exact,
        sp.certificate.lo,
        sp.certificate.hi,
        sp.cheaper_below,
        sp.cheaper_above,
        sp.tie_cost_exact,
    )


def menu_check(ts: TechnologySet, output) -> list[str]:
    report, points = output
    labors = _labors(ts)
    dom = report.map
    by_edge = {b.interest_approx: b for b in dom.boundaries}
    edges = []
    for seg in dom.segments[:-1]:
        b = by_edge.get(seg.hi)
        edges.append(None if b is None else (b.interest_exact, b.certificate.lo, b.certificate.hi))
    problems = checks.check_dominance(
        labors,
        dom.domain,
        [(s.lo, s.hi, s.winner, s.co_winners) for s in dom.segments],
        edges,
        report.reswitching,
        report.recurring,
    )
    pairs = list(combinations(ts.names, 2))
    if len(points) != len(pairs):
        return problems + [f"{len(points)} switch-point lists for {len(pairs)} pairs"]
    lo, hi = report.map.domain
    for (a, b), found in zip(pairs, points):
        problems += checks.check_pair_switch_points(
            labors[a], labors[b], a, b, [_switch_record(sp) for sp in found], lo, hi
        )
    return problems


def menu_summary(outputs) -> dict[str, int]:
    reports = [report for report, _ in outputs]
    return {
        "switching.dominance.calls": len(reports),
        "switching.reswitch_found": sum(r.reswitching for r in reports),
        "switching.segments": sum(len(r.map.segments) for r in reports),
        "switching.boundaries": sum(len(r.map.boundaries) for r in reports),
    }


# --- analyze ---------------------------------------------------------------

ANALYZE_DIGITS = range(1, 11)
QUARTERS = [Fraction(n, 4) for n in range(5, 12)]  # x = 1 + i inside (1, 3)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class ModelFile:
    path: str
    labors: dict[str, tuple[Fraction, ...]]


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact below 3e24."""
    if n < 2:
        return False
    for p in PRIME_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    """A random prime in [lo, hi); the range must hold one."""
    while True:
        n = rng.randrange(lo, hi)
        if _is_prime(n):
            return n


def _quadratic(rng: random.Random, digits: int, exact: bool) -> tuple[int, int, int]:
    """(c2, c1, c0) of c2 x**2 - c1 x + c0 with two roots inside (1, 3).

    Exact: the roots are p1/q1 and p2/q2 for primes p, q of about
    ``digits``/2 digits each. Irrational: c2 and c0 are ``digits``-digit
    primes and the discriminant is not a square. Either way both end
    coefficients have few divisors, so the rational-root search costs what
    the digit count makes it cost.
    """
    if exact:
        half = (digits + 1) // 2
        while True:
            q1, q2 = (_prime_in(rng, max(2, 10 ** (half - 1)), 10**half) for _ in range(2))
            p1, p2 = (_prime_in(rng, q + 1, 3 * q) for q in (q1, q2))
            if p1 * q2 != p2 * q1:
                return q1 * q2, p1 * q2 + p2 * q1, p1 * p2
    while True:
        c2 = _prime_in(rng, max(2, 10 ** (digits - 1)), 10**digits)
        r1, r2 = sorted(rng.sample(QUARTERS, 2))
        c0 = _prime_in(rng, int(c2 * r1 * r2) + 1, int(c2 * r1 * r2) + 40 * digits + 40)
        c1 = round(c2 * (r1 + r2))
        disc = c1 * c1 - 4 * c2 * c0
        if disc <= 0 or math.isqrt(disc) ** 2 == disc:
            continue
        roots = [(c1 + sign * Fraction(math.isqrt(disc))) / (2 * c2) for sign in (-1, 1)]
        if all(1 < r < 3 for r in roots):  # isqrt error is far below the margin
            return c2, c1, c0


def analyze_request(seed: int, index: int, workdir: str) -> ModelFile:
    """Request 0 is the champagne fixture. Then models with planted exact
    switches and with irrational ones alternate, their labor values cycling
    through 1..10 digits: a single lag s against lags s-1 and s+1, so the
    cost difference is x**(s-1) times the planted quadratic."""
    if index == 0:
        labors = {n: tuple(Fraction(v) for v in lab) for n, lab in SAMUELSON}
    else:
        rng = _rng("analyze", seed, index)
        digits = ANALYZE_DIGITS[(index - 1) // 2 % len(ANALYZE_DIGITS)]
        c2, c1, c0 = _quadratic(rng, digits, exact=index % 2 == 1)
        horizon = rng.randint(3, 5)
        s = rng.randint(2, horizon - 1)
        single = [Fraction(0)] * horizon
        owner = [Fraction(0)] * horizon
        single[s - 1] = Fraction(c1)
        owner[s - 2], owner[s] = Fraction(c0), Fraction(c2)
        pair = [single, owner] if rng.random() < 0.5 else [owner, single]
        labors = {"a": tuple(pair[0]), "b": tuple(pair[1])}
    doc = {
        "wage": "1",
        "output_price": "1",
        "techniques": [
            {"name": n, "labor": [str(v) for v in lab]} for n, lab in labors.items()
        ],
    }
    path = os.path.join(workdir, f"model-{index}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return ModelFile(path, labors)


def analyze_execute(model: ModelFile):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["analyze", "--model", model.path])
    return code, out.getvalue()


def analyze_check(model: ModelFile, output) -> list[str]:
    code, text = output
    if code != 0:
        return [f"analyze exited {code}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"analyze printed invalid JSON: {exc}"]
    problems = checks.check_analyze_document(model.labors, doc)
    if model.labors == {n: tuple(Fraction(v) for v in lab) for n, lab in SAMUELSON}:
        problems += checks.check_champagne_document(doc)
    return problems


def analyze_summary(outputs) -> dict[str, int]:
    docs = [json.loads(text) for _, text in outputs]
    return {
        "switching.reswitch_found": sum(d["reswitching"]["found"] for d in docs),
        "switching.segments": sum(len(d["dominance"]["segments"]) for d in docs),
        "switching.boundaries": sum(len(d["dominance"]["boundaries"]) for d in docs),
        "factorspace.verified": sum(
            bool(d["theorem"]) and d["theorem"]["single_switch"] is True for d in docs
        ),
        "complementarity.witness_found": sum(
            d["complementarity"] is not None for d in docs
        ),
    }


# --- hatta -----------------------------------------------------------------

HATTA_SIZES = (3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class HattaMenu:
    planted: bool
    menu: TechnologySet


def _planted_complements(rng: random.Random) -> TechnologySet:
    """Technique a uses more of inputs 1 and 2 than b, b more of input 3, and
    a is cheaper at the lowest grid prices; raising p1 then switches a to b
    and drops the demand for input 2. Technique c costs more than both at
    every positive price, so the search exits at its first grid line."""
    a1, a2, b1, b2 = (Fraction(rng.randint(lo, hi)) for lo, hi in ((5, 12), (5, 12), (1, 4), (1, 4)))
    a3 = Fraction(rng.randint(1, 3))
    b3 = a3 + (a1 - b1) + (a2 - b2) + rng.randint(1, 6)
    a, b = (a1, a2, a3), (b1, b2, b3)
    c = tuple(max(u, v) + rng.randint(1, 4) for u, v in zip(a, b))
    techniques = [Technique("a", a), Technique("b", b), Technique("c", c)]
    rng.shuffle(techniques)
    return TechnologySet(techniques)


def hatta_request(seed: int, index: int, workdir: str) -> HattaMenu:
    """Two horizon-2 menus that exhaust the grid, then one planted menu."""
    rng = _rng("hatta", seed, index)
    if index % 3 == 2:
        return HattaMenu(True, _planted_complements(rng))
    ordinal = index // 3 * 2 + index % 3  # count of horizon-2 menus before this one
    size = HATTA_SIZES[ordinal % len(HATTA_SIZES)]
    return HattaMenu(False, _distinct_menu(rng, size, 2, zero_share=0.0))


def hatta_execute(request: HattaMenu):
    return complementarity.find_complementary_pair(request.menu)


def hatta_check(request: HattaMenu, witness) -> list[str]:
    menu = request.menu
    record = None if witness is None else {
        f: getattr(witness, f)
        for f in ("pair", "base_prices", "raised_price", "demand_before",
                  "demand_after", "technique_before", "technique_after")
    }
    problems = checks.check_hatta(
        list(menu.names), [t.labor for t in menu.techniques], record,
        expect_pair=(1, 2) if request.planted else None,
    )
    if witness is None or problems:
        return problems
    # the witness also replays under the library's own demand function
    raised = list(witness.base_prices)
    raised[witness.pair[0] - 1] = witness.raised_price
    return checks.check_replayed_choice(
        complementarity.chosen_input_vector(menu, witness.base_prices),
        witness.technique_before, witness.demand_before,
    ) + checks.check_replayed_choice(
        complementarity.chosen_input_vector(menu, raised),
        witness.technique_after, witness.demand_after,
    )


def hatta_summary(witnesses) -> dict[str, int]:
    return {
        "complementarity.search.calls": len(witnesses),
        "complementarity.witness_found": sum(w is not None for w in witnesses),
    }


# --- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``units`` is the work one request completes (trials for ``falsify``,
    one menu, model or search otherwise). ``tail_pct`` is the highest
    percentile with at least ten requests beyond it at the request count of
    a baseline run; ``trace_requests`` is the fixed request list of the
    traced run.
    """

    name: str
    request: Callable[[int, int, str], Any]
    execute: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    summary: Callable[[list], dict[str, int]]
    units: int
    tail_pct: int
    trace_requests: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("falsify", falsify_request, falsify_execute, falsify_check,
                 falsify_summary, TRIALS_PER_REQUEST, 80, 20),
        Workload("menu", menu_request, menu_execute, menu_check,
                 menu_summary, 1, 75, 24),
        Workload("analyze", analyze_request, analyze_execute, analyze_check,
                 analyze_summary, 1, 95, 150),
        Workload("hatta", hatta_request, hatta_execute, hatta_check,
                 hatta_summary, 1, 85, 24),
    )
}
