"""Independent output checks for the benchmark.

Nothing here imports ``reswitch``: costs are summed directly from the labor
profiles with ``fractions.Fraction``, cheapest techniques are found by brute
force, and sign changes come from a uniform rational scan. Each function takes
plain data (tuples, dicts, Fractions) and returns a list of problems; an empty
list means the output passed. The checks run after the timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

SCAN_STEPS = 256
SEGMENT_POINTS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
FINE_SCAN_STEPS = 8192
# analyze prints irrational points as refined rationals (segment edges, to
# within 1e-9) or as percents with two decimals (switch points, to within
# 5e-5); these windows are wide enough to contain the true root
EDGE_WINDOW = Fraction(1, 10**6)
PERCENT_WINDOW = Fraction(1, 10**4)

Labor = Sequence[Fraction]


def cost(labor: Labor, x: Fraction) -> Fraction:
    """Unit cost at unit wage: sum over lags t of labor[t-1] * x**t."""
    acc = Fraction(0)
    for value in reversed(labor):
        acc = (acc + value) * x
    return acc


def cheapest(labors: dict[str, Labor], x: Fraction) -> set[str]:
    costs = {name: cost(labor, x) for name, labor in labors.items()}
    best = min(costs.values())
    return {name for name, c in costs.items() if c == best}


def recurring_winner(winners: Sequence[str]) -> Optional[str]:
    """The first technique that wins again after another one has won."""
    runs: list[str] = []
    for name in winners:
        if runs and runs[-1] == name:
            continue
        if name in runs:
            return name
        runs.append(name)
    return None


def sign_changes(la: Labor, lb: Labor, lo: Fraction, hi: Fraction, steps: int) -> int:
    """Sign changes of cost(la) - cost(lb) over a uniform grid on x in [1+lo,
    1+hi]; zeros are skipped. Each change proves an odd-multiplicity root.

    The grid points are m/C for integers m, so the scan runs homogenized
    integer Horner: P(m/C) * C**deg = sum_t c_t m**t C**(deg-t).
    """
    width = max(len(la), len(lb))
    diff = [Fraction(0)] + [
        Fraction(la[t] if t < len(la) else 0) - Fraction(lb[t] if t < len(lb) else 0)
        for t in range(width)
    ]
    den = math.lcm(*(c.denominator for c in diff))
    coeffs = [int(c * den) for c in diff]
    start, span = 1 + lo, hi - lo
    scale = math.lcm(start.denominator, span.denominator) * steps
    first, step = int(start * scale), int(span * scale / steps)
    degree = len(coeffs) - 1
    scaled = [c * scale ** (degree - t) for t, c in enumerate(coeffs)]
    signs = []
    for k in range(steps + 1):
        m = first + step * k
        acc = 0
        for s in reversed(scaled):
            acc = acc * m + s
        if acc:
            signs.append(acc > 0)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def check_dominance(
    labors: dict[str, Labor],
    domain: tuple[Fraction, Fraction],
    segments: Sequence[tuple[Fraction, Fraction, str, Sequence[str]]],
    edges: Sequence[Optional[tuple[Optional[Fraction], Fraction, Fraction]]],
    reswitching: bool,
    recurring: Optional[str],
) -> list[str]:
    """Segments tile the domain, the claimed winner is the brute-force
    cheapest technique inside each segment, consecutive winners tie at
    the edge between them, and the reswitch verdict follows the winners.

    ``edges[k]`` describes the edge between segments k and k+1 as
    ``(exact, lo, hi)``: an exact rational, or a bracket on the interest axis.
    """
    problems: list[str] = []
    if not segments:
        return ["empty dominance map"]
    if segments[0][0] != domain[0] or segments[-1][1] != domain[1]:
        problems.append("segments do not span the domain")
    for k, (lo, hi, winner, co_winners) in enumerate(segments):
        if not lo < hi:
            problems.append(f"segment {k} is empty: [{lo}, {hi}]")
            continue
        # the winner is cheapest everywhere inside and strictly cheapest away
        # from tangencies, which are finitely many, so one of three points
        # must show it alone (with techniques of identical profile)
        owned = [cheapest(labors, 1 + lo + (hi - lo) * f) for f in SEGMENT_POINTS]
        if any(winner not in o for o in owned) or {winner, *co_winners} not in owned:
            problems.append(f"segment {k}: cheapest {[sorted(o) for o in owned]}, map says {winner}")
    if len(edges) != len(segments) - 1:
        return problems + [f"{len(edges)} edges for {len(segments)} segments"]
    for k, edge in enumerate(edges):
        left, right = segments[k], segments[k + 1]
        if left[1] != right[0]:
            problems.append(f"gap between segments {k} and {k + 1}")
        if left[2] == right[2]:
            problems.append(f"segments {k} and {k + 1} share winner {left[2]}")
        if edge is None:
            problems.append(f"no boundary at the end of segment {k}")
            continue
        exact, lo, hi = edge
        a, b = labors[left[2]], labors[right[2]]
        if exact is not None:
            x = 1 + exact
            if cost(a, x) != cost(b, x) or cost(a, x) != min(
                cost(lab, x) for lab in labors.values()
            ):
                problems.append(f"exact boundary {exact} is not a minimal tie")
        elif not (lo <= left[1] <= hi) or not (
            cost(a, 1 + lo) < cost(b, 1 + lo) and cost(b, 1 + hi) < cost(a, 1 + hi)
        ):
            problems.append(f"bracket [{lo}, {hi}] does not separate {left[2]} and {right[2]}")
    expected = recurring_winner([s[2] for s in segments])
    if reswitching != (expected is not None) or recurring != expected:
        problems.append(
            f"verdict reswitching={reswitching} recurring={recurring}, winners say {expected}"
        )
    return problems


def check_pair_switch_points(
    la: Labor,
    lb: Labor,
    a: str,
    b: str,
    points: Sequence[tuple],
    lo: Fraction,
    hi: Fraction,
) -> list[str]:
    """Each switch point ``(exact, lo, hi, cheaper_below, cheaper_above,
    tie_cost_exact)`` of the pair (a, b) zeroes the cost difference (exact)
    or brackets a sign change (irrational); a rational scan finds no more
    crossings than listed, and the count has the parity the domain ends
    imply."""
    problems: list[str] = []
    labor = {a: la, b: lb}
    for exact, c_lo, c_hi, below, above, tie_cost in points:
        if {below, above} != {a, b}:
            problems.append(f"switch point names {below}/{above} for pair {a}/{b}")
            continue
        if not lo <= c_lo <= c_hi <= hi:
            problems.append(f"switch point [{c_lo}, {c_hi}] outside [{lo}, {hi}]")
        if exact is not None:
            x = 1 + exact
            if not c_lo == exact == c_hi or cost(la, x) != cost(lb, x):
                problems.append(f"exact switch point {exact} is not a tie of {a}/{b}")
            elif tie_cost is not None and tie_cost != cost(la, x):
                problems.append(f"tie cost {tie_cost} at {exact} is wrong")
        elif not (
            cost(labor[below], 1 + c_lo) < cost(labor[above], 1 + c_lo)
            and cost(labor[above], 1 + c_hi) < cost(labor[below], 1 + c_hi)
        ):
            problems.append(f"bracket [{c_lo}, {c_hi}] has no {below}->{above} crossing")
    seen = sign_changes(la, lb, lo, hi, SCAN_STEPS)
    if seen > len(points):
        problems.append(f"{a}/{b}: scan sees {seen} crossings, {len(points)} listed")
    d_lo = cost(la, 1 + lo) - cost(lb, 1 + lo)
    d_hi = cost(la, 1 + hi) - cost(lb, 1 + hi)
    if d_lo and d_hi and ((d_lo > 0) != (d_hi > 0)) != (len(points) % 2 == 1):
        problems.append(f"{a}/{b}: {len(points)} crossings contradict the end signs")
    return problems


def check_falsify_report(report: dict, generated: Sequence[dict[str, Labor]]) -> list[str]:
    """Report invariants, plus an independent reswitch verdict for every
    trial: two sign changes of the two-technique cost difference prove
    reswitching; a claimed reswitch must show them on a fine scan."""
    problems: list[str] = []
    trials = len(generated)
    found = report["reswitching_found"]
    expect = {
        "trials_run": trials,
        "counterexamples": [],
        "missing_complementary": [],
        "grid_mismatches": 0,
        "grid_checks": len(range(0, trials, 100)),
        "complementary_confirmed": found,
    }
    for key, value in expect.items():
        if report[key] != value:
            problems.append(f"report {key} = {report[key]!r}, expected {value!r}")
    if found != len(report["reswitching_trials"]):
        problems.append("reswitching_found disagrees with reswitching_trials")
    if report["theorem_verified"] + report["theorem_precondition_unmet"] != found:
        problems.append("verified + unmet does not cover the reswitching trials")
    claimed = set(report["reswitching_trials"])
    lo, hi = (Fraction(v) for v in report["config"]["domain"])
    for idx, labors in enumerate(generated):
        la, lb = labors.values()
        changes = sign_changes(la, lb, lo, hi, SCAN_STEPS)
        if idx in claimed and changes < 2:
            changes = sign_changes(la, lb, lo, hi, FINE_SCAN_STEPS)
        if (changes >= 2) != (idx in claimed):
            problems.append(f"trial {idx}: {changes} sign changes, claimed={idx in claimed}")
    return problems


def _unique_cheapest(names, labors, prices) -> Optional[str]:
    costs = [sum((p * v for p, v in zip(prices, lab)), Fraction(0)) for lab in labors]
    best = min(costs)
    owners = [n for n, c in zip(names, costs) if c == best]
    return owners[0] if len(owners) == 1 else None


def check_witness(names: Sequence[str], labors: Sequence[Labor], witness: dict) -> list[str]:
    """A complementarity witness replays: at the base prices its first
    technique is the unique cheapest, after raising p_j its second one is,
    and the demand for input k drops."""
    j, k = witness["pair"]
    base = list(witness["base_prices"])
    raised = list(base)
    raised[j - 1] = witness["raised_price"]
    by_name = dict(zip(names, labors))
    problems = []
    if any(p <= 0 for p in base) or not raised[j - 1] > base[j - 1]:
        problems.append("witness prices are not positive or p_j is not raised")
        return problems
    for prices, tech, demand in (
        (base, witness["technique_before"], witness["demand_before"]),
        (raised, witness["technique_after"], witness["demand_after"]),
    ):
        if _unique_cheapest(names, labors, prices) != tech:
            problems.append(f"{tech} is not the unique cheapest at {prices}")
        elif tuple(by_name[tech]) != tuple(demand):
            problems.append(f"demand {demand} is not the profile of {tech}")
    if not witness["demand_after"][k - 1] < witness["demand_before"][k - 1]:
        problems.append(f"demand for input {k} does not drop")
    return problems


def check_replayed_choice(choice, technique: str, demand: Sequence[Fraction]) -> list[str]:
    """The library's own chosen input vector agrees with a witness step."""
    if choice.is_tie or choice.technique != technique or tuple(choice.vector) != tuple(demand):
        return [f"chosen_input_vector picks {choice.technique}, witness says {technique}"]
    return []


def check_hatta(
    names: Sequence[str],
    labors: Sequence[Labor],
    witness: Optional[dict],
    expect_pair: Optional[tuple[int, int]],
) -> list[str]:
    """Horizon-2 menus have no complementary pair; planted menus return the
    planted pair; any witness replays."""
    if witness is None:
        return [f"no witness, planted pair {expect_pair}"] if expect_pair else []
    if len(labors[0]) == 2:
        return ["witness returned for a horizon-2 menu"]
    problems = check_witness(names, labors, witness)
    if expect_pair and tuple(witness["pair"]) != expect_pair:
        problems.append(f"witness pair {witness['pair']}, planted {expect_pair}")
    return problems


def _frac(text: Optional[str]) -> Optional[Fraction]:
    return None if text is None else Fraction(text)


def check_analyze_document(labors: dict[str, Labor], doc: dict) -> list[str]:
    """Check an ``analyze`` document on its meaning, not its bytes: new
    fields may appear, and the checked ones must hold for the model."""
    problems: list[str] = []
    names = list(labors)
    if {n: [Fraction(v) for v in lab] for n, lab in doc["techniques"].items()} != {
        n: list(lab) for n, lab in labors.items()
    }:
        problems.append("document techniques differ from the model")
    lo, hi = (Fraction(v) for v in doc["domain"])
    segments = [
        (Fraction(s["lo"]), Fraction(s["hi"]), s["winner"], s["co_winners"])
        for s in doc["dominance"]["segments"]
    ]
    exact_edges = {
        Fraction(b["interest_exact"])
        for b in doc["dominance"]["boundaries"]
        if b["interest_exact"] is not None
    }
    edges = []
    for seg in segments[:-1]:
        edge = seg[1]
        if edge in exact_edges:
            edges.append((edge, edge, edge))
        else:
            edges.append((None, edge - EDGE_WINDOW, edge + EDGE_WINDOW))
    if len(doc["dominance"]["boundaries"]) < len(edges):
        problems.append("fewer boundaries than segment edges")
    problems += check_dominance(
        labors, (lo, hi), segments, edges,
        doc["reswitching"]["found"], doc["reswitching"]["recurring"],
    )
    for a, b in ((x, y) for i, x in enumerate(names) for y in names[i + 1:]):
        points = []
        for sp in doc["switch_points"]:
            if {sp["cheaper_below"], sp["cheaper_above"]} != {a, b}:
                continue
            exact = _frac(sp["interest_exact"])
            if exact is None:
                mid = Fraction(sp["interest"]) / 100
                c_lo, c_hi = mid - PERCENT_WINDOW, mid + PERCENT_WINDOW
            else:
                c_lo = c_hi = exact
            points.append(
                (exact, c_lo, c_hi, sp["cheaper_below"], sp["cheaper_above"],
                 _frac(sp["tie_cost_exact"]))
            )
        problems += check_pair_switch_points(labors[a], labors[b], a, b, points, lo, hi)
    theorem = doc["theorem"]
    if theorem is not None and theorem["single_switch"] is False:
        problems.append(f"single_switch is False: {theorem['reason']}")
    witness = doc["complementarity"]
    if witness is not None:
        record = dict(witness)
        for key in ("base_prices", "demand_before", "demand_after"):
            record[key] = [Fraction(v) for v in witness[key]]
        record["raised_price"] = Fraction(witness["raised_price"])
        problems += check_witness(names, [labors[n] for n in names], record)
    return problems


def check_champagne_document(doc: dict) -> list[str]:
    """Samuelson's economy switches a -> b -> a with exact ties at 1/2 and 1."""
    exact = sorted(str(sp["interest_exact"]) for sp in doc["switch_points"])
    winners = [s["winner"] for s in doc["dominance"]["segments"]]
    if exact != ["1", "1/2"] or winners != ["a", "b", "a"]:
        return [f"champagne switch points {exact}, winners {winners}"]
    if doc["reswitching"]["recurring"] != "a" or doc["theorem"]["single_switch"] is not True:
        return ["champagne verdicts differ from the paper"]
    return []
