"""Command-line surface: model ingestion, cost tables, curve data, analysis
reports, and falsification runs.

Model files are JSON with every rational carried as a string ("7", "1/2",
"0.25"); a JSON number is read exactly from its text, never through a binary
float, and exponent notation ("1e5") is rejected in either form. A model:

    {"wage": "1", "output_price": "1",
     "techniques": [{"name": "a", "labor": ["0", "7", "0"]},
                    {"name": "b", "labor": ["6", "0", "2"]}]}

Interest rates are accepted as percents by default ("50") or as fractions
with --unit fraction ("1/2"). CSV goes to stdout with LF line endings;
decimal cells are rounded half away from zero, and interest preimages print
at two decimals (an exact one-third rate renders as "33.33"). Exit codes:
0 success, 1 analysis error (domain or aggregability), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .complementarity import find_complementary_pair
from .errors import DomainError, ModelFormatError, NotAggregableError, ReswitchError
from .factorspace import (
    FactorGroup,
    _validate_group,
    curve_minimum,
    refined_interest_rates,
    relative_price_curve,
    support_groups,
    verify_single_switch,
)
from .harness import GeneratorConfig, run_falsification
from .model import Technique, TechnologySet
from .rationals import (
    format_fixed,
    int_decimal,
    int_limit_problem,
    parse_rational,
    quote_short,
)
from .switching import MenuAnalysis, cost_ratio_curve, detect_reswitching

MIN_ROW_PLACES = 4  # the starred minimum row keeps extra digits
MAX_GRID_POINTS = 100_001  # cap on `curves --grid`, checked before allocating
MAX_PRECISION = 10_000  # cap on --precision: output length grows with its value


class FlagError(Exception):
    """Malformed flag value; reported as a usage error (exit code 2)."""


def load_model(path: str) -> TechnologySet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=parse_rational)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"model parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, ModelFormatError) as exc:  # digit limit, bad UTF-8, exponent
        raise ModelFormatError(f"model parse error in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ModelFormatError("model root must be a JSON object")
    wage = parse_rational(raw.get("wage", "1"))
    # output is the numeraire, so no command reads output_price; the key is
    # accepted for the model files that carry it, and must be positive
    price = parse_rational(raw.get("output_price", "1"))
    if price <= 0:
        raise ModelFormatError(f"output_price must be positive, got {price}")
    entries = raw.get("techniques")
    if not isinstance(entries, list) or not entries:
        raise ModelFormatError("model field 'techniques' must be a nonempty list")
    techniques = []
    for pos, entry in enumerate(entries):
        where = f"techniques[{pos}]"
        if not isinstance(entry, dict):
            raise ModelFormatError(f"{where}: expected an object")
        name = entry.get("name")
        labor = entry.get("labor")
        if not isinstance(name, str) or not name:
            raise ModelFormatError(f"{where}.name: expected a nonempty string")
        if not isinstance(labor, list) or not labor:
            raise ModelFormatError(f"{where}.labor: expected a nonempty list")
        values = []
        for fpos, cell in enumerate(labor):
            try:
                values.append(parse_rational(cell))
            except ModelFormatError as exc:
                raise ModelFormatError(f"{where}.labor[{fpos}]: {exc}") from exc
        techniques.append(Technique(name, values))
    return TechnologySet(techniques, wage=wage)


def _rate_to_interest(text: str, unit: str) -> Fraction:
    value = parse_rational(text)
    return value / 100 if unit == "percent" else value


def parse_rate_list(text: str, unit: str) -> list[Fraction]:
    if not text.strip():
        return []
    rates = []
    for chunk in text.split(","):
        try:
            i = _rate_to_interest(chunk, unit)
        except ModelFormatError as exc:
            raise FlagError(f"bad rate {quote_short(chunk.strip())}: {exc}") from exc
        if i <= -1:
            raise DomainError(f"interest rate {quote_short(chunk.strip())} is at or below -100%")
        rates.append(i)
    return rates


def parse_group(text: str) -> FactorGroup:
    try:
        lags = [int(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError as exc:
        problem = int_limit_problem(text) or "lags must be integers"
        raise FlagError(f"bad group spec {quote_short(text)}: {problem}") from exc
    if not lags:
        raise FlagError("group spec is empty")
    if min(lags) < 1:
        raise FlagError(f"bad group spec {quote_short(text)}: lags start at 1")
    return FactorGroup.of(*lags)


def model_group(ts: TechnologySet, text: str, command: str) -> FactorGroup:
    """The --group of `table2` or `curves figure3`, checked against the model.

    A group outside the model's horizon or covering every lag, or a model of
    more than two techniques, is an analysis error.
    """
    group = parse_group(text)
    if len(ts) > 2:
        raise ModelFormatError(f"{command} needs at most two techniques")
    try:
        _validate_group(ts, group)
    except ValueError as exc:
        raise NotAggregableError(str(exc)) from exc
    return group


def parse_grid(text: str, unit: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise FlagError(f"grid spec {quote_short(text)} must be LO:HI:STEP")
    try:
        lo = _rate_to_interest(parts[0], unit)
        hi = _rate_to_interest(parts[1], unit)
        step = _rate_to_interest(parts[2], unit)
    except ModelFormatError as exc:
        raise FlagError(f"bad grid spec {quote_short(text)}: {exc}") from exc
    if step <= 0:
        raise FlagError("grid step must be positive")
    if hi < lo:
        raise FlagError("grid upper bound below lower bound")
    if lo <= -1:
        raise DomainError(f"grid start {quote_short(parts[0].strip())} is at or below -100%")
    count = (hi - lo) // step + 1
    if count > MAX_GRID_POINTS:
        raise FlagError(f"grid spec {quote_short(text)} has more than {MAX_GRID_POINTS} points")
    return [lo + k * step for k in range(count)]


def parse_domain(text: str, unit: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise FlagError(f"domain spec {quote_short(text)} must be LO:HI")
    try:
        lo = _rate_to_interest(parts[0], unit)
        hi = _rate_to_interest(parts[1], unit)
    except ModelFormatError as exc:
        raise FlagError(f"bad domain spec {quote_short(text)}: {exc}") from exc
    if hi <= lo:
        raise FlagError("domain upper bound must exceed lower bound")
    return lo, hi


def _exact(value: Fraction) -> str:
    """`str(value)` for a Fraction of any size: "n" or "n/d"."""
    text = int_decimal(value.numerator)
    if value.denominator == 1:
        return text
    return f"{text}/{int_decimal(value.denominator)}"


def _emit_csv(rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def cmd_table1(args) -> int:
    ts = load_model(args.model)
    rates = parse_rate_list(args.rates, args.unit)
    places = args.precision if args.precision is not None else 2
    header = ["interest_pct"] + [f"cost_{t.name}" for t in ts.techniques] + ["switch"]
    if args.exact:
        header += [f"cost_{t.name}_exact" for t in ts.techniques]
    rows = [header]
    for i in rates:
        costs = [t.cost_at(ts.wage, i) for t in ts.techniques]
        best = min(costs)
        tied = sum(1 for c in costs if c == best)
        row = [format_fixed(i * 100, places)]
        row += [format_fixed(c, places) for c in costs]
        row.append("*" if tied > 1 else "")
        if args.exact:
            row += [_exact(c) for c in costs]
        rows.append(row)
    _emit_csv(rows)
    return 0


def cmd_table2(args) -> int:
    ts = load_model(args.model)
    group = model_group(ts, args.group, "table2")
    rates = parse_rate_list(args.rates, args.unit)
    places = args.precision if args.precision is not None else 2
    min_places = args.precision if args.precision is not None else MIN_ROW_PLACES
    domain_lo, domain_hi = min([Fraction(0)] + rates), max([Fraction(2)] + rates)

    # one row per distinct relative price; preimages fill in the other rates
    tol = Fraction(1, 10 ** (places + 6))
    seen: dict[Fraction, dict] = {}
    for point in relative_price_curve(ts, group, rates):
        if point.relative_price in seen:
            continue
        preimages = refined_interest_rates(
            ts, group, point.relative_price, domain_lo, domain_hi, tol
        )
        seen[point.relative_price] = {
            "relative_price": format_fixed(point.relative_price, places),
            "interest": sorted(rate for _, rate in preimages),
            "ratio": point.cost_ratio,
            "marker": "**" if point.cost_ratio == 1 else "",
            "sort": point.relative_price,
        }

    rows_data = list(seen.values())
    minimum = curve_minimum(ts, group, domain_lo, domain_hi)
    if minimum is not None:
        rows_data.append(
            {
                "relative_price": format_fixed(minimum.relative_price, min_places),
                "interest": [minimum.interest],
                "ratio": minimum.cost_ratio,
                "marker": "*",
                "sort": minimum.relative_price,
            }
        )
    rows_data.sort(key=lambda r: r["sort"])

    header = ["relative_price", "interest_pct", "cost_ratio_pct", "marker"]
    if args.exact:
        header += ["relative_price_exact", "interest_exact", "cost_ratio_exact"]
    rows = [header]
    for data in rows_data:
        interest_cell = " and ".join(
            format_fixed(i * 100, places) for i in data["interest"]
        )
        row = [
            data["relative_price"],
            interest_cell,
            format_fixed(data["ratio"] * 100, places),
            data["marker"],
        ]
        if args.exact:
            exact_rel = _exact(data["sort"]) if data["marker"] != "*" else ""
            exact_int = " and ".join(_exact(i) for i in data["interest"]) if data["marker"] != "*" else ""
            exact_ratio = _exact(data["ratio"]) if data["marker"] != "*" else ""
            row += [exact_rel, exact_int, exact_ratio]
        rows.append(row)
    _emit_csv(rows)
    return 0


def cmd_curves(args) -> int:
    ts = load_model(args.model)
    grid = parse_grid(args.grid, args.unit)
    places = args.precision if args.precision is not None else 2
    if args.which == "figure2":
        if len(ts) != 2:
            raise ModelFormatError("figure2 needs exactly two techniques")
        first, second = ts.techniques
        header = ["interest_pct", "cost_ratio"]
        if args.exact:
            header += ["interest_exact", "cost_ratio_exact"]
        rows = [header]
        for i, ratio in cost_ratio_curve(second, first, grid, ts.wage):
            row = [format_fixed(i * 100, places), format_fixed(ratio, 6)]
            if args.exact:
                row += [_exact(i), _exact(ratio)]
            rows.append(row)
        _emit_csv(rows)
        return 0

    group = model_group(ts, args.group, "figure3")
    points = relative_price_curve(ts, group, grid)
    by_price: dict[Fraction, Fraction] = {}
    for pt in points:
        if pt.relative_price in by_price:
            if by_price[pt.relative_price] != pt.cost_ratio:
                raise ReswitchError(
                    f"inconsistent duplicate abscissa at relative price "
                    f"{pt.relative_price}"
                )
        else:
            by_price[pt.relative_price] = pt.cost_ratio
    header = ["relative_price", "cost_ratio"]
    if args.exact:
        header += ["relative_price_exact", "cost_ratio_exact"]
    rows = [header]
    for rel in sorted(by_price):
        row = [format_fixed(rel, places), format_fixed(by_price[rel], 6)]
        if args.exact:
            row += [_exact(rel), _exact(by_price[rel])]
        rows.append(row)
    _emit_csv(rows)
    return 0


def _switch_point_json(sp, places: int) -> dict:
    return {
        "pair": [sp.cheaper_below, sp.cheaper_above],
        "interest_exact": _exact(sp.interest_exact) if sp.is_exact else None,
        "interest": format_fixed(sp.interest_approx * 100, places),
        "cheaper_below": sp.cheaper_below,
        "cheaper_above": sp.cheaper_above,
        "tie_cost_exact": _exact(sp.tie_cost_exact) if sp.tie_cost_exact is not None else None,
        "tie_cost": format_fixed(sp.tie_cost_approx, places),
    }


def cmd_analyze(args) -> int:
    ts = load_model(args.model)
    lo, hi = (Fraction(0), Fraction(2))
    if args.domain:
        lo, hi = parse_domain(args.domain, args.unit)
    places = args.precision if args.precision is not None else 2

    # every pair below is isolated once, into this command's analysis
    analysis = MenuAnalysis(ts, lo, hi)
    report = detect_reswitching(ts, lo, hi, analysis=analysis)
    switch_points = []
    for u, v in combinations(ts.techniques, 2):
        try:
            switch_points.extend(analysis.switch_points(u, v))
        except ReswitchError:
            continue
    switch_points.sort(key=lambda sp: sp.interest_approx)

    theorem = None
    for group in support_groups(ts):
        verdict = verify_single_switch(ts, group, lo, hi)
        theorem = {
            "pair": list(verdict.pair),
            "group": sorted(group.lags),
            "aggregable": verdict.aggregable,
            "single_switch": verdict.single_switch,
            "reason": verdict.reason,
            "crossing": None,
        }
        if verdict.crossing is not None:
            theorem["crossing"] = {
                "relative_price": _exact(verdict.crossing.relative_price),
                "interest_preimages": [
                    _exact(r.lo) if r.is_exact else format_fixed(approx, 6)
                    for r, approx in zip(
                        verdict.crossing.interest_preimages,
                        verdict.crossing.interest_approx,
                    )
                ],
            }
        if verdict.single_switch is True:
            break

    witness = find_complementary_pair(ts) if len(ts) >= 2 else None
    doc = {
        "domain": [_exact(lo), _exact(hi)],
        "techniques": {t.name: [_exact(v) for v in t.labor] for t in ts.techniques},
        "dominance": {
            "segments": [
                {
                    "lo": _exact(s.lo),
                    "hi": _exact(s.hi),
                    "winner": s.winner,
                    "co_winners": list(s.co_winners),
                }
                for s in report.map.segments
            ],
            "boundaries": [
                {
                    "interest_exact": _exact(b.interest_exact)
                    if b.interest_exact is not None
                    else None,
                    "interest": format_fixed(b.interest_approx * 100, places),
                    "ties": list(b.ties),
                    "tie_cost": format_fixed(b.tie_cost_approx, places),
                    "tie_cost_exact": _exact(b.tie_cost_exact)
                    if b.tie_cost_exact is not None
                    else None,
                }
                for b in report.map.boundaries
            ],
        },
        "switch_points": [_switch_point_json(sp, places) for sp in switch_points],
        "reswitching": {
            "found": report.reswitching,
            "recurring": report.recurring,
            "tangencies": [
                {
                    "pair": list(t.pair),
                    "interest": format_fixed(t.interest_approx * 100, places),
                }
                for t in report.tangencies
            ],
        },
        "theorem": theorem,
        "complementarity": None
        if witness is None
        else {
            "pair": list(witness.pair),
            "base_prices": [_exact(p) for p in witness.base_prices],
            "raised_price": _exact(witness.raised_price),
            "demand_before": [_exact(v) for v in witness.demand_before],
            "demand_after": [_exact(v) for v in witness.demand_after],
            "technique_before": witness.technique_before,
            "technique_after": witness.technique_after,
        },
    }
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_falsify(args) -> int:
    try:
        cfg = GeneratorConfig(
            seed=args.seed,
            trials=args.trials,
            structure=args.structure,
            horizon_min=args.horizon_min,
            horizon_max=args.horizon_max,
        )
    except ValueError as exc:
        raise FlagError(str(exc)) from exc
    report = run_falsification(cfg)
    sys.stdout.write(report.to_json())
    return 0 if not report.counterexamples else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reswitch",
        description="Exact technique-choice analysis for dated-labor models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, exact=True):
        p.add_argument("--model", required=True, help="model JSON path")
        p.add_argument(
            "--unit",
            choices=("percent", "fraction"),
            default="percent",
            help="unit for rates on the command line (default percent)",
        )
        p.add_argument(
            "--precision",
            type=int,
            default=None,
            help="decimal places for rendered values, at most "
            f"{MAX_PRECISION} (default 2; the starred minimum row keeps 4 "
            "unless overridden)",
        )
        if exact:
            p.add_argument(
                "--exact",
                action="store_true",
                help="append exact-rational columns to CSV output",
            )

    p1 = sub.add_parser("table1", help="unit cost per technique over interest rates")
    add_common(p1)
    p1.add_argument("--rates", required=True, help="comma-separated rates ('' for none)")
    p1.set_defaults(func=cmd_table1)

    p2 = sub.add_parser(
        "table2", help="cost ratio over the relative factor price with preimages"
    )
    add_common(p2)
    p2.add_argument("--rates", required=True, help="comma-separated rates")
    p2.add_argument("--group", required=True, help="aggregated lags, e.g. '1,3'")
    p2.set_defaults(func=cmd_table2)

    pc = sub.add_parser("curves", help="ratio curve data (figure2 or figure3)")
    pc.add_argument("which", choices=("figure2", "figure3"))
    add_common(pc)
    pc.add_argument(
        "--grid",
        default="0:200:1",
        help=f"LO:HI:STEP in the chosen unit; at most {MAX_GRID_POINTS} points",
    )
    pc.add_argument("--group", help="aggregated lags (figure3 only)")
    pc.set_defaults(func=cmd_curves)

    pa = sub.add_parser("analyze", help="full JSON analysis of one model")
    add_common(pa, exact=False)  # the JSON carries every exact value
    pa.add_argument("--domain", help="interest domain LO:HI (default 0:200)")
    pa.set_defaults(func=cmd_analyze)

    pf = sub.add_parser("falsify", help="seeded random falsification run")
    pf.add_argument("--seed", type=int, default=1)
    pf.add_argument("--trials", type=int, default=1000)
    pf.add_argument("--structure", choices=("disjoint", "free"), default="disjoint")
    pf.add_argument("--horizon-min", type=int, default=3)
    pf.add_argument("--horizon-max", type=int, default=5)
    pf.set_defaults(func=cmd_falsify)
    return parser


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """`--domain -20:50` as `--domain=-20:50`, after any long option.

    argparse reads a token that starts with '-' as an option unless it is a
    plain negative number, which leaves a flag such as `--domain`, `--rates`
    or `--grid` without its value. No option or positional argument of this
    parser starts with '-' and a digit or '.', so such a token is the value.
    """
    out: list[str] = []
    for token in argv:
        last = out[-1] if out else ""
        if last.startswith("--") and "=" not in last and re.match(r"-[0-9.]", token):
            out[-1] = f"{last}={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_negative_values(argv))
    if args.command == "falsify" and args.trials < 1:
        parser.error("--trials must be at least 1")
    precision = getattr(args, "precision", None)
    if precision is not None and precision < 0:
        parser.error("--precision must be at least 0")
    if precision is not None and precision > MAX_PRECISION:
        parser.error(f"--precision must be at most {MAX_PRECISION}")
    if args.command == "curves" and args.which == "figure3" and not args.group:
        parser.error("figure3 requires --group")
    try:
        return args.func(args)
    except FlagError as exc:
        parser.error(str(exc))
    except ReswitchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
