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
at two decimals (an exact one-third rate renders as "33.33"). Every CSV
command builds its rows as pairs of decimal and exact cells, and one writer
appends the exact columns under --exact. They hold only exact values: a
`table2` preimage that is irrational prints as its isolating bracket
"(lo, hi)" in interest units, which holds it and no other preimage. Exit
codes: 0 success, 1 analysis error (domain or aggregability), 2 usage error.
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
from .polynomial import RootInterval
from .rationals import (
    format_fixed,
    int_decimal,
    int_limit_problem,
    parse_rational,
    quote_short,
)
from .switching import DEFAULT_HI, DEFAULT_LO, MenuAnalysis, cost_ratio_curve, detect_reswitching

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


def _parse_spec(text: str, unit: str, kind: str, shape: str) -> list[Fraction]:
    """The rates of a colon-separated spec such as LO:HI, in interest units."""
    parts = text.split(":")
    if len(parts) != shape.count(":") + 1:
        raise FlagError(f"{kind} spec {quote_short(text)} must be {shape}")
    try:
        return [_rate_to_interest(part, unit) for part in parts]
    except ModelFormatError as exc:
        raise FlagError(f"bad {kind} spec {quote_short(text)}: {exc}") from exc


def parse_grid(text: str, unit: str) -> list[Fraction]:
    lo, hi, step = _parse_spec(text, unit, "grid", "LO:HI:STEP")
    if step <= 0:
        raise FlagError("grid step must be positive")
    if hi < lo:
        raise FlagError("grid upper bound below lower bound")
    if lo <= -1:
        start = quote_short(text.split(":")[0].strip())
        raise DomainError(f"grid start {start} is at or below -100%")
    count = (hi - lo) // step + 1
    if count > MAX_GRID_POINTS:
        raise FlagError(f"grid spec {quote_short(text)} has more than {MAX_GRID_POINTS} points")
    return [lo + k * step for k in range(count)]


def parse_domain(text: str, unit: str) -> tuple[Fraction, Fraction]:
    lo, hi = _parse_spec(text, unit, "domain", "LO:HI")
    if hi <= lo:
        raise FlagError("domain upper bound must exceed lower bound")
    return lo, hi


def _exact(value: Fraction) -> str:
    """`str(value)` for a Fraction of any size: "n" or "n/d"."""
    text = int_decimal(value.numerator)
    if value.denominator == 1:
        return text
    return f"{text}/{int_decimal(value.denominator)}"


def _certificate(root: RootInterval) -> str:
    """An exact root as itself, an irrational one as its bracket "(lo, hi)"."""
    if root.is_exact:
        return _exact(root.lo)
    return f"({_exact(root.lo)}, {_exact(root.hi)})"


def _write_csv(args, header: list[str], exact_header: list[str], rows) -> int:
    """Print a table whose rows are (decimal cells, exact cells) pairs; the
    exact header and cells follow the decimal ones only under --exact."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header + exact_header if args.exact else header)
    writer.writerows(cells + exact if args.exact else cells for cells, exact in rows)
    sys.stdout.write(buffer.getvalue())
    return 0


def cmd_table1(args) -> int:
    ts = load_model(args.model)
    rows = []
    for i in parse_rate_list(args.rates, args.unit):
        costs = [t.cost_at(ts.wage, i) for t in ts.techniques]
        cells = [format_fixed(c, args.places) for c in [i * 100] + costs]
        cells.append("*" if costs.count(min(costs)) > 1 else "")
        rows.append((cells, [_exact(c) for c in costs]))
    names = [f"cost_{t.name}" for t in ts.techniques]
    header = ["interest_pct"] + names + ["switch"]
    return _write_csv(args, header, [f"{name}_exact" for name in names], rows)


def cmd_table2(args) -> int:
    ts = load_model(args.model)
    group = model_group(ts, args.group, "table2")
    rates = parse_rate_list(args.rates, args.unit)
    places = args.places
    domain_lo, domain_hi = min([DEFAULT_LO] + rates), max([DEFAULT_HI] + rates)

    # one row per distinct relative price; preimages, which come sorted,
    # fill in the other rates
    tol = Fraction(1, 10 ** (places + 6))
    rows: dict[Fraction, tuple] = {}
    for point in relative_price_curve(ts, group, rates):
        price, ratio = point.relative_price, point.cost_ratio
        if price in rows:
            continue
        preimages = refined_interest_rates(ts, group, price, domain_lo, domain_hi, tol)
        rows[price] = (
            price,
            [
                format_fixed(price, places),
                " and ".join(format_fixed(rate * 100, places) for _, rate in preimages),
                format_fixed(ratio * 100, places),
                "**" if ratio == 1 else "",
            ],
            [_exact(price), " and ".join(_certificate(r) for r, _ in preimages), _exact(ratio)],
        )

    table = list(rows.values())
    minimum = curve_minimum(ts, group, domain_lo, domain_hi)
    if minimum is not None:
        min_places = places if args.precision is not None else MIN_ROW_PLACES
        cells = [
            format_fixed(minimum.relative_price, min_places),
            format_fixed(minimum.interest * 100, places),
            format_fixed(minimum.cost_ratio * 100, places),
            "*",
        ]
        table.append((minimum.relative_price, cells, ["", "", ""]))
    table.sort(key=lambda row: row[0])
    header = ["relative_price", "interest_pct", "cost_ratio_pct", "marker"]
    exact_header = ["relative_price_exact", "interest_exact", "cost_ratio_exact"]
    return _write_csv(args, header, exact_header, [row[1:] for row in table])


def cmd_curves(args) -> int:
    ts = load_model(args.model)
    grid = parse_grid(args.grid, args.unit)
    if args.which == "figure2":
        if len(ts) != 2:
            raise ModelFormatError("figure2 needs exactly two techniques")
        first, second = ts.techniques
        column, exact_column, scale = "interest_pct", "interest_exact", 100
        points = cost_ratio_curve(second, first, grid)
    else:
        # the cost ratio is a function of the relative price p alone: each
        # technique costs w * (g * F + c * x**lag), so the ratio is
        # (g_a * p + c_a) / (g_b * p + c_b), and a repeated p repeats it
        group = model_group(ts, args.group, "figure3")
        column, exact_column, scale = "relative_price", "relative_price_exact", 1
        curve = relative_price_curve(ts, group, grid)
        points = sorted({pt.relative_price: pt.cost_ratio for pt in curve}.items())
    rows = [
        ([format_fixed(x * scale, args.places), format_fixed(ratio, 6)], [_exact(x), _exact(ratio)])
        for x, ratio in points
    ]
    return _write_csv(args, [column, "cost_ratio"], [exact_column, "cost_ratio_exact"], rows)


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
    lo, hi = DEFAULT_LO, DEFAULT_HI
    if args.domain:
        lo, hi = parse_domain(args.domain, args.unit)
    places = args.places

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

    witness = find_complementary_pair(ts)
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
    pa.add_argument(
        "--domain", help=f"interest domain LO:HI (default {DEFAULT_LO * 100}:{DEFAULT_HI * 100})"
    )
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
    args.places = 2 if precision is None else precision
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
