import csv
import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import reswitch.cli as cli
import reswitch.switching as switching
from reswitch import FactorGroup, Technique, TechnologySet, relative_price_curve
from reswitch.cli import (
    MAX_GRID_POINTS,
    MAX_PRECISION,
    FlagError,
    load_model,
    parse_grid,
)
from reswitch.rationals import format_fixed

from cli_process import run_cli, run_python
from oracles import aggregable_menu, no_int_str_limit

MODEL = str(Path(__file__).parent / "data" / "samuelson.json")
# wage 3/2; c clones a; irrational ties at x = 2 -+ sqrt(2)/2
CLONE_IRR = str(Path(__file__).parent / "data" / "clone_irr.json")
# relative price 9 at rates 0 and about 37.23%, a root of a cubic
CUBIC = str(Path(__file__).parent / "data" / "cubic_preimage.json")


def csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()]


class TestTable1:
    def test_reproduces_costs(self):
        cp = run_cli("table1", "--model", MODEL, "--rates", "150,125,100,75,50,25,0")
        assert cp.returncode == 0, cp.stderr
        rows = csv_rows(cp.stdout)
        assert rows[0] == ["interest_pct", "cost_a", "cost_b", "switch"]
        body = [r[1:4] for r in rows[1:]]
        assert body == [
            ["43.75", "46.25", ""],
            ["35.44", "36.28", ""],
            ["28.00", "28.00", "*"],
            ["21.44", "21.22", ""],
            ["15.75", "15.75", "*"],
            ["10.94", "11.41", ""],
            ["7.00", "8.00", ""],
        ]

    def test_lf_line_endings(self):
        cp = run_cli("table1", "--model", MODEL, "--rates", "0")
        assert "\r" not in cp.stdout
        assert cp.stdout.endswith("\n")

    def test_empty_rates_header_only(self):
        cp = run_cli("table1", "--model", MODEL, "--rates", "")
        assert cp.returncode == 0
        assert csv_rows(cp.stdout) == [["interest_pct", "cost_a", "cost_b", "switch"]]

    def test_negative_rate_diagnostic(self):
        cp = run_cli("table1", "--model", MODEL, "--rates", "-150")
        assert cp.returncode == 1
        assert "-150" in cp.stderr

    def test_exact_columns(self):
        cp = run_cli("table1", "--model", MODEL, "--rates", "75", "--exact")
        rows = csv_rows(cp.stdout)
        assert rows[0][-2:] == ["cost_a_exact", "cost_b_exact"]
        assert rows[1][-2:] == ["343/16", "679/32"]

    def test_fraction_unit(self):
        cp = run_cli("table1", "--model", MODEL, "--rates", "1/2,1", "--unit", "fraction")
        rows = csv_rows(cp.stdout)
        assert [r[0] for r in rows[1:]] == ["50.00", "100.00"]
        assert all(r[3] == "*" for r in rows[1:])

    def test_precision_beyond_the_int_str_limit(self):
        # 5,000 places put more digits in one int than `str` converts
        cp = run_cli("table1", "--model", MODEL, "--rates", "50", "--precision", "5000")
        assert cp.returncode == 0, cp.stderr
        row = csv_rows(cp.stdout)[1]
        assert row[0] == "50." + "0" * 5000
        assert row[1] == "15.75" + "0" * 4998
        assert row[2] == row[1] and row[3] == "*"

    def test_exact_cells_beyond_the_int_str_limit(self):
        rate = "1" + "0" * 2500
        cp = run_cli(
            "table1", "--model", MODEL, "--unit", "fraction", "--rates", rate, "--exact"
        )
        assert cp.returncode == 0, cp.stderr
        ts = load_model(MODEL)
        costs = [t.cost_at(ts.wage, F(rate)) for t in ts.techniques]
        with no_int_str_limit():
            expected = [format_fixed(F(rate) * 100, 2)]
            expected += [format_fixed(c, 2) for c in costs] + [""]
            expected += [str(c) for c in costs]
        assert csv_rows(cp.stdout)[1] == expected
        assert len(expected[-1]) > 4300


class TestTable2:
    def test_reproduces_ratio_table(self):
        cp = run_cli(
            "table2", "--model", MODEL, "--group", "1,3",
            "--rates", "0,20,25,100/3,50",
        )
        assert cp.returncode == 0, cp.stderr
        rows = csv_rows(cp.stdout)
        assert rows[0] == ["relative_price", "interest_pct", "cost_ratio_pct", "marker"]
        assert rows[1:] == [
            ["6.9282", "73.21", "98.97", "*"],
            ["7.00", "50.00 and 100.00", "100.00", "**"],
            ["7.17", "33.33 and 125.00", "102.38", ""],
            ["7.30", "25.00 and 140.00", "104.29", ""],
            ["7.40", "20.00 and 150.00", "105.71", ""],
            ["8.00", "0.00 and 200.00", "114.29", ""],
        ]

    def test_each_rate_among_its_own_rows_preimages(self):
        # preimages are searched from min(0, rates) to max(2, rates), so a
        # negative rate or one past 200% is a preimage of its own price;
        # F / x**2 = 6/x + 2x for the champagne model, x = 1 + i
        rates = [F(-1, 2), F(-1, 10), F(0), F(1, 4), F(1, 3), F(1, 2), F(5, 2)]
        cp = run_cli(
            "table2", "--model", MODEL, "--group", "1,3",
            "--rates", "-50,-10,0,25,100/3,50,250", "--exact",
        )
        assert cp.returncode == 0, cp.stderr
        rows = csv_rows(cp.stdout)[1:]
        preimages = {r[4]: r[5].split(" and ") for r in rows if r[3] != "*"}
        assert len(preimages) == len(rows) - 1 == len(rates)
        for i in rates:
            x = 1 + i
            assert str(i) in preimages[str(6 / x + 2 * x)], i

    def test_non_aggregable_group_diagnostic(self):
        cp = run_cli("table2", "--model", MODEL, "--group", "1,2", "--rates", "0")
        assert cp.returncode == 1
        assert "proportions differ" in cp.stderr

    def test_single_technique_degenerate(self, tmp_path):
        model = tmp_path / "single.json"
        model.write_text(
            '{"techniques": [{"name": "b", "labor": ["6", "0", "2"]}]}'
        )
        cp = run_cli("table2", "--model", str(model), "--group", "1", "--rates", "50")
        assert cp.returncode == 0, cp.stderr
        rows = csv_rows(cp.stdout)
        assert len(rows) == 2  # header plus a single degenerate row
        assert rows[1][2] == "100.00"

    def test_exact_columns(self):
        cp = run_cli(
            "table2", "--model", MODEL, "--group", "1,3", "--rates", "25", "--exact"
        )
        rows = csv_rows(cp.stdout)
        data = {r[0]: r for r in rows[1:]}
        assert data["7.30"][4] == "73/10"
        assert data["7.30"][5] == "1/4 and 7/5"
        assert data["7.30"][6] == "73/70"


    def check_exact_preimages(self, capsys, model, group, rates):
        """Every fraction in interest_exact has the row's exact relative
        price; every bracket "(lo, hi)" holds a sign change of
        F - p * x**lag, that is of the relative price minus p."""
        assert cli.main(["table2", "--model", model, "--group", group,
                         "--rates", rates, "--exact"]) == 0
        ts, lags = load_model(model), FactorGroup.of(*map(int, group.split(",")))
        kinds = []
        for row in list(csv.reader(capsys.readouterr().out.splitlines()))[1:]:
            if row[3] == "*":
                assert row[4:] == ["", "", ""]
                continue
            price = F(row[4])
            entries = row[5].split(" and ")
            assert len(entries) == len(row[1].split(" and "))
            for entry in entries:
                if entry.startswith("("):
                    lo, hi = (F(end) for end in entry[1:-1].split(", "))
                    ends = relative_price_curve(ts, lags, [lo, hi])
                    assert (ends[0].relative_price - price) * (ends[1].relative_price - price) < 0
                else:
                    (point,) = relative_price_curve(ts, lags, [F(entry)])
                    assert point.relative_price == price
                kinds.append(entry.startswith("("))
        return kinds

    def test_irrational_preimage_prints_its_bracket(self, capsys):
        kinds = self.check_exact_preimages(capsys, CUBIC, "1,3,4", "0,50,150")
        assert sorted(kinds) == [False, False, False, True]

    def test_seeded_exact_preimages(self, capsys, tmp_path):
        rng = random.Random(27)  # its menus print both kinds of entry
        kinds = []
        for k in range(6):
            labors, lags, _, _, _ = aggregable_menu(rng, rng.randint(2, 5), 2)
            model = tmp_path / f"m{k}.json"
            model.write_text(json.dumps({"techniques": [
                {"name": name, "labor": [str(v) for v in labor]}
                for name, labor in zip("ab", labors)
            ]}))
            group = ",".join(map(str, lags))
            kinds += self.check_exact_preimages(capsys, str(model), group, "0,10,25,50,120")
        assert True in kinds and False in kinds


class TestCurves:
    def test_figure2_dips_below_one_between_switches(self):
        cp = run_cli(
            "curves", "figure2", "--model", MODEL, "--grid", "0:200:1", "--exact"
        )
        assert cp.returncode == 0, cp.stderr
        rows = csv_rows(cp.stdout)
        assert rows[0] == ["interest_pct", "cost_ratio", "interest_exact", "cost_ratio_exact"]
        for row in rows[1:]:
            i = F(row[2])
            ratio = F(row[3])
            if F(1, 2) < i < 1:
                assert ratio < 1
            elif i == F(1, 2) or i == 1:
                assert ratio == 1
            else:
                assert ratio > 1

    def test_figure3_single_crossing(self):
        cp = run_cli(
            "curves", "figure3", "--model", MODEL, "--group", "1,3",
            "--grid", "0:200:1", "--exact",
        )
        assert cp.returncode == 0, cp.stderr
        rows = csv_rows(cp.stdout)[1:]
        ratios = [F(r[3]) for r in rows]
        assert ratios == sorted(ratios)
        assert len([r for r in ratios if r == 1]) == 1
        prices = [F(r[2]) for r in rows]
        assert len(prices) == len(set(prices))  # duplicates collapsed consistently

    def test_figure2_does_not_depend_on_the_wage(self, tmp_path):
        outputs = []
        for wage in ("1", "3/2"):
            model = tmp_path / "wage.json"
            model.write_text(json.dumps({"wage": wage, "techniques": [
                {"name": "a", "labor": ["0", "7", "0", "0"]},
                {"name": "b", "labor": ["6", "0", "2", "1/3"]},
            ]}))
            cp = run_cli("curves", "figure2", "--model", str(model), "--exact")
            assert cp.returncode == 0, cp.stderr
            outputs.append(cp.stdout)
        assert outputs[0] == outputs[1]

    def test_bad_step_usage_error(self):
        cp = run_cli("curves", "figure2", "--model", MODEL, "--grid", "0:200:0")
        assert cp.returncode == 2

    def test_figure3_needs_group(self):
        cp = run_cli("curves", "figure3", "--model", MODEL)
        assert cp.returncode == 2

    def test_oversized_grid_rejected_before_allocating(self):
        # 0 to 1 in steps of 10**-9 would be 10**9 + 1 points
        start = time.monotonic()
        cp = run_cli(
            "curves", "figure2", "--model", MODEL, "--unit", "fraction",
            "--grid", "0:1:1/1000000000",
        )
        elapsed = time.monotonic() - start
        assert cp.returncode == 2
        assert f"more than {MAX_GRID_POINTS} points" in cp.stderr
        assert elapsed < 1

    def test_grid_cap_is_exact(self):
        last = MAX_GRID_POINTS - 1
        grid = parse_grid(f"0:{last}:1", "fraction")
        assert len(grid) == MAX_GRID_POINTS and grid[-1] == last
        assert parse_grid("0:1:3/10", "fraction") == [0, F(3, 10), F(3, 5), F(9, 10)]
        with pytest.raises(FlagError):
            parse_grid(f"0:{last + 1}:1", "fraction")

    @pytest.mark.parametrize(
        "args, code",
        [
            (("curves", "figure2", "--grid", "0:{z}:1/{z}"), 2),  # about z**2 points
            (("curves", "figure2", "--grid", "{z}"), 2),  # not LO:HI:STEP
            (("curves", "figure2", "--grid=-{z}:1:1"), 1),  # start below -100%
            (("analyze", "--domain", "{z}"), 2),  # not LO:HI
            (("table1", "--rates", "-{z}"), 1),  # rate below -100%
        ],
        ids=["grid_points", "grid_shape", "grid_start", "domain_shape", "rate"],
    )
    def test_long_specs_quoted_short(self, args, code):
        # a 3,000-digit number is quoted by its first characters; the point
        # count of about 6,000 digits is not printed at all
        z = "1" * 3000
        cp = run_cli(*(a.format(z=z) for a in args), "--model", MODEL, "--unit", "fraction")
        assert cp.returncode == code, cp.stderr[-300:]
        assert "Traceback" not in cp.stderr
        assert "characters)" in cp.stderr
        assert len(cp.stderr.encode()) < 1024


GROUP_COMMANDS = [
    ("table2", "--rates", "0,50"),
    ("curves", "figure3", "--grid", "0:50:10"),
]


def assert_one_error_line(cp: subprocess.CompletedProcess, text: str) -> None:
    assert cp.returncode == 1, cp.stderr
    assert cp.stderr.startswith("error:") and text in cp.stderr
    assert cp.stderr.count("\n") == 1
    assert "Traceback" not in cp.stderr
    assert cp.stdout == ""


class TestGroupChecks:
    @pytest.mark.parametrize("command", GROUP_COMMANDS)
    @pytest.mark.parametrize("group", ["0", "-1", "1,0"])
    def test_lag_below_one_is_usage_error(self, command, group):
        cp = run_cli(*command, "--model", MODEL, "--group", group)
        assert cp.returncode == 2
        assert "lags start at 1" in cp.stderr
        assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize("command", GROUP_COMMANDS)
    def test_group_outside_horizon(self, command):
        cp = run_cli(*command, "--model", MODEL, "--group", "4")
        assert_one_error_line(cp, "outside horizon 1..3")

    @pytest.mark.parametrize("command", GROUP_COMMANDS)
    def test_lag_beyond_the_int_str_limit(self, command):
        # the spec is quoted by its first characters, and the limit named
        limit = sys.get_int_max_str_digits()
        cp = run_cli(*command, "--model", MODEL, "--group", "1" * (limit + 700))
        assert cp.returncode == 2
        assert len(cp.stderr.encode()) < 300
        assert f"int-string limit of {limit}" in cp.stderr
        assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize("command", GROUP_COMMANDS)
    def test_long_lag_outside_horizon(self, command):
        cp = run_cli(*command, "--model", MODEL, "--group", "1," + "2" * 4000)
        assert_one_error_line(cp, "outside horizon 1..3")
        assert len(cp.stderr.encode()) < 300

    @pytest.mark.parametrize("command", GROUP_COMMANDS)
    @pytest.mark.parametrize("group", ["1,2,3", "3,2,1"])
    def test_group_covering_every_lag(self, command, group):
        cp = run_cli(*command, "--model", MODEL, "--group", group)
        assert_one_error_line(cp, "proper subset")

    @pytest.mark.parametrize("command", GROUP_COMMANDS)
    @pytest.mark.parametrize("group", ["1", "1,3", "4"])
    def test_more_than_two_techniques(self, tmp_path, command, group):
        model = tmp_path / "three.json"
        model.write_text(
            '{"techniques": [{"name": "a", "labor": ["0", "7", "0"]},'
            ' {"name": "b", "labor": ["6", "0", "2"]},'
            ' {"name": "c", "labor": ["1", "5", "1"]}]}'
        )
        cp = run_cli(*command, "--model", str(model), "--group", group)
        assert_one_error_line(cp, "at most two techniques")


class TestAnalyze:
    def test_champagne_document(self):
        cp = run_cli("analyze", "--model", MODEL)
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        assert doc["reswitching"]["found"] is True
        assert doc["reswitching"]["recurring"] == "a"
        winners = [s["winner"] for s in doc["dominance"]["segments"]]
        assert winners == ["a", "b", "a"]
        exacts = [sp["interest_exact"] for sp in doc["switch_points"]]
        assert exacts == ["1/2", "1"]
        assert doc["theorem"]["single_switch"] is True
        assert doc["theorem"]["crossing"]["relative_price"] == "7"
        assert doc["theorem"]["crossing"]["interest_preimages"] == ["1/2", "1"]
        assert doc["complementarity"]["pair"] == [1, 3]
        assert doc["complementarity"]["demand_before"] == ["6", "0", "2"]
        assert doc["complementarity"]["demand_after"] == ["0", "7", "0"]

    def test_clone_technique_keeps_complementarity(self, tmp_path):
        # c pads to a's profile; the search counts the two as one technique
        model = tmp_path / "clone.json"
        model.write_text(
            '{"techniques": [{"name": "a", "labor": ["0", "7", "0"]},'
            ' {"name": "b", "labor": ["6", "0", "2"]},'
            ' {"name": "c", "labor": ["0", "7"]}]}'
        )
        start = time.perf_counter()
        cp = run_cli("analyze", "--model", str(model))
        elapsed = time.perf_counter() - start
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        champagne = json.loads(run_cli("analyze", "--model", MODEL).stdout)
        assert doc["complementarity"] == champagne["complementarity"]
        assert [s["co_winners"] for s in doc["dominance"]["segments"]] == [["c"], [], ["c"]]
        assert elapsed < 1

    def test_clone_of_the_cheapest_adds_no_edge_boundary(self, tmp_path):
        # b and c, both dearer than a everywhere, cross at 0%; a2 clones a
        model = tmp_path / "clone_edge.json"
        model.write_text(
            '{"techniques": [{"name": "a", "labor": ["1", "1/2"]},'
            ' {"name": "a2", "labor": ["1", "1/2"]},'
            ' {"name": "b", "labor": ["1", "2"]},'
            ' {"name": "c", "labor": ["2", "1"]}]}'
        )
        cp = run_cli("analyze", "--model", str(model))
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        assert doc["dominance"]["boundaries"] == []
        assert doc["dominance"]["segments"] == [
            {"lo": "0", "hi": "2", "winner": "a", "co_winners": ["a2"]}
        ]

    def test_single_technique_all_negative(self, tmp_path):
        model = tmp_path / "single.json"
        model.write_text('{"techniques": [{"name": "a", "labor": ["0", "7", "0"]}]}')
        cp = run_cli("analyze", "--model", str(model))
        doc = json.loads(cp.stdout)
        assert doc["reswitching"]["found"] is False
        assert doc["switch_points"] == []
        assert doc["complementarity"] is None
        assert doc["theorem"]["single_switch"] is None


    def test_irrational_crossing_preimages_refined(self, tmp_path):
        # F - 8 x^2 = x (2x^2 - 8x + 7): preimages 1 -+ sqrt(1/2), not the
        # midpoints of their isolating brackets
        model = tmp_path / "irrational.json"
        model.write_text(
            '{"wage": "1", "techniques": [{"name": "a", "labor": ["0", "8", "0"]},'
            ' {"name": "b", "labor": ["7", "0", "2"]}]}'
        )
        cp = run_cli("analyze", "--model", str(model))
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        assert doc["theorem"]["crossing"]["relative_price"] == "8"
        assert doc["theorem"]["crossing"]["interest_preimages"] == ["0.292893", "1.707107"]
        assert [sp["interest"] for sp in doc["switch_points"]] == ["29.29", "170.71"]

    def test_switch_point_tie_costs_at_model_wage(self, tmp_path):
        model = tmp_path / "wage2.json"
        model.write_text(
            '{"wage": "2", "techniques": [{"name": "a", "labor": ["0", "7", "0"]},'
            ' {"name": "b", "labor": ["6", "0", "2"]}]}'
        )
        cp = run_cli("analyze", "--model", str(model))
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        boundaries, points = doc["dominance"]["boundaries"], doc["switch_points"]
        boundary_costs = {b["interest_exact"]: b["tie_cost_exact"] for b in boundaries}
        point_costs = {sp["interest_exact"]: sp["tie_cost_exact"] for sp in points}
        assert point_costs == boundary_costs == {"1/2": "63/2", "1": "56"}

    def test_precision_sets_every_rendered_decimal(self, tmp_path):
        cp = run_cli("analyze", "--model", CLONE_IRR, "--precision", "5")
        assert cp.returncode == 0, cp.stderr
        doc = json.loads(cp.stdout)
        assert [sp["interest"] for sp in doc["switch_points"]] == [
            "29.28932", "29.28932", "170.71068", "170.71068"
        ]
        # tie cost (3/2) 4 x^2 at x = 2 -+ sqrt(2)/2
        assert [sp["tie_cost"] for sp in doc["switch_points"]] == [
            "10.02944", "10.02944", "43.97056", "43.97056"
        ]
        boundaries = doc["dominance"]["boundaries"]
        assert [b["interest"] for b in boundaries] == ["29.28932", "170.71068"]
        assert [b["tie_cost"] for b in boundaries] == ["10.02944", "43.97056"]
        # the crossing preimages keep their own six places
        default = json.loads(run_cli("analyze", "--model", CLONE_IRR).stdout)
        assert doc["theorem"] == default["theorem"]
        # a - b = -x (x - 2)^2: costs touch at 100% without switching
        model = tmp_path / "tangent.json"
        model.write_text(
            '{"techniques": [{"name": "a", "labor": ["0", "4", "0"]},'
            ' {"name": "b", "labor": ["4", "0", "1"]}]}'
        )
        for places, shown in ((None, "100.00"), ("0", "100"), ("3", "100.000")):
            flags = () if places is None else ("--precision", places)
            cp = run_cli("analyze", "--model", str(model), *flags)
            assert cp.returncode == 0, cp.stderr
            tangencies = json.loads(cp.stdout)["reswitching"]["tangencies"]
            assert tangencies == [{"pair": ["a", "b"], "interest": shown}]

    def test_exact_flag_is_usage_error(self):
        cp = run_cli("analyze", "--model", MODEL, "--exact")
        assert cp.returncode == 2
        assert "--exact" in cp.stderr
        assert cp.stdout == ""
        assert "Traceback" not in cp.stderr

    def test_layers_called_by_module_attribute(self, monkeypatch, capsys):
        # the benchmark's traced run wraps these lookups to time each layer
        calls = {"detect": 0, "dominance": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "detect_reswitching", counted("detect", cli.detect_reswitching))
        monkeypatch.setattr(switching, "dominance_map", counted("dominance", switching.dominance_map))
        assert cli.main(["analyze", "--model", MODEL]) == 0
        assert json.loads(capsys.readouterr().out)["reswitching"]["found"] is True
        assert calls == {"detect": 1, "dominance": 1}

    @pytest.mark.parametrize(
        "domain, code",
        [("0:abc", 2), ("5:1", 2), ("-100:50", 1)],
    )
    def test_domain_errors(self, domain, code):
        cp = run_cli("analyze", "--model", MODEL, f"--domain={domain}")
        assert cp.returncode == code
        assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize("wage", ["0", "-1"])
    @pytest.mark.parametrize(
        "args",
        [
            ("analyze",),
            ("table2", "--group", "1,3", "--rates", "0,50"),
            ("curves", "figure3", "--group", "1,3"),
        ],
    )
    def test_non_positive_wage_rejected(self, tmp_path, wage, args):
        model = tmp_path / "wage.json"
        model.write_text(
            '{"wage": "%s", "techniques": [{"name": "a", "labor": ["0", "7", "0"]},'
            ' {"name": "b", "labor": ["6", "0", "2"]}]}' % wage
        )
        start = time.monotonic()
        cp = run_cli(*args, "--model", str(model), timeout=30)
        assert time.monotonic() - start < 1
        assert cp.returncode == 1
        assert cp.stderr.startswith("error:") and "wage" in cp.stderr
        assert cp.stderr.count("\n") == 1
        assert "Traceback" not in cp.stderr
        assert cp.stdout == ""


class TestGoldenOutputs:
    """sha256 of stdout on the champagne model, of `analyze` on a menu with a
    clone, irrational ties and wage 3/2, of two falsify reports, and of the
    curve commands on a cubic-preimage model; any changed byte fails."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ("analyze", "--model", MODEL),
                "f316b8cc1b596164d76430b6644ab91789014e2999c907ee6f6ce7da03731139",
            ),
            (
                ("table1", "--model", MODEL, "--rates", "150,125,100,75,50,25,0", "--exact"),
                "8b20b0794b0b273dba41bbfdb808d98a64c6408b6dd7bad5eed805c782d46802",
            ),
            (
                ("table2", "--model", MODEL, "--group", "1,3",
                 "--rates", "0,10,20,25,100/3,50,175", "--exact"),
                "6b0bfb0bacecd172e16e33cf20bb23ec6cae54f488efe016c735b3257dccab1f",
            ),
            (
                ("curves", "figure2", "--model", MODEL, "--exact"),
                "b312c13d5ba790afa66d52788009ca62bc1869fff8024f491982c71b4617a16d",
            ),
            (
                ("curves", "figure3", "--model", MODEL, "--group", "1,3", "--exact"),
                "807a81a7e6a1aff4a1324c1a65b190c5ece49b204b90819d3614ee5c9af2d558",
            ),
            (
                ("falsify", "--seed", "1", "--trials", "1000"),
                "0dce47f3889eb70b29dd97b33a8a7cfd5e6ee36174a5e941e6fe20efd7b90fc4",
            ),
            (
                ("falsify", "--seed", "7", "--trials", "300", "--structure", "free",
                 "--horizon-max", "6"),
                "b866f7fcbf36bfaf44fd302edd185e7c9cb8c94ebaaf1423b9873ee57b15431d",
            ),
            (
                ("analyze", "--model", CLONE_IRR),
                "54adb610746437268528e48d0becafc01f73c24fe838e9a40a63a37252d79829",
            ),
            # a group of three lags, where the collapse identity does not hold
            (
                ("table2", "--model", CUBIC, "--group", "1,3,4",
                 "--rates", "0,25,50,150", "--exact"),
                "741c006341c014aa78ef7465780bc0a7172bf42f448d52f5263f4f0e7e78fd61",
            ),
            (
                ("curves", "figure3", "--model", CUBIC, "--group", "1,3,4",
                 "--grid", "0:200:25", "--exact"),
                "f11939f9ee1fc8b34c92b000cfdf805122a240d79e34516fa6fb6d81394cd8e6",
            ),
            (
                ("curves", "figure2", "--model", CUBIC, "--exact"),
                "620506ea0f16edea6e3c30172f14fbee0d1bd4e176c295097020e99413267df2",
            ),
        ],
    )
    def test_stdout_digest(self, args, digest):
        cp = run_cli(*args)
        assert cp.returncode == 0, cp.stderr
        assert hashlib.sha256(cp.stdout.encode()).hexdigest() == digest


PRECISION_COMMANDS = [
    ("table1", "--model", MODEL, "--rates", "50"),
    ("table2", "--model", MODEL, "--group", "1,3", "--rates", "50"),
    ("curves", "figure2", "--model", MODEL),
    ("analyze", "--model", MODEL),
]


class TestUsageErrors:
    @pytest.mark.parametrize("args", PRECISION_COMMANDS)
    def test_negative_precision(self, args):
        cp = run_cli(*args, "--precision", "-1")
        assert cp.returncode == 2
        assert "--precision" in cp.stderr
        assert cp.stdout == ""

    @pytest.mark.parametrize("args", PRECISION_COMMANDS)
    def test_precision_above_the_cap(self, args):
        assert MAX_PRECISION == 10_000
        cp = run_cli(*args, "--precision", "10001")
        assert cp.returncode == 2
        assert "--precision" in cp.stderr and "Traceback" not in cp.stderr
        assert cp.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ("table1", "--model", MODEL, "--rates", "1e1"),
            ("curves", "figure2", "--model", MODEL, "--grid", "0:5E1:1"),
            ("analyze", "--model", MODEL, "--domain", "0:2e-1"),
        ],
    )
    def test_exponent_flags(self, args):
        cp = run_cli(*args)
        assert cp.returncode == 2
        assert "exponent" in cp.stderr
        assert "Traceback" not in cp.stderr

    def test_rate_beyond_the_int_str_limit(self):
        # one quote of the number's first characters, not two in full
        limit = sys.get_int_max_str_digits()
        rate = "1" + "0" * (limit + 100)
        cp = run_cli("table1", "--model", MODEL, "--unit", "fraction", "--rates", rate)
        assert cp.returncode == 2
        assert len(cp.stderr.encode()) < 1024
        assert f"int-string limit of {limit}" in cp.stderr
        assert "Traceback" not in cp.stderr

    @pytest.mark.parametrize(
        "flags",
        [("--horizon-min", "1"), ("--horizon-min", "4", "--horizon-max", "3")],
    )
    def test_falsify_horizon_range(self, flags):
        cp = run_cli("falsify", "--trials", "1", *flags)
        assert cp.returncode == 2
        assert "horizon" in cp.stderr
        assert "Traceback" not in cp.stderr


class TestNegativeFlagValues:
    """A value flag takes a negative spec in the spaced form, which argparse
    alone reads as an option; stdout matches the `=` form."""

    @pytest.mark.parametrize(
        "args, flag, value",
        [
            (("analyze", "--model", MODEL), "--domain", "-20:50"),
            (("table1", "--model", MODEL), "--rates", "-10,20"),
            (("curves", "figure2", "--model", MODEL), "--grid", "-10:20:5"),
            (("table2", "--model", MODEL, "--group", "1,3"), "--rates", "-10,50"),
        ],
        ids=["domain", "rates", "grid", "table2"],
    )
    def test_spaced_form_matches_equals_form(self, args, flag, value):
        spaced = run_cli(*args, flag, value)
        joined = run_cli(*args, f"{flag}={value}")
        assert spaced.returncode == joined.returncode == 0, spaced.stderr
        assert spaced.stdout == joined.stdout != ""

    @pytest.mark.parametrize(
        "args",
        [
            ("analyze", "--model", MODEL, "--domain"),
            ("analyze", "--model", MODEL, "--domain", "--unit", "fraction"),
            ("table1", "--model", MODEL, "--rates", "--exact"),
        ],
        ids=["at_end", "before_option", "before_flag"],
    )
    def test_missing_value_is_a_usage_error(self, args):
        cp = run_cli(*args)
        assert cp.returncode == 2
        assert "expected one argument" in cp.stderr
        assert cp.stdout == ""


class TestFalsify:
    def test_deterministic_bytes_and_exit(self):
        first = run_cli("falsify", "--seed", "1", "--trials", "40")
        second = run_cli("falsify", "--seed", "1", "--trials", "40")
        assert first.returncode == 0
        assert first.stdout == second.stdout
        doc = json.loads(first.stdout)
        assert doc["counterexamples"] == []

    def test_zero_trials_usage_error(self):
        cp = run_cli("falsify", "--trials", "0")
        assert cp.returncode == 2

    def test_same_bytes_under_python_optimize(self):
        # every invariant check is an explicit raise, so -O drops none
        args = ("-m", "reswitch", "falsify", "--seed", "1", "--trials", "40")
        plain, optimized = run_python(*args), run_python("-O", *args)
        assert plain.returncode == optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == plain.stdout

    def test_invalid_witness_raises_under_python_optimize(self):
        code = (
            "import sys\n"
            "from fractions import Fraction as F\n"
            "from reswitch import ComplementarityWitness\n"
            "assert False, 'asserts must be off'\n"
            "for raised, after in ((F(1), (1, 1)), (F(3), (1, 3))):\n"
            "    try:\n"
            "        ComplementarityWitness((1, 2), (F(1), F(1)), raised, (1, 2), after, 'a', 'b')\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        cp = run_python("-O", "-c", code)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.splitlines() == [
            "the raised price of input 1 is not above its base price",
            "the demand for input 2 does not drop",
        ]


class TestModelDiagnostics:
    def test_json_syntax_error_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"techniques": [\n  {"name": "a"\n}')
        cp = run_cli("table1", "--model", str(bad), "--rates", "0")
        assert cp.returncode == 1
        assert "line" in cp.stderr

    def test_field_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"techniques": [{"name": "a", "labor": ["0", "x", "0"]}]}')
        cp = run_cli("table1", "--model", str(bad), "--rates", "0")
        assert cp.returncode == 1
        assert "techniques[0].labor[1]" in cp.stderr

    def test_duplicate_names(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"techniques": [{"name": "a", "labor": ["1"]},'
            ' {"name": "a", "labor": ["2"]}]}'
        )
        cp = run_cli("table1", "--model", str(bad), "--rates", "0")
        assert cp.returncode == 1
        assert "unique" in cp.stderr

    def test_json_number_read_exactly(self, tmp_path):
        # the nearest binary double to 0.1, written out in full: a float
        # round trip would read it as 1/10
        text = "0.1000000000000000055511151231257827"
        model = tmp_path / "number.json"
        model.write_text('{"techniques": [{"name": "a", "labor": [%s, 2]}]}' % text)
        (tech,) = load_model(str(model)).techniques
        assert tech.labor == (F(text), F(2))
        assert tech.labor[0] != F(1, 10)

    def test_huge_json_integer(self, tmp_path):
        model = tmp_path / "huge.json"
        model.write_text(
            '{"techniques": [{"name": "a", "labor": [%s]}]}' % ("7" * 5000)
        )
        cp = run_cli("table1", "--model", str(model), "--rates", "0")
        assert cp.returncode == 1
        assert cp.stderr.startswith("error:")
        assert "Traceback" not in cp.stderr

    def test_labor_cell_beyond_the_int_str_limit(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        model = tmp_path / "long.json"
        model.write_text(
            '{"techniques": [{"name": "a", "labor": ["0", "7", "0"]},'
            ' {"name": "b", "labor": ["6", "0", "1%s"]}]}' % ("0" * (limit + 100))
        )
        cp = run_cli("table1", "--model", str(model), "--rates", "0")
        assert cp.returncode == 1
        assert len(cp.stderr.encode()) < 1024
        assert cp.stderr.startswith("error: techniques[1].labor[2]: ")
        assert f"int-string limit of {limit}" in cp.stderr

    @pytest.mark.parametrize("cell", ['"1e1"', "1e1", "2.5E-1"])
    def test_exponent_cells(self, tmp_path, cell):
        model = tmp_path / "exponent.json"
        model.write_text('{"techniques": [{"name": "a", "labor": [%s]}]}' % cell)
        cp = run_cli("table1", "--model", str(model), "--rates", "0")
        assert cp.returncode == 1
        assert "exponent" in cp.stderr
        assert "Traceback" not in cp.stderr

    def test_non_string_name_rejected(self, tmp_path):
        model = tmp_path / "name.json"
        model.write_text('{"techniques": [{"name": 1.5, "labor": ["1"]}]}')
        cp = run_cli("table1", "--model", str(model), "--rates", "0")
        assert cp.returncode == 1
        assert "techniques[0].name" in cp.stderr

    @pytest.mark.parametrize("price", ["0", "-1"])
    def test_non_positive_output_price_rejected(self, tmp_path, price):
        model = tmp_path / "price.json"
        model.write_text(
            '{"output_price": "%s", "techniques": [{"name": "a", "labor": ["0", "7", "0"]},'
            ' {"name": "b", "labor": ["6", "0", "2"]}]}' % price
        )
        cp = run_cli("analyze", "--model", str(model))
        assert cp.returncode == 1
        assert cp.stderr.startswith("error:") and "output_price" in cp.stderr
        assert cp.stderr.count("\n") == 1
        assert cp.stdout == ""

    def test_positive_output_price_accepted(self, tmp_path):
        # output is the numeraire: the price is accepted and changes nothing
        model = tmp_path / "price.json"
        model.write_text(
            '{"output_price": "2", "techniques": [{"name": "a", "labor": ["0", "7", "0"]},'
            ' {"name": "b", "labor": ["6", "0", "2"]}]}'
        )
        cp = run_cli("analyze", "--model", str(model))
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == run_cli("analyze", "--model", MODEL).stdout

    def test_help_runs(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        assert "falsify" in cp.stdout
