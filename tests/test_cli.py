"""End-to-end and unit tests for the command-line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

import listmrt
from listmrt import le_gmm
from listmrt.cli import (
    MARKER_LEGEND,
    Report,
    RunConfig,
    Table,
    _COMMANDS,
    _KEYS,
    _TYPES,
    _applies,
    _fmt,
    build_parser,
    format_ordering,
    _parse_config_file,
    _resolve_config,
    load_le_csv,
    load_mrt_csv,
    main,
    parse_ordering,
    render_csv,
    render_json,
    render_text,
    run_subcommand,
    significance_marker,
)
from listmrt.errors import LoadError
from listmrt.le_core import ControlDistribution, LeParams, Spec, le_forward
from listmrt.mrt_core import MrtJoint, OrderingRule
from listmrt.mrt_mle import MrtContinuousSample
from listmrt.resampling import DISCRETE_TRUTH, simulate_discrete_design


def run_cli(*args):
    return main([str(a) for a in args])


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def load_json_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def table(report, name):
    return next(t for t in report["tables"] if t["name"] == name)


# ---------------------------------------------------------------------------
# Loading list-experiment CSV files


class TestLoadLeCsv:
    def test_minimal_two_records(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t\n0,0\n4,1\n")
        sample = load_le_csv(path, j_count=3)
        assert sample.n == 2
        assert sample.y.tolist() == [0, 4]
        assert sample.t.tolist() == [0, 1]
        assert sample.x_direct is None

    def test_control_y_exceeds_j_names_the_row(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t\n5,0\n2,1\n")
        with pytest.raises(LoadError, match="row 1: y exceeds J for control"):
            load_le_csv(path, j_count=3)

    def test_treatment_bound_is_j_plus_one(self, tmp_path):
        ok = write(tmp_path / "ok.csv", "y,t\n0,0\n4,1\n")
        assert load_le_csv(ok, j_count=3).n == 2
        bad = write(tmp_path / "bad.csv", "y,t\n0,0\n5,1\n")
        with pytest.raises(LoadError, match="row 2: y exceeds J\\+1 for treatment"):
            load_le_csv(bad, j_count=3)

    def test_missing_required_column(self, tmp_path):
        path = write(tmp_path / "le.csv", "y\n1\n")
        with pytest.raises(LoadError, match="missing required column 't'"):
            load_le_csv(path, j_count=3)

    def test_non_integer_y(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t\n1,0\n1.5,1\n")
        with pytest.raises(LoadError, match="row 2: y must be an integer"):
            load_le_csv(path, j_count=3)

    def test_bad_group_code(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t\n1,2\n")
        with pytest.raises(LoadError, match="row 1: t must be 0 or 1"):
            load_le_csv(path, j_count=3)

    def test_negative_y(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t\n-1,0\n")
        with pytest.raises(LoadError, match="row 1: y must be nonnegative"):
            load_le_csv(path, j_count=3)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "le.csv", "")
        with pytest.raises(LoadError, match="file is empty"):
            load_le_csv(path, j_count=3)

    def test_header_only(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t\n")
        with pytest.raises(LoadError, match="no data rows"):
            load_le_csv(path, j_count=3)

    def test_empty_group(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t\n1,1\n2,1\n")
        with pytest.raises(LoadError, match="control group is empty"):
            load_le_csv(path, j_count=3)

    def test_missing_value_in_row(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t\n1\n")
        with pytest.raises(LoadError, match="row 1: missing value for t"):
            load_le_csv(path, j_count=3)

    def test_unexpected_column(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t,weight\n1,0,2\n")
        with pytest.raises(LoadError, match="unexpected column 'weight'"):
            load_le_csv(path, j_count=3)

    def test_x_direct_parsed_with_treatment_blank(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t,x_direct\n1,0,1\n2,0,0\n3,1,\n")
        sample = load_le_csv(path, j_count=3)
        assert sample.x_direct.tolist() == [1, 0, -1]

    def test_x_direct_on_treatment_row_rejected(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t,x_direct\n1,0,1\n3,1,1\n")
        with pytest.raises(LoadError, match="row 2: x_direct set on a treatment row"):
            load_le_csv(path, j_count=3)

    def test_x_direct_missing_on_control_rejected(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t,x_direct\n1,0,\n3,1,\n")
        with pytest.raises(LoadError, match="row 1: missing value for x_direct"):
            load_le_csv(path, j_count=3)

    def test_z_columns_rejected(self, tmp_path):
        path = write(tmp_path / "le.csv", "y,t,z_region,z_age\n1,0,2,0\n3,1,1,2\n")
        with pytest.raises(
            LoadError, match="covariate column 'z_region' is not supported for list experiments"
        ):
            load_le_csv(path, j_count=3)

    def test_simulated_file_round_trips(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--design", "le-null", "--j-count", 4,
                       "--n", 1000, "--seed", 7, "--output", out) == 0
        sample = load_le_csv(str(out), j_count=4)
        assert sample.n == 1000
        # The loaded arrays must reproduce the file's empirical content exactly.
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert sample.y.tolist() == [int(r["y"]) for r in rows]
        assert sample.t.tolist() == [int(r["t"]) for r in rows]
        direct = [int(r["x_direct"]) if r["x_direct"] != "" else -1 for r in rows]
        assert sample.x_direct.tolist() == direct
        assert set(sample.x_direct[sample.t == 1]) == {-1}


# ---------------------------------------------------------------------------
# Loading multiple-response CSV files


class TestLoadMrtCsv:
    def test_all_combination_rows_count_once(self, tmp_path):
        lines = ["x1,x2,x3,z"]
        for i in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    lines.append(f"{i},{j},{k},0")
        path = write(tmp_path / "mrt.csv", "\n".join(lines) + "\n")
        cells = load_mrt_csv(path)
        assert len(cells) == 1
        assert cells[0].n_cell == 8.0
        assert np.array_equal(cells[0].counts, np.ones((2, 2, 2)))

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path / "mrt.csv", "")
        with pytest.raises(LoadError, match="file is empty"):
            load_mrt_csv(path)

    def test_x_value_outside_binary_rejected(self, tmp_path):
        path = write(tmp_path / "mrt.csv", "x1,x2,x3\n0,2,1\n")
        with pytest.raises(LoadError, match="row 1: x2 must be 0 or 1"):
            load_mrt_csv(path)

    def test_auto_mode_picks_continuous_for_real_z(self, tmp_path):
        path = write(tmp_path / "mrt.csv", "x1,x2,x3,z\n0,1,1,0.25\n1,0,0,0.75\n")
        sample = load_mrt_csv(path)
        assert isinstance(sample, MrtContinuousSample)
        assert sample.z[:, 0].tolist() == [0.25, 0.75]

    def test_declared_discrete_rejects_real_z(self, tmp_path):
        path = write(tmp_path / "mrt.csv", "x1,x2,x3,z\n0,1,1,0.25\n")
        with pytest.raises(LoadError, match="row 1: z must be an integer in discrete mode"):
            load_mrt_csv(path, mode="discrete")

    def test_grouping_by_covariate_tuple(self, tmp_path):
        text = "x1,x2,x3,z_a,z_b\n" + "\n".join(
            f"1,1,1,{a},{b}" for a in (0, 1) for b in (0, 1) for _ in range(a + b + 1)
        ) + "\n"
        path = write(tmp_path / "mrt.csv", text)
        cells = load_mrt_csv(path)
        assert [c.z_cell for c in cells] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [c.n_cell for c in cells] == [1.0, 2.0, 2.0, 3.0]

    def test_no_z_columns_gives_single_cell(self, tmp_path):
        path = write(tmp_path / "mrt.csv", "x1,x2,x3\n1,0,1\n0,1,0\n")
        cells = load_mrt_csv(path)
        assert len(cells) == 1 and cells[0].z_cell == ()

    def test_generated_file_preserves_counts_exactly(self, tmp_path):
        out = tmp_path / "mrt.csv"
        assert run_cli("simulate", "--design", "mrt-discrete", "--n", 400,
                       "--seed", 21, "--output", out) == 0
        loaded = load_mrt_csv(str(out))
        direct = simulate_discrete_design(DISCRETE_TRUTH, 400, 0.0, np.random.default_rng(21))
        assert sum(c.n_cell for c in loaded) == 400
        by_z = {int(np.atleast_1d(c.z_cell)[0]): c for c in loaded}
        for cell in direct:
            z = int(np.atleast_1d(cell.z_cell)[0])
            assert np.array_equal(by_z[z].counts, cell.counts)

    def test_continuous_mode_requires_z(self, tmp_path):
        path = write(tmp_path / "mrt.csv", "x1,x2,x3\n1,0,1\n")
        with pytest.raises(LoadError, match="continuous mode requires at least one z column"):
            load_mrt_csv(path, mode="continuous")


# ---------------------------------------------------------------------------
# Configuration resolution


def resolve(*args):
    return _resolve_config(build_parser().parse_args([str(a) for a in args]))


# One config-file value per RunConfig key, in field order, each differing
# from the key's default: (text in the file, resolved value).
CONFIG_SAMPLES = {
    "input": ("data.csv", "data.csv"),
    "output": ("report.json", "report.json"),
    "format": ("csv", "csv"),
    "j_count": ("5", 5),
    "spec": ("equal_p", "equal_p"),
    "ordering": ("3:lower", OrderingRule(question=3, class1_higher=False)),
    "n_boot": ("300", 300),
    "seed": ("17", 17),
    "design": ("continuous", "continuous"),
    "n": ("250", 250),
    "reps": ("4", 4),
    "sigma": ("0.25", 0.25),
    "mode": ("discrete", "discrete"),
    "jobs": ("2", 2),
    "x2_fix": ("0", 0),
    "direct_question": ("3", 3),
    "affirmative_is_truth_for": ("1", 1),
    "bootstrap_estimator": ("extreme", "extreme"),
    "correlation_scale": ("realized", "realized"),
    "group_share": ("0.4", 0.4),
    "rank_n_boot": ("199", 199),
    "include_intercept": ("false", False),
    "estimators": ("mle", "mle"),
}

# A runnable config-file base per subcommand, for a key set on a subcommand it
# applies to; the key's own line comes last and wins.
CONFIG_BASES = {
    "montecarlo": "design = discrete\nn = 100\nreps = 2\nseed = 1\n",
    "estimate-mrt": "input = x.csv\nseed = 1\n",
    "estimate-le": "input = x.csv\nj_count = 4\n",
    "simulate": "design = mrt-discrete\nn = 100\nseed = 1\noutput = x.csv\n",
}


def home_subcommand(key):
    """The first subcommand in CONFIG_BASES that the key applies to."""
    return next(sub for sub in CONFIG_BASES if _applies(key, sub))


PAIRS = [(key, sub) for key in _KEYS for sub in _COMMANDS]


class TestConfiguration:
    def test_ordering_parse(self):
        rule = parse_ordering("2:lower")
        assert rule.question == 2 and rule.class1_higher is False
        with pytest.raises(LoadError, match="ordering must look like"):
            parse_ordering("first:up")
        for question in (1, 2, 3):
            for direction in ("higher", "lower"):
                text = f"{question}:{direction}"
                rule = parse_ordering(text)
                assert format_ordering(rule) == text

    @pytest.mark.parametrize(
        "key,text,expected", [(key, *sample) for key, sample in CONFIG_SAMPLES.items()]
    )
    def test_every_key_loads_from_a_config_file(self, tmp_path, key, text, expected):
        sub = home_subcommand(key)
        cfg_file = write(tmp_path / "run.cfg", f"{CONFIG_BASES[sub]}{key} = {text}\n")
        cfg = resolve(sub, "--config", cfg_file)
        value = getattr(cfg, key)
        assert value == expected and type(value) is type(expected)
        assert value != getattr(RunConfig(subcommand=sub), key)

    @pytest.mark.parametrize("key,sub", [pair for pair in PAIRS if _applies(*pair)])
    def test_every_applicable_pair_parses_with_its_type(self, tmp_path, key, sub):
        text, expected = CONFIG_SAMPLES[key]
        cfg_file = write(tmp_path / "run.cfg", f"# {sub}\n{key} = {text}\n")
        value = _parse_config_file(cfg_file, sub)[key]
        assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize("key,sub", [pair for pair in PAIRS if not _applies(*pair)])
    def test_key_that_does_not_apply_is_rejected(self, tmp_path, key, sub):
        text, _ = CONFIG_SAMPLES[key]
        cfg_file = write(tmp_path / "run.cfg", f"# {sub}\n{key} = {text}\n")
        with pytest.raises(LoadError, match=f"^config line 2: {key} does not apply to {sub}$"):
            resolve(sub, "--config", cfg_file)

    def test_applicability_table(self):
        every = {"output", "format", "seed"}
        mrt = {"input", "ordering", "n_boot", "mode", "x2_fix", "direct_question",
               "affirmative_is_truth_for", "bootstrap_estimator", "rank_n_boot", "include_intercept"}
        le = {"input", "j_count", "spec", "n_boot"}
        expected = {
            "simulate": every | {"design", "n", "j_count", "sigma", "correlation_scale", "group_share"},
            "estimate-le": every | le,
            "test-le": every | le,
            "estimate-mrt": every | mrt,
            "montecarlo": every | {"design", "n", "reps", "sigma", "correlation_scale", "jobs", "estimators"},
        }
        assert {sub: {k for k in _KEYS if _applies(k, sub)} for sub in _COMMANDS} == expected
        assert sum(_applies(*pair) for pair in PAIRS) == 46 and len(PAIRS) == 115

    def test_config_line_checks_run_in_order(self, tmp_path):
        # malformed line, then unknown key, then a key that does not apply, then its value
        for text, message in [
            ("frobnicate zero", "expected 'key = value'"),
            ("frobnicate = zero", "unknown key 'frobnicate'"),
            ("x2_fix = zero", "x2_fix does not apply to montecarlo"),
            ("n = zero", "n must be an integer"),
        ]:
            cfg_file = write(tmp_path / "run.cfg", f"seed = 1\n{text}\n")
            with pytest.raises(LoadError, match=f"config line 2: {message}"):
                resolve("montecarlo", "--config", cfg_file)

    def test_config_samples_cover_every_key(self):
        assert list(CONFIG_SAMPLES) == list(_KEYS) and len(_KEYS) == 23

    @pytest.mark.parametrize("key,text,message", [
        ("n", "12.5", "n must be an integer"),
        ("sigma", "high", "sigma must be a number"),
        ("include_intercept", "yes", "include_intercept must be true or false"),
    ])
    def test_malformed_typed_value_names_the_line(self, tmp_path, key, text, message):
        cfg_file = write(tmp_path / "run.cfg", f"seed = 1\n{key} = {text}\n")
        with pytest.raises(LoadError, match=f"config line 2: {message}"):
            resolve(home_subcommand(key), "--config", cfg_file)

    def test_disallowed_value_rejected(self, tmp_path):
        cfg_file = write(tmp_path / "run.cfg", "x2_fix = 2\n")
        with pytest.raises(LoadError, match="x2_fix must be one of 0/1, got 2"):
            resolve("estimate-mrt", "--config", cfg_file, "--input", "x.csv", "--seed", 1)

    def test_flag_keys_are_the_registered_flags(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "subcommand").choices
        assert list(subparsers) == list(_COMMANDS)
        for sub, subparser in subparsers.items():
            registered = {action.dest for action in subparser._actions} - {"help", "config"}
            flags = {name for name, f in _KEYS.items() if f.metadata["flag"] and _applies(name, sub)}
            assert registered == flags, sub

    def test_readme_lists_every_key_once(self):
        # README's key table must match the RunConfig declaration: name, type,
        # default and the subcommands the key applies to.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
        listed = [
            tuple(cell.strip().replace("`", "") for cell in line.split("|")[1:5])
            for line in section.splitlines() if line.startswith("| `")
        ]
        type_names = {int: "int", float: "float", bool: "bool", str: "str", OrderingRule: "ordering"}

        def spelled(default):
            if default is None:
                return "none"
            if isinstance(default, OrderingRule):
                return format_ordering(default)
            return str(default).lower()

        expected = [
            (name, type_names[_TYPES[name]], spelled(f.default), ", ".join(f.metadata["applies_to"]))
            for name, f in _KEYS.items()
        ]
        assert listed == expected

    def test_config_file_values_used(self, tmp_path):
        cfg_file = write(tmp_path / "run.cfg", "# comment\n\nn = 500\ndesign = mrt-discrete\n")
        cfg = resolve("simulate", "--config", cfg_file, "--seed", 1, "--output", "x.csv")
        assert cfg.n == 500 and cfg.design == "mrt-discrete"

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = write(tmp_path / "run.cfg", "n = 500\ndesign = mrt-discrete\nseed = 9\n")
        cfg = resolve("simulate", "--config", cfg_file, "--n", 800, "--output", "x.csv")
        assert cfg.n == 800 and cfg.seed == 9

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = write(tmp_path / "run.cfg", "frobnicate = 3\n")
        with pytest.raises(LoadError, match="unknown key 'frobnicate'"):
            resolve("simulate", "--config", cfg_file, "--design", "mrt-discrete",
                    "--n", 10, "--seed", 1, "--output", "x.csv")

    def test_malformed_config_line_rejected(self, tmp_path):
        cfg_file = write(tmp_path / "run.cfg", "just a line\n")
        with pytest.raises(LoadError, match="config line 1"):
            resolve("simulate", "--config", cfg_file)

    def test_seed_required_for_stochastic_subcommands(self):
        with pytest.raises(LoadError, match="--seed is required"):
            resolve("simulate", "--design", "mrt-discrete", "--n", 10, "--output", "x.csv")
        with pytest.raises(LoadError, match="--seed is required"):
            resolve("montecarlo", "--design", "discrete", "--n", 100, "--reps", 2)
        with pytest.raises(LoadError, match="--seed is required"):
            resolve("estimate-mrt", "--input", "x.csv")

    def test_small_positive_n_boot_rejected(self):
        with pytest.raises(LoadError, match="n_boot must be 0"):
            resolve("estimate-le", "--input", "x.csv", "--j-count", 4,
                    "--n-boot", 50, "--seed", 1)

    def test_config_hash_depends_on_semantics_not_format(self):
        a = resolve("montecarlo", "--design", "discrete", "--n", 100, "--reps", 2,
                    "--seed", 3, "--format", "json")
        b = resolve("montecarlo", "--design", "discrete", "--n", 100, "--reps", 2,
                    "--seed", 3, "--format", "text")
        c = resolve("montecarlo", "--design", "discrete", "--n", 100, "--reps", 2,
                    "--seed", 4, "--format", "json")
        from listmrt.cli import _config_hash
        assert _config_hash(a) == _config_hash(b)
        assert _config_hash(a) != _config_hash(c)

    def test_invalid_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_estimate_le_rejects_spec_all(self):
        with pytest.raises(LoadError, match="estimate-le spec must be one of"):
            resolve("estimate-le", "--input", "x.csv", "--j-count", 4, "--spec", "all")


# ---------------------------------------------------------------------------
# Report rendering


def toy_report():
    return Report(
        subcommand="demo",
        metadata={"seed": 3, "config_hash": "abc"},
        tables=[Table(name="main", columns=["name", "value", "marker"],
                      rows=[["alpha", 0.123456789, "x"], ["beta", 1 / 3, "ok"]])],
        diagnostics={"notes": ["one", "two"]},
        primary_table="main",
    )


class TestRendering:
    def test_marker_thresholds(self):
        assert significance_marker(0.049) == "x"
        assert significance_marker(0.05) == "+"
        assert significance_marker(0.099) == "+"
        assert significance_marker(0.1) == "ok"

    def test_six_significant_digits(self):
        assert _fmt(0.123456789) == "0.123457"
        assert _fmt(1 / 3) == "0.333333"
        assert _fmt(1234567.0) == "1.23457e+06"
        assert _fmt(True) == "true"
        assert _fmt(None) == ""

    def test_text_includes_legend_and_diagnostics(self):
        text = render_text(toy_report())
        assert MARKER_LEGEND in text
        assert "notes: one; two" in text
        assert "0.123457" in text and "0.333333" in text

    def test_json_and_csv_agree_at_printed_precision(self):
        report = toy_report()
        payload = json.loads(render_json(report))
        csv_rows = list(csv.reader(io.StringIO(render_csv(report))))
        assert csv_rows[0] == ["name", "value", "marker"]
        json_rows = table(payload, "main")["rows"]
        for json_row, csv_row in zip(json_rows, csv_rows[1:]):
            assert [_fmt(v) for v in json_row] == csv_row

    def test_json_schema_fields(self):
        payload = json.loads(render_json(toy_report()))
        assert payload["schema_version"] == "1.0"
        assert payload["metadata"]["seed"] == 3
        assert payload["primary_table"] == "main"


# ---------------------------------------------------------------------------
# simulate


class TestSimulateCli:
    def test_same_config_twice_writes_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("simulate", "--design", "mrt-discrete", "--n", 300,
                           "--seed", 5, "--output", out) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        assert run_cli("simulate", "--design", "mrt-discrete", "--n", 300,
                       "--seed", 6, "--output", c) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_le_null_shape_and_direct_column(self, tmp_path):
        out = tmp_path / "le5.csv"
        assert run_cli("simulate", "--design", "le-null", "--j-count", 5,
                       "--n", 600, "--seed", 2, "--output", out) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 600
        for row in rows:
            y, t = int(row["y"]), int(row["t"])
            assert 0 <= y <= (6 if t == 1 else 5)
            assert (row["x_direct"] == "") == (t == 1)

    def test_survey_design_has_five_covariates(self, tmp_path):
        out = tmp_path / "survey.csv"
        assert run_cli("simulate", "--design", "mrt-survey", "--n", 200,
                       "--seed", 3, "--output", out) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle))
        assert header == ["x1", "x2", "x3", "z_gender", "z_race",
                          "z_religion", "z_politics", "z_age"]

    def test_continuous_z_round_trips_through_repr(self, tmp_path):
        out = tmp_path / "cont.csv"
        assert run_cli("simulate", "--design", "mrt-continuous", "--n", 50,
                       "--seed", 4, "--output", out) == 0
        sample = load_mrt_csv(str(out))
        assert isinstance(sample, MrtContinuousSample)
        assert sample.n == 50
        assert float(sample.z.min()) >= 0.0 and float(sample.z.max()) <= 1.0

    def test_unknown_design_fails_cleanly(self, tmp_path, capsys):
        code = run_cli("simulate", "--design", "nonesuch", "--n", 10,
                       "--seed", 1, "--output", tmp_path / "x.csv")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, capsys):
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        code = run_cli("simulate", "--design", "le-null", "--j-count", 4, "--n", 50,
                       "--seed", 1, "--output", outdir)
        assert code == 1
        assert "Is a directory" in capsys.readouterr().err
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_sigma_rejected_for_le_null(self, tmp_path, capsys):
        code = run_cli("simulate", "--design", "le-null", "--j-count", 4, "--n", 10,
                       "--seed", 1, "--sigma", 0.2, "--output", tmp_path / "x.csv")
        assert code == 1
        assert "sigma does not apply" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# test-le


@pytest.fixture(scope="module")
def null_le_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledata") / "null.csv"
    assert run_cli("simulate", "--design", "le-null", "--j-count", 4,
                   "--n", 1500, "--seed", 11, "--output", out) == 0
    return out


class TestTestLeCli:
    def test_null_data_not_rejected_under_all_specs(self, null_le_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli("test-le", "--input", null_le_file, "--j-count", 4,
                       "--seed", 5, "--format", "json", "--output", report_path) == 0
        report = load_json_report(report_path)
        tests = table(report, "tests")
        assert [row[0] for row in tests["rows"]] == [
            "unrestricted", "equal_p", "no_misreport", "strategic"
        ]
        for row in tests["rows"]:
            p_value, verdict = row[7], row[9]
            assert p_value > 0.05
            assert verdict == "not rejected"
        aux = table(report, "auxiliary_tests")
        names = [row[0] for row in aux["rows"]]
        assert names == ["control_mean_equals_half_j", "modified_design_gap"]
        assert all(row[2] > 0.05 for row in aux["rows"])
        assert any("modified_design" in k for k in report["diagnostics"])

    def test_single_spec_selection(self, null_le_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli("test-le", "--input", null_le_file, "--j-count", 4,
                       "--spec", "no_misreport", "--seed", 5,
                       "--format", "json", "--output", report_path) == 0
        tests = table(load_json_report(report_path), "tests")
        assert len(tests["rows"]) == 1 and tests["rows"][0][0] == "no_misreport"

    def test_seed_needed_only_with_direct_responses(self, null_le_file, tmp_path, capsys):
        code = run_cli("test-le", "--input", null_le_file, "--j-count", 4)
        assert code == 1
        assert "--seed is required" in capsys.readouterr().err
        # Without the direct-response column nothing is stochastic.
        with open(null_le_file, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        stripped = tmp_path / "plain.csv"
        stripped.write_text(
            "y,t\n" + "".join(f"{r['y']},{r['t']}\n" for r in rows), encoding="utf-8"
        )
        report_path = tmp_path / "report.json"
        assert run_cli("test-le", "--input", stripped, "--j-count", 4,
                       "--format", "json", "--output", report_path) == 0
        report = load_json_report(report_path)
        assert [row[0] for row in table(report, "auxiliary_tests")["rows"]] == [
            "control_mean_equals_half_j"
        ]

    def test_drop_policy_config_key_rejected(self, null_le_file, tmp_path, capsys):
        cfg_file = write(tmp_path / "run.cfg", "drop_policy = fixed:0\n")
        assert run_cli("test-le", "--input", null_le_file, "--j-count", 4,
                       "--seed", 5, "--config", cfg_file) == 1
        assert "unknown key 'drop_policy'" in capsys.readouterr().err

    def test_report_version_is_package_version(self, null_le_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli("test-le", "--input", null_le_file, "--j-count", 4,
                       "--spec", "no_misreport", "--seed", 5,
                       "--format", "json", "--output", report_path) == 0
        assert load_json_report(report_path)["metadata"]["version"] == listmrt.__version__

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs about 0.4 s to import, paid by every command.
        src = str(Path(listmrt.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        probe = "import sys, listmrt.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_rerun_with_same_seed_reproduces_tables(self, null_le_file, tmp_path):
        reports = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert run_cli("test-le", "--input", null_le_file, "--j-count", 4,
                           "--seed", 5, "--format", "json", "--output", path) == 0
            reports.append(load_json_report(path))
        assert reports[0]["tables"] == reports[1]["tables"]
        assert reports[0]["metadata"]["config_hash"] == reports[1]["metadata"]["config_hash"]


# ---------------------------------------------------------------------------
# estimate-le


class TestEstimateLeCli:
    def test_population_exact_j3_closed_form(self, tmp_path):
        params = LeParams(delta=0.30, p0=0.10, p1=0.05)
        # A curved control pmf: an arithmetic one degenerates the closed form.
        control = ControlDistribution(j_count=3, probs=np.array([0.5, 0.25, 0.15, 0.1]))
        treatment = le_forward(params, control)
        lines = ["y,t"]
        for y, prob in enumerate(control.probs):
            lines.extend([f"{y},0"] * int(round(prob * 10000)))
        for y, prob in enumerate(treatment.probs):
            lines.extend([f"{y},1"] * int(round(prob * 10000)))
        path = write(tmp_path / "le3.csv", "\n".join(lines) + "\n")
        report_path = tmp_path / "report.json"
        assert run_cli("estimate-le", "--input", path, "--j-count", 3,
                       "--format", "json", "--output", report_path) == 0
        report = load_json_report(report_path)
        rows = {row[0]: row for row in table(report, "estimates")["rows"]}
        # Rounding to integer counts perturbs frequencies by < 1e-4.
        assert abs(rows["closed_form_delta"][1] - 0.30) < 0.02
        assert abs(rows["closed_form_p0"][1] - 0.10) < 0.02
        assert abs(rows["closed_form_p1"][1] - 0.05) < 0.02
        assert abs(rows["delta"][1] - 0.30) < 0.02
        assert rows["delta"][2] == "unavailable"
        assert isinstance(rows["mean_difference"][2], float)  # analytic SE
        fit = table(report, "fit")["rows"][0]
        assert fit[0] == "unrestricted" and fit[3] > 0.05

    def test_bootstrap_attaches_ses_and_cis(self, null_le_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli("estimate-le", "--input", null_le_file, "--j-count", 4,
                       "--n-boot", 150, "--seed", 9,
                       "--format", "json", "--output", report_path) == 0
        report = load_json_report(report_path)
        rows = {row[0]: row for row in table(report, "estimates")["rows"]}
        for name in ("delta", "p0", "p1", "mean_difference"):
            _, est, se, lo, hi = rows[name]
            assert isinstance(se, float) and se >= 0
            assert isinstance(lo, float) and isinstance(hi, float) and lo <= hi
        assert 0.2 < rows["delta"][1] < 0.5

    def test_equal_p_spec_reports_tied_rates(self, null_le_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli("estimate-le", "--input", null_le_file, "--j-count", 4,
                       "--spec", "equal_p", "--format", "json",
                       "--output", report_path) == 0
        rows = {r[0]: r for r in table(load_json_report(report_path), "estimates")["rows"]}
        assert rows["p0"][1] == rows["p1"][1]

    def test_unconverged_winning_solve_is_reported(self, null_le_file, tmp_path, monkeypatch):
        # Step 1: the first lattice solve converges but is pushed out of the
        # lead, and the others, the winner among them, report failure. Step 2
        # converges, so only the winning solve of step 1 is at fault.
        n_starts = len(le_gmm._starts(Spec.UNRESTRICTED))
        calls = []

        def least_squares(*args, **kwargs):
            res = optimize.least_squares(*args, **kwargs)
            calls.append(res)
            if len(calls) == 1:
                res.success, res.cost = True, res.cost + 1.0
            else:
                res.success = len(calls) > n_starts
            return res

        monkeypatch.setattr(le_gmm, "optimize", SimpleNamespace(least_squares=least_squares))
        report_path = tmp_path / "report.json"
        assert run_cli("estimate-le", "--input", null_le_file, "--j-count", 4,
                       "--format", "json", "--output", report_path) == 0
        report = load_json_report(report_path)
        fit = table(report, "fit")
        assert fit["rows"][0][fit["columns"].index("converged")] is False
        assert report["diagnostics"]["not_converged"] == ["gmm optimizer did not converge"]
        assert len(calls) == n_starts + 1


# ---------------------------------------------------------------------------
# estimate-mrt


@pytest.fixture(scope="module")
def mrt_discrete_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("mrtdata") / "mrt.csv"
    assert run_cli("simulate", "--design", "mrt-discrete", "--n", 2000,
                   "--seed", 21, "--output", out) == 0
    return out


class TestEstimateMrtCli:
    def test_two_cell_estimates_near_design_truth(self, mrt_discrete_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli("estimate-mrt", "--input", mrt_discrete_file, "--seed", 13,
                       "--n-boot", 0, "--format", "json", "--output", report_path) == 0
        report = load_json_report(report_path)
        est = {}
        for cell, _, estimator, param, value, *_ in table(report, "estimates")["rows"]:
            est[cell, estimator, param] = value
        # One n=2000 draw: tolerances are ~3 sampling SDs around the design truth.
        assert abs(est["overall", "closed_form", "pr_xstar"] - 0.642) < 0.09
        assert abs(est["z=0", "closed_form", "pr_xstar"] - 0.378) < 0.11
        assert abs(est["z=1", "closed_form", "pr_xstar"] - 0.818) < 0.09
        assert abs(est["overall", "extreme", "pr_xstar"] - 0.642) < 0.09
        ranks = table(report, "rank_tests")["rows"]
        assert [row[0] for row in ranks] == ["overall", "z=0", "z=1"]
        assert all(row[5] == "rank 2" for row in ranks)
        assert all(row[3] < 0.05 for row in ranks)
        agg = report["metadata"]["aggregate_pr_xstar"]
        assert abs(agg - est["overall", "closed_form", "pr_xstar"]) < 0.05
        assert "q_tests" not in [t["name"] for t in report["tables"]]

    def test_misreport_rate_convention(self, mrt_discrete_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli("estimate-mrt", "--input", mrt_discrete_file, "--seed", 13,
                       "--n-boot", 0, "--format", "json", "--output", report_path) == 0
        rows = table(load_json_report(report_path), "estimates")["rows"]
        est = {(r[0], r[2], r[3]): r[4] for r in rows}
        for cell in ("overall", "z=0", "z=1"):
            r1 = est[cell, "closed_form", "pr_x1_given_1"]
            r0 = est[cell, "closed_form", "pr_x1_given_0"]
            assert est[cell, "closed_form", "q1"] == pytest.approx(r1)
            assert est[cell, "closed_form", "q0"] == pytest.approx(1.0 - r0)
        # Flipping the convention flips which answer counts as truthful.
        cfg_file = write(tmp_path / "run.cfg", "affirmative_is_truth_for = 1\n")
        assert run_cli("estimate-mrt", "--input", mrt_discrete_file, "--seed", 13,
                       "--n-boot", 0, "--config", cfg_file,
                       "--format", "json", "--output", report_path) == 0
        rows = table(load_json_report(report_path), "estimates")["rows"]
        flipped = {(r[0], r[2], r[3]): r[4] for r in rows}
        r1 = flipped["overall", "closed_form", "pr_x1_given_1"]
        assert flipped["overall", "closed_form", "q1"] == pytest.approx(1.0 - r1)

    def test_bootstrap_ses_and_q_tests(self, mrt_discrete_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli("estimate-mrt", "--input", mrt_discrete_file, "--seed", 13,
                       "--n-boot", 150, "--format", "json", "--output", report_path) == 0
        report = load_json_report(report_path)
        rows = table(report, "estimates")["rows"]
        for cell, _, estimator, param, value, se, lo, hi in rows:
            if estimator == "closed_form":
                assert isinstance(se, float) and 0 < se < 0.15
                assert lo <= hi
            else:
                assert se == "unavailable"
        q_rows = table(report, "q_tests")["rows"]
        assert {(r[0], r[1]) for r in q_rows} == {
            (cell, q) for cell in ("overall", "z=0", "z=1") for q in ("q1", "q0")
        }
        # This design's responses encode strong deviations from the direct
        # answers, so both one-sided rate tests reject in every cell.
        assert all(r[2] < 0.05 for r in q_rows)

    def test_rerun_reproduces_tables(self, mrt_discrete_file, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert run_cli("estimate-mrt", "--input", mrt_discrete_file, "--seed", 13,
                           "--n-boot", 120, "--format", "json", "--output", path) == 0
            reports.append(load_json_report(path))
        assert reports[0]["tables"] == reports[1]["tables"]

    def test_survey_file_reports_per_covariate_cells(self, tmp_path):
        data = tmp_path / "survey.csv"
        assert run_cli("simulate", "--design", "mrt-survey", "--n", 2500,
                       "--seed", 33, "--output", data) == 0
        report_path = tmp_path / "report.json"
        assert run_cli("estimate-mrt", "--input", data, "--seed", 17,
                       "--n-boot", 0, "--format", "json", "--output", report_path) == 0
        report = load_json_report(report_path)
        cells = {row[0] for row in table(report, "estimates")["rows"]}
        expected = {"overall"}
        expected.update(f"z_{name}={v}" for name in ("gender", "race", "religion", "politics")
                        for v in (0, 1))
        expected.update(f"z_age={v}" for v in (0, 1, 2))
        assert cells == expected
        assert report["metadata"]["n_z_cells"] > 12  # grouped by full tuple underneath

    def test_continuous_file_runs_mle(self, tmp_path):
        data = tmp_path / "cont.csv"
        assert run_cli("simulate", "--design", "mrt-continuous", "--n", 800,
                       "--seed", 44, "--output", data) == 0
        report_path = tmp_path / "report.json"
        assert run_cli("estimate-mrt", "--input", data, "--seed", 1,
                       "--format", "json", "--output", report_path) == 0
        report = load_json_report(report_path)
        assert report["metadata"]["mode"] == "continuous"
        rows = table(report, "estimates")["rows"]
        names = [row[0] for row in rows]
        assert "rho[intercept]" in names and "rho[z]" in names
        assert len(rows) == 14

    def test_continuous_file_rejects_bootstrap(self, tmp_path):
        data = tmp_path / "cont.csv"
        assert run_cli("simulate", "--design", "mrt-continuous", "--n", 300,
                       "--seed", 44, "--output", data) == 0
        cfg = resolve("estimate-mrt", "--input", data, "--seed", 1, "--n-boot", 200)
        with pytest.raises(LoadError, match="continuous mode reports Hessian"):
            run_subcommand(cfg)

    def test_continuous_without_intercept_uses_plain_labels(self, tmp_path):
        data = tmp_path / "cont.csv"
        assert run_cli("simulate", "--design", "mrt-continuous", "--n", 800,
                       "--seed", 44, "--output", data) == 0
        cfg_file = write(tmp_path / "run.cfg", "include_intercept = false\n")
        report_path = tmp_path / "report.json"
        assert run_cli("estimate-mrt", "--input", data, "--seed", 1,
                       "--config", cfg_file, "--format", "json",
                       "--output", report_path) == 0
        report = load_json_report(report_path)
        names = [row[0] for row in table(report, "estimates")["rows"]]
        assert names == ["rho", "alpha1", "alpha0", "beta1", "beta0", "gamma1", "gamma0"]
        # Slope-only fit on slope-only data: point estimates near the truth.
        values = {row[0]: row[1] for row in table(report, "estimates")["rows"]}
        assert abs(values["rho"] - 1.0) < 0.6
        assert abs(values["beta1"] - 2.0) < 0.8


# ---------------------------------------------------------------------------
# montecarlo


class TestMontecarloCli:
    def test_discrete_table_shape_and_truths(self, tmp_path):
        report_path = tmp_path / "mc.json"
        assert run_cli("montecarlo", "--design", "discrete", "--n", 600, "--reps", 8,
                       "--seed", 5, "--format", "json", "--output", report_path) == 0
        report = load_json_report(report_path)
        rows = table(report, "results")["rows"]
        assert len(rows) == 6  # two estimators x three parameters
        for estimator, parameter, truth, mean, sd, median, n_failed in rows:
            assert estimator in ("closed_form", "extreme")
            assert parameter in ("pr_xstar", "pr_xstar_z0", "pr_xstar_z1")
            assert abs(mean - truth) < 0.2
            assert sd >= 0 and n_failed <= 3
        truths = {row[1]: row[2] for row in rows}
        assert truths == pytest.approx(
            {"pr_xstar": 0.642, "pr_xstar_z0": 0.378, "pr_xstar_z1": 0.818}
        )

    def test_serial_and_parallel_tables_identical(self, tmp_path):
        reports = []
        for jobs, name in ((1, "serial.json"), (2, "parallel.json")):
            cfg_file = write(tmp_path / f"jobs{jobs}.cfg", f"jobs = {jobs}\n")
            path = tmp_path / name
            assert run_cli("montecarlo", "--design", "discrete", "--n", 400, "--reps", 6,
                           "--seed", 12, "--config", cfg_file,
                           "--format", "json", "--output", path) == 0
            reports.append(load_json_report(path))
        assert reports[0]["tables"] == reports[1]["tables"]

    def test_correlated_design_reports_scale(self, tmp_path):
        cfg_file = write(tmp_path / "run.cfg", "correlation_scale = realized\n")
        report_path = tmp_path / "mc.json"
        assert run_cli("montecarlo", "--design", "discrete-correlated", "--sigma", 0.2,
                       "--n", 400, "--reps", 4, "--seed", 8, "--config", cfg_file,
                       "--format", "json", "--output", report_path) == 0
        report = load_json_report(report_path)
        assert report["metadata"]["correlation_scale"] == "realized"
        assert report["metadata"]["sigma"] == 0.2

    def test_unknown_estimator_fails_cleanly(self, tmp_path, capsys):
        cfg_file = write(tmp_path / "run.cfg", "estimators = nonesuch\n")
        code = run_cli("montecarlo", "--design", "discrete", "--n", 400, "--reps", 4,
                       "--seed", 8, "--config", cfg_file)
        assert code == 1
        assert "not available" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Cross-format number identity on a real report


class TestFormatIdentity:
    def test_json_text_csv_agree_on_real_report(self, mrt_discrete_file, tmp_path):
        paths = {fmt: tmp_path / f"report.{fmt}" for fmt in ("json", "text", "csv")}
        for fmt, path in paths.items():
            assert run_cli("estimate-mrt", "--input", mrt_discrete_file, "--seed", 13,
                           "--n-boot", 120, "--format", fmt, "--output", path) == 0
        report = load_json_report(paths["json"])
        text = paths["text"].read_text(encoding="utf-8")
        for tab in report["tables"]:
            for row in tab["rows"]:
                for value in row:
                    if isinstance(value, float):
                        assert _fmt(value) in text
        csv_rows = list(csv.reader(paths["csv"].open(newline="", encoding="utf-8")))
        primary = table(report, report["primary_table"])
        assert csv_rows[0] == primary["columns"]
        assert len(csv_rows) == len(primary["rows"]) + 1
        for json_row, csv_row in zip(primary["rows"], csv_rows[1:]):
            assert [_fmt(v) for v in json_row] == csv_row
        assert MARKER_LEGEND in text
