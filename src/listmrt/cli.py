"""Command-line interface: CSV data in, schema-versioned reports out.

Subcommands
-----------
simulate      write synthetic list-experiment or multiple-response data to CSV
estimate-le   GMM point estimates (optionally with bootstrap SEs) for a list
              experiment, plus the mean-difference estimate and, at J=3, the
              closed-form oracle
test-le       specification tests for a list experiment: the
              overidentification J-test under the requested misreporting
              specifications, the control-mean z-test, and the modified-design
              check when direct responses are present
estimate-mrt  latent-class recovery from three binary responses: rank
              pretest, closed-form and extreme estimates, misreporting rates,
              cell-stratified bootstrap SEs and one-sided q-tests, reported
              overall and per covariate value; continuous-covariate files are
              fitted by maximum likelihood instead
montecarlo    replication tables for the built-in simulation designs

Reports carry a `schema_version`, full provenance metadata (package version,
seed, configuration hash, timestamp) and a diagnostics block (clipped
estimates, ridge-regularized weight matrices, dropped bootstrap replicates,
failed cells). Three formats are supported: `json` (machine-readable, full
precision), `text` (aligned tables, 6 significant digits) and `csv` (the
primary table only, plot-ready with estimate/ci_low/ci_high columns). All
file writes are atomic (temporary file then rename). Significance markers:
``x`` for p<0.05, ``+`` for p<0.1, ``ok`` otherwise.

Configuration may come from a flat ``key = value`` file (``--config``);
explicit command-line flags override file values. Each key applies to the
subcommands its RunConfig field names: only those register its flag, and a
config file that sets it for any other subcommand is rejected with the
number of its line, and a key that the chosen simulate design or
estimate-mrt covariate mode ignores must keep its default. Every stochastic
subcommand requires a seed, and the resolved semantic configuration is
hashed into the report so a run can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime as _dt
import hashlib
import io
import itertools
import json
import math
import os
import re
import sys
import typing
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import EstimationError, InferenceError, ListmrtError, LoadError
from .le_core import (
    ControlDistribution,
    LeParams,
    LeSample,
    Spec,
    Unidentified,
    empirical_distributions,
    simulate_modified_le,
    solve_le_closed_form,
)
from .le_gmm import (
    MomentSpec,
    control_mean_ztest,
    gmm_estimate,
    j_test,
    mean_difference_empirical,
    modified_le_check,
)
from .mrt_core import (
    Method,
    MrtJoint,
    OrderingRule,
    aggregate_unconditional,
    decompose_closed_form,
    decompose_extreme,
    misreport_rates,
    rank_test,
)
from .mrt_mle import PARAM_ORDER, MrtContinuousSample, mle_fit
from .resampling import (
    CONTINUOUS_TRUTH,
    DISCRETE_TRUTH,
    BootstrapConfig,
    CorrelationScale,
    DesignKind,
    Direction,
    McDesign,
    bootstrap,
    one_sided_pvalue,
    run_monte_carlo,
    simulate_continuous_design,
    simulate_discrete_design,
)

SCHEMA_VERSION = "1.0"
UNAVAILABLE = "unavailable"
MARKER_LEGEND = "markers: x p<0.05, + p<0.1, ok p>=0.1"

_SPEC_NAMES = tuple(spec.value for spec in Spec)
_MRT_ESTIMATORS = tuple(method.value for method in Method)
_SIM_DESIGNS = ("le-null", "mrt-discrete", "mrt-survey", "mrt-continuous")
_MC_DESIGNS = {
    "discrete": DesignKind.DISCRETE_Z,
    "discrete-correlated": DesignKind.DISCRETE_Z_CORRELATED,
    "continuous": DesignKind.CONTINUOUS_Z,
    "continuous-correlated": DesignKind.CONTINUOUS_Z_CORRELATED,
}
_MRT_PARAMS = (
    "pr_xstar",
    "pr_x1_given_1",
    "pr_x1_given_0",
    "pr_x2_given_1",
    "pr_x2_given_0",
    "pr_x3_given_1",
    "pr_x3_given_0",
    "q1",
    "q0",
)

# Synthetic survey design: five demographic covariates whose cells share the
# same per-class response profiles, so every marginal subset remains an exact
# two-class mixture and each column of the report estimates a well-posed cell.
_SURVEY_COLUMNS = ("z_gender", "z_race", "z_religion", "z_politics", "z_age")
_SURVEY_MARGINALS = (
    (0.50, 0.50),
    (0.75, 0.25),
    (0.50, 0.50),
    (0.55, 0.45),
    (0.50, 0.35, 0.15),
)
_SURVEY_WEIGHTS = (0.9, 0.7, 0.5, 0.6, 0.45)
_SURVEY_INTERCEPT = -1.6

_INT_RE = re.compile(r"^[+-]?\d+$")


def significance_marker(p_value: float) -> str:
    """The report marker for a p-value: x (<0.05), + (<0.1), ok (>=0.1)."""
    if not math.isfinite(p_value):
        return ""
    if p_value < 0.05:
        return "x"
    if p_value < 0.10:
        return "+"
    return "ok"


def _test_cells(p_value: float) -> list:
    """The p_value, marker and verdict cells of one test's row."""
    return [p_value, significance_marker(p_value), "rejected" if p_value < 0.05 else "not rejected"]


# ---------------------------------------------------------------------------
# Report model and rendering


@dataclass
class Table:
    name: str
    columns: list
    rows: list


@dataclass
class Report:
    subcommand: str
    metadata: dict
    tables: list
    diagnostics: dict
    primary_table: str
    schema_version: str = SCHEMA_VERSION

    def table(self, name: str) -> Table:
        for tab in self.tables:
            if tab.name == name:
                return tab
        raise KeyError(name)


def _report(cfg: RunConfig, tables: list, diagnostics: dict, **metadata) -> Report:
    """A subcommand's report; the first table is the primary one.

    Metadata starts with the provenance keys, then `metadata` in order;
    diagnostics keep their order, and keys with an empty list are left out.
    """
    head = {
        "tool": "listmrt",
        "version": __version__,
        "subcommand": cfg.subcommand,
        "seed": cfg.seed,
        "config_hash": _config_hash(cfg),
        "created_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
    }
    kept = {key: lines for key, lines in diagnostics.items() if lines}
    return Report(cfg.subcommand, {**head, **metadata}, tables, kept, tables[0].name)


def _bootstrap(data, statistic, cfg: RunConfig, seed: int, diagnostics: dict, cell: str | None = None):
    """The bootstrap of `statistic` with cfg.n_boot replicates, or None when it aborts.

    Dropped replicates and an abort are recorded in `diagnostics`, prefixed
    with the reported cell's label when there is one.
    """
    where = "" if cell is None else f"{cell}: "
    try:
        boot = bootstrap(data, statistic, BootstrapConfig(n_reps=cfg.n_boot, seed=seed))
    except InferenceError as exc:
        diagnostics.setdefault("bootstrap_unreliable", []).append(f"{where}{exc}")
        return None
    if boot.n_failed:
        line = f"{where or 'bootstrap '}dropped {boot.n_failed} of {cfg.n_boot} replicates"
        diagnostics.setdefault("dropped_replicates", []).append(line)
    return boot


def _boot_cells(boot, k: int) -> list:
    """The se, ci_low and ci_high cells of bootstrap column k; unavailable without a bootstrap."""
    if boot is None:
        return [UNAVAILABLE] * 3
    return [float(boot.se[k]), *(float(v) for v in boot.ci95[k])]


def _fmt(value) -> str:
    """One cell for text/CSV output: floats at 6 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, bool) or value is None or isinstance(value, (int, float, str)):
        return value
    return str(value)


def render_json(report: Report) -> str:
    payload = {
        "schema_version": report.schema_version,
        "subcommand": report.subcommand,
        "metadata": _jsonable(report.metadata),
        "tables": [
            {"name": t.name, "columns": list(t.columns), "rows": _jsonable(t.rows)}
            for t in report.tables
        ],
        "diagnostics": _jsonable(report.diagnostics),
        "primary_table": report.primary_table,
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def render_text(report: Report) -> str:
    out = io.StringIO()
    out.write(f"listmrt {report.subcommand} report (schema {report.schema_version})\n")
    out.write("metadata:\n")
    for key in sorted(report.metadata):
        out.write(f"  {key}: {_fmt(report.metadata[key])}\n")
    has_marker = False
    for tab in report.tables:
        out.write(f"\ntable {tab.name}:\n")
        header = [str(c) for c in tab.columns]
        body = [[_fmt(v) for v in row] for row in tab.rows]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        out.write("  " + "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip() + "\n")
        for row in body:
            out.write("  " + "  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip() + "\n")
        has_marker = has_marker or "marker" in header
    if report.diagnostics:
        out.write("\ndiagnostics:\n")
        for key in sorted(report.diagnostics):
            value = report.diagnostics[key]
            if isinstance(value, (list, tuple)):
                value = "; ".join(str(v) for v in value) if value else "none"
            out.write(f"  {key}: {_fmt(value)}\n")
    if has_marker:
        out.write(f"\n{MARKER_LEGEND}\n")
    return out.getvalue()


def render_csv(report: Report) -> str:
    tab = report.table(report.primary_table)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(tab.columns)
    for row in tab.rows:
        writer.writerow([_fmt(v) for v in row])
    return out.getvalue()


_RENDERERS = {"json": render_json, "text": render_text, "csv": render_csv}


def _atomic_write(path: str, content: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# Configuration


def _key(default, help: str, applies_to: str, *, flag: bool = False, choices: tuple = ()):
    """Declare one configuration key as a RunConfig field.

    The field name is the key; its type hint fixes how a config-file value is
    parsed; `applies_to` names the subcommands the key applies to, separated
    by spaces, or is ``all``; a `flag` key may also be set by a ``--name``
    flag on those subcommands (the others are file-only); a nonempty
    `choices` lists the only allowed values.
    """
    metadata = {"help": help, "applies_to": tuple(applies_to.split()), "flag": flag, "choices": choices}
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Fully resolved parameters of one subcommand invocation.

    Every field after `subcommand` is one configuration key, declared only
    here: the config-file parser, the command-line flags of each subcommand
    and the allowed-value checks are derived from these fields. Values merge
    defaults, the optional ``--config`` file, and explicit command-line flags
    (highest precedence). `config_hash` covers every semantic field, so two
    runs with equal hashes and seeds produce identical tables; a key that does
    not apply to the subcommand, or that the chosen design or covariate mode
    ignores, cannot be set, so it always holds its default.
    """

    subcommand: str
    input: str | None = _key(None, "input CSV path", "estimate-le test-le estimate-mrt", flag=True)
    output: str | None = _key(None, "output path (report, or data CSV for simulate)", "all", flag=True)
    format: str = _key("text", "report format (default text)", "all", flag=True, choices=tuple(_RENDERERS))
    j_count: int | None = _key(None, "number of nonsensitive items J", "simulate estimate-le test-le", flag=True)
    spec: str | None = _key(None, "misreporting specification", "estimate-le test-le", flag=True)
    ordering: OrderingRule = _key(OrderingRule(), "latent-class ordering rule, e.g. 1:higher", "estimate-mrt", flag=True)
    n_boot: int | None = _key(None, "bootstrap replications", "estimate-le test-le estimate-mrt", flag=True)
    seed: int | None = _key(None, "RNG seed (required for stochastic runs)", "all", flag=True)
    design: str | None = _key(None, "design name", "simulate montecarlo", flag=True)
    n: int | None = _key(None, "sample size", "simulate montecarlo", flag=True)
    reps: int | None = _key(None, "replications", "montecarlo", flag=True)
    sigma: float = _key(0.0, "within-cell response correlation parameter", "simulate montecarlo", flag=True)
    mode: str = _key("auto", "estimate-mrt covariate mode", "estimate-mrt", choices=("auto", "discrete", "continuous"))
    jobs: int = _key(1, "montecarlo worker processes", "montecarlo")
    x2_fix: int = _key(1, "value of X2 that the MRT decomposition conditions on", "estimate-mrt", choices=(0, 1))
    direct_question: int = _key(1, "which question is the direct one", "estimate-mrt", choices=(1, 2, 3))
    affirmative_is_truth_for: int = _key(0, "latent class a direct yes is truthful for", "estimate-mrt", choices=(0, 1))
    bootstrap_estimator: str = _key("closed_form", "MRT bootstrap estimator", "estimate-mrt", choices=_MRT_ESTIMATORS)
    correlation_scale: str = _key("latent", "scale of sigma", "simulate montecarlo", choices=("latent", "realized"))
    group_share: float = _key(0.5, "treatment share of simulated list experiments", "simulate")
    rank_n_boot: int = _key(999, "bootstrap draws of the estimate-mrt rank test", "estimate-mrt")
    include_intercept: bool = _key(True, "fit intercepts in the continuous-covariate MLE", "estimate-mrt")
    estimators: str | None = _key(None, "comma-separated montecarlo estimators", "montecarlo")

    def semantic_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            if f.name in ("output", "format"):
                continue
            value = getattr(self, f.name)
            out[f.name] = format_ordering(value) if isinstance(value, OrderingRule) else value
        return out


_KEYS = {f.name: f for f in dataclasses.fields(RunConfig) if f.name != "subcommand"}
# The value type of each key, with ``| None`` removed: int, float, bool, str or OrderingRule.
_TYPES = {
    name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for name, hint in typing.get_type_hints(RunConfig).items()
    if name in _KEYS
}


def _config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.semantic_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def parse_ordering(text: str) -> OrderingRule:
    """Parse an ordering rule written as ``question:direction``, e.g. 1:higher."""
    parts = text.split(":")
    if len(parts) != 2 or parts[1] not in ("higher", "lower") or not _INT_RE.match(parts[0]):
        raise LoadError(
            f"ordering must look like '1:higher' or '2:lower', got {text!r}"
        )
    return OrderingRule(question=int(parts[0]), class1_higher=parts[1] == "higher")


def format_ordering(rule: OrderingRule) -> str:
    """The ``question:direction`` text of a rule; the inverse of parse_ordering."""
    return f"{rule.question}:{'higher' if rule.class1_higher else 'lower'}"


def _parse_value(key: str, text: str):
    """A key's value from its text, typed by the RunConfig field."""
    kind = _TYPES[key]
    if kind is int:
        if not _INT_RE.match(text):
            raise LoadError(f"{key} must be an integer, got {text!r}")
        return int(text)
    if kind is float:
        try:
            return float(text)
        except ValueError:
            raise LoadError(f"{key} must be a number, got {text!r}") from None
    if kind is bool:
        if text not in ("true", "false"):
            raise LoadError(f"{key} must be true or false")
        return text == "true"
    if kind is OrderingRule:
        return parse_ordering(text)
    return text


def _applies(key: str, subcommand: str) -> bool:
    """Whether a config key applies to a subcommand, per its RunConfig field."""
    applies_to = _KEYS[key].metadata["applies_to"]
    return applies_to == ("all",) or subcommand in applies_to


def _parse_config_file(path: str, subcommand: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise LoadError(f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise LoadError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise LoadError(f"config line {lineno}: unknown key {key!r}")
        if not _applies(key, subcommand):
            raise LoadError(f"config line {lineno}: {key} does not apply to {subcommand}")
        try:
            values[key] = _parse_value(key, value)
        except ListmrtError as exc:
            raise LoadError(f"config line {lineno}: {exc}") from None
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    values = _parse_config_file(args.config, args.subcommand) if args.config else {}
    for key in _KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            # argparse already typed int and float flags; the rest arrive as text.
            if isinstance(flag_value, str):
                flag_value = _parse_value(key, flag_value)
            values[key] = flag_value
    cfg = RunConfig(subcommand=args.subcommand, **values)
    _validate_config(cfg)
    return cfg


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise LoadError(message)


def _require_default(cfg: RunConfig, keys: tuple, where: str) -> None:
    """Reject each key set away from its default where its value would be ignored."""
    for key in keys:
        _require(getattr(cfg, key) == _KEYS[key].default, f"{key} does not apply to {where}")


def _validate_config(cfg: RunConfig) -> None:
    for key, f in _KEYS.items():
        choices, value = f.metadata["choices"], getattr(cfg, key)
        _require(
            not choices or value in choices,
            f"{key} must be one of {'/'.join(map(str, choices))}, got {value!r}",
        )
    _require(cfg.jobs >= 1, "jobs must be >= 1")
    _require(0.0 < cfg.group_share < 1.0, "group_share must be in (0, 1)")
    _require(cfg.rank_n_boot >= 19, "rank_n_boot must be at least 19")

    sub = cfg.subcommand
    if sub == "simulate":
        _require(cfg.design in _SIM_DESIGNS, f"design must be one of {', '.join(_SIM_DESIGNS)}")
        _require(cfg.n is not None and cfg.n >= 2, "simulate requires --n >= 2")
        _require(cfg.seed is not None, "simulate is stochastic: --seed is required")
        _require(cfg.output is not None, "simulate requires --output (the data CSV path)")
        if cfg.design == "le-null":
            _require(cfg.j_count is not None, "design le-null requires --j-count")
            _require(3 <= cfg.j_count <= 7, "le-null supports j_count between 3 and 7")
        else:
            _require_default(cfg, ("j_count", "group_share"), cfg.design)
        if cfg.design in ("le-null", "mrt-survey"):
            _require_default(cfg, ("sigma", "correlation_scale"), cfg.design)
    elif sub in ("estimate-le", "test-le"):
        _require(cfg.input is not None, f"{sub} requires --input")
        _require(cfg.j_count is not None, f"{sub} requires --j-count")
        _require(cfg.j_count >= 1, "j_count must be >= 1")
        if sub == "estimate-le":
            if cfg.n_boot is None:
                cfg.n_boot = 0
            _require(cfg.spec is None or cfg.spec in _SPEC_NAMES, f"estimate-le spec must be one of {', '.join(_SPEC_NAMES)}")
            if cfg.spec is None:
                cfg.spec = "unrestricted"
            _require(
                cfg.n_boot == 0 or cfg.n_boot >= 100,
                "n_boot must be 0 (skip bootstrap) or at least 100",
            )
            if cfg.n_boot > 0:
                _require(cfg.seed is not None, "bootstrap requested: --seed is required")
        else:
            if cfg.n_boot is None:
                cfg.n_boot = 1000
            _require(cfg.n_boot >= 19, "n_boot must be at least 19")
            _require(
                cfg.spec is None or cfg.spec == "all" or cfg.spec in _SPEC_NAMES,
                f"test-le spec must be 'all' or one of {', '.join(_SPEC_NAMES)}",
            )
            if cfg.spec is None:
                cfg.spec = "all"
    elif sub == "estimate-mrt":
        _require(cfg.input is not None, "estimate-mrt requires --input")
        _require(cfg.seed is not None, "estimate-mrt is stochastic (rank test): --seed is required")
        _require(
            cfg.n_boot is None or cfg.n_boot == 0 or cfg.n_boot >= 100,
            "n_boot must be 0 (skip bootstrap) or at least 100",
        )
    else:  # montecarlo
        _require(cfg.design in _MC_DESIGNS, f"design must be one of {', '.join(sorted(_MC_DESIGNS))}")
        _require(cfg.n is not None and cfg.n >= 2, "montecarlo requires --n >= 2")
        _require(cfg.reps is not None and cfg.reps >= 1, "montecarlo requires --reps >= 1")
        _require(cfg.seed is not None, "montecarlo is stochastic: --seed is required")


# ---------------------------------------------------------------------------
# CSV loading


def _integer(name: str, text: str, context: str = "") -> int:
    if not _INT_RE.match(text):
        raise ValueError(f"{name} must be an integer{context}, got {text!r}")
    return int(text)


def _binary(name: str, text: str) -> int:
    if (value := _integer(name, text)) not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value}")
    return value


def _finite(name: str, text: str) -> float:
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        raise ValueError(f"{name} must be a number, got {text!r}") from None
    raise ValueError(f"{name} must be finite, got {text!r}")


class _Columns:
    """The data rows of a CSV file, read once and checked column by column.

    Blank rows are skipped and not numbered. Checks record their first defective
    row; `raise_first` reports the earliest, then its leftmost column.
    """

    def __init__(self, path: str, required: tuple, optional: tuple = ()):
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                rows = [row for row in csv.reader(handle) if "".join(row).strip()]
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise LoadError(f"cannot read {path}: {exc}") from exc
        if not rows:
            raise LoadError(f"{path}: file is empty (header row mandatory)")
        self.header = header = [cell.strip() for cell in rows.pop(0)]
        for name in required:
            if name not in header:
                raise LoadError(f"{path}: missing required column {name!r}")
        self.covariates = [name for name in header if name == "z" or name.startswith("z_")]
        for k, name in enumerate(header):
            if name not in (*required, *optional, *self.covariates):
                raise LoadError(f"{path}: unexpected column {name!r}")
            if name in header[:k]:
                raise LoadError(f"{path}: duplicate column {name!r}")
        if not rows:
            raise LoadError(f"{path}: no data rows")
        width = len(header)
        self.defects: list = []  # (row index, column position, message)
        for i, row in enumerate(rows):
            if len(row) != width:
                extra = [cell.strip() for cell in row[width:] if cell.strip()]
                if extra:
                    self.defects.append((i, width, f"row {i + 1}: value {extra[0]!r} beyond the last column"))
                rows[i] = row[:width] + [None] * (width - len(row))  # None: a missing cell
        self.columns = dict(zip(header, zip(*rows)))

    def parse(self, name: str, rule, rows=True) -> tuple[list, np.ndarray]:
        """`rule(name, stripped text)` of each distinct cell text, and each row's index into them.

        A missing or rejected (ValueError) text is -1; its first row among `rows` is a defect.
        """
        column = self.columns[name]
        index = {text: k for k, text in enumerate(set(column))}
        codes = np.fromiter(map(index.__getitem__, column), np.intp, len(column))
        values, problems = [], {}
        for text, k in index.items():
            try:
                if text is None:
                    raise ValueError(f"missing value for {name}")
                values.append(rule(name, text.strip()))
            except ValueError as exc:
                values.append(-1)
                problems[k] = str(exc)
        bad = np.isin(codes, list(problems)) & rows
        self.flag(name, bad, problems.get(codes[bad.argmax()]))
        return values, codes

    def values(self, name: str, rule, rows=True) -> np.ndarray:
        values, codes = self.parse(name, rule, rows)
        return np.asarray(values)[codes]

    def flag(self, name: str, bad: np.ndarray, message: str) -> None:
        """Record the first row where `bad` holds as a defect of column `name`."""
        if bad.any():
            i = int(bad.argmax())
            self.defects.append((i, self.header.index(name), f"row {i + 1}: {message}"))

    def raise_first(self) -> None:
        if self.defects:
            raise LoadError(min(self.defects)[2])


def load_le_csv(path: str, j_count: int) -> LeSample:
    """Load and validate list-experiment records.

    Required columns: y (integer count), t (0/1 group). Optional: x_direct
    (0/1 on control rows, blank or -1 on treatment rows). Covariate columns
    (z, z_*) are rejected, since the list-experiment tests pool every record.
    Defective rows are rejected with their 1-based data-row number; rows are
    never imputed.
    """
    def count(name: str, text: str) -> int:
        if (value := _integer(name, text)) < 0:
            raise ValueError(f"y must be nonnegative, got {value}")
        return value

    def direct(name: str, text: str) -> int:
        if text == "":
            raise ValueError("missing value for x_direct")
        return _binary(name, text)

    def not_asked(name: str, text: str) -> int:
        if text not in ("", "-1"):
            raise ValueError("x_direct set on a treatment row")
        return -1

    cols = _Columns(path, ("y", "t"), ("x_direct",))
    if cols.covariates:
        raise LoadError(f"{path}: covariate column {cols.covariates[0]!r} is not supported for list experiments")
    t = cols.values("t", _binary)
    y = cols.values("y", count)
    cols.flag("y", (t == 0) & (y > j_count), "y exceeds J for control")
    cols.flag("y", (t == 1) & (y > j_count + 1), "y exceeds J+1 for treatment")
    x_direct = None
    if "x_direct" in cols.columns:
        x_direct = np.where(t == 1, -1, cols.values("x_direct", direct, rows=t == 0))
        cols.parse("x_direct", not_asked, rows=t == 1)
    cols.raise_first()
    for code, group in enumerate(("control", "treatment")):
        if not (t == code).any():
            raise LoadError(f"{path}: {group} group is empty")
    return LeSample(j_count=j_count, y=y, t=t, x_direct=x_direct)


def _load_mrt(path: str, mode: str) -> tuple[str, object, list]:
    """Shared loader: returns (resolved mode, payload, z column names)."""
    xnames = ("x1", "x2", "x3")
    cols = _Columns(path, xnames)
    z_names = cols.covariates
    if mode == "continuous" and not z_names:
        raise LoadError(f"{path}: continuous mode requires at least one z column")
    xs = np.stack([cols.values(name, _binary) for name in xnames], axis=1)
    if mode == "auto":
        texts = (text for name in z_names for text in set(cols.columns[name]))
        mode = "discrete" if all(text is None or _INT_RE.match(text.strip()) for text in texts) else "continuous"

    if mode == "continuous":
        z = np.stack([cols.values(name, _finite) for name in z_names], axis=1)
        cols.raise_first()
        return "continuous", MrtContinuousSample(x1=xs[:, 0], x2=xs[:, 1], x3=xs[:, 2], z=z), z_names

    # Rank tuples sort as the (arbitrarily large) integer code tuples do.
    levels, ranks = [], np.zeros((len(xs), len(z_names)), dtype=np.intp)
    for col, name in enumerate(z_names):
        values, codes = cols.parse(name, lambda name, text: _integer(name, text, " in discrete mode"))
        level, rank = np.unique(np.array(values, dtype=object), return_inverse=True)
        levels.append(level)
        ranks[:, col] = rank[codes]
    cols.raise_first()
    cells, cell_of_row = np.unique(ranks, axis=0, return_inverse=True)
    counts = np.bincount(8 * cell_of_row.reshape(-1) + xs @ [4, 2, 1], minlength=8 * len(cells))
    return "discrete", [
        MrtJoint(z_cell=tuple(level[r] for level, r in zip(levels, cell)), counts=count, n_cell=float(count.sum()))
        for cell, count in zip(cells.tolist(), counts.reshape(-1, 2, 2, 2).astype(float))
    ], z_names


def load_mrt_csv(path: str, mode: str = "auto"):
    """Load multiple-response data as per-cell joints or a continuous sample.

    Discrete mode groups rows by their z_* code tuple into 2x2x2 count cells;
    continuous mode returns the record-level sample. ``mode='auto'`` picks
    discrete exactly when every z value is integer-coded.
    """
    _, payload, _ = _load_mrt(path, mode)
    return payload


# ---------------------------------------------------------------------------
# simulate


def _binomial_control(j_count: int) -> ControlDistribution:
    probs = np.array([math.comb(j_count, k) for k in range(j_count + 1)], dtype=float)
    return ControlDistribution(j_count=j_count, probs=probs / probs.sum())


def _write_csv(path: str, header: list, rows: list) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _atomic_write(path, out.getvalue())


def _simulate_le_rows(cfg: RunConfig) -> tuple[list, list]:
    params = LeParams(delta=0.35, p0=0.0, p1=0.0)
    sample = simulate_modified_le(
        params,
        _binomial_control(cfg.j_count),
        cfg.n,
        cfg.group_share,
        cfg.seed,
        q1=0.0,
        q0=0.0,
    )
    rows = []
    for i in range(sample.n):
        direct = "" if sample.t[i] == 1 else int(sample.x_direct[i])
        rows.append([int(sample.y[i]), int(sample.t[i]), direct])
    return ["y", "t", "x_direct"], rows


def _expand_joints(joints: list) -> list:
    rows = []
    for joint in sorted(joints, key=lambda j: tuple(np.atleast_1d(j.z_cell))):
        z_part = [int(v) for v in np.atleast_1d(joint.z_cell)]
        for i, j, k in itertools.product((0, 1), repeat=3):
            rows.extend([[i, j, k, *z_part]] * int(round(joint.counts[i, j, k])))
    return rows


def _simulate_survey_rows(cfg: RunConfig) -> tuple[list, list]:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    z_cols = [
        rng.choice(len(probs), size=n, p=probs) for probs in _SURVEY_MARGINALS
    ]
    score = _SURVEY_INTERCEPT + sum(
        w * col for w, col in zip(_SURVEY_WEIGHTS, z_cols)
    )
    pr_xstar = 1.0 / (1.0 + np.exp(-score))
    xstar = (rng.random(n) < pr_xstar).astype(np.int64)
    profile = DISCRETE_TRUTH.cell1.pr_x_given_xstar  # shared across cells
    marginals = profile[:, xstar].T  # (n, 3)
    bits = (rng.random((n, 3)) < marginals).astype(np.int64)
    rows = [
        [int(bits[i, 0]), int(bits[i, 1]), int(bits[i, 2]), *(int(col[i]) for col in z_cols)]
        for i in range(n)
    ]
    return ["x1", "x2", "x3", *_SURVEY_COLUMNS], rows


def _cmd_simulate(cfg: RunConfig) -> Report:
    rng = np.random.default_rng(cfg.seed)
    if cfg.design == "le-null":
        header, rows = _simulate_le_rows(cfg)
    elif cfg.design == "mrt-discrete":
        joints = simulate_discrete_design(
            DISCRETE_TRUTH, cfg.n, cfg.sigma, rng, scale=CorrelationScale(cfg.correlation_scale)
        )
        header, rows = ["x1", "x2", "x3", "z"], _expand_joints(joints)
    elif cfg.design == "mrt-survey":
        header, rows = _simulate_survey_rows(cfg)
    else:  # mrt-continuous
        sample = simulate_continuous_design(
            CONTINUOUS_TRUTH, cfg.n, cfg.sigma, rng, scale=CorrelationScale(cfg.correlation_scale)
        )
        header = ["x1", "x2", "x3", "z"]
        rows = [
            [int(sample.x1[i]), int(sample.x2[i]), int(sample.x3[i]), repr(float(sample.z[i, 0]))]
            for i in range(sample.n)
        ]
    _write_csv(cfg.output, header, rows)
    written = [["design", cfg.design], ["rows_written", len(rows)], ["columns", " ".join(header)]]
    summary = Table("summary", ["key", "value"], [*written, ["path", cfg.output]])
    scale = {}
    if cfg.design in ("mrt-discrete", "mrt-continuous"):
        scale = {"sigma": cfg.sigma, "correlation_scale": cfg.correlation_scale}
    return _report(cfg, [summary], {}, design=cfg.design, n=cfg.n, **scale)


# ---------------------------------------------------------------------------
# estimate-le

# The parameters each specification reports, in the order of the report's columns.
_LE_PARAMS = {
    Spec.UNRESTRICTED: ("delta", "p0", "p1"),
    Spec.EQUAL_P: ("delta", "p0", "p1"),
    Spec.NO_MISREPORT: ("delta",),
    Spec.STRATEGIC: ("delta", "p"),
}
_LE_COLUMNS = ("delta", "p0", "p1", "p")


def _cmd_estimate_le(cfg: RunConfig) -> Report:
    sample = load_le_csv(cfg.input, cfg.j_count)
    spec = Spec(cfg.spec)
    moment_spec = MomentSpec(j_count=cfg.j_count, spec=spec)
    params = _LE_PARAMS[spec]
    result = gmm_estimate(sample, moment_spec)
    mean_diff, mean_diff_se = mean_difference_empirical(sample)
    diagnostics = {
        "ridged": ["gmm weight matrix was ridge-regularized"] if result.ridged else [],
        "not_converged": [] if result.converged else ["gmm optimizer did not converge"],
    }

    def statistic(resampled: LeSample) -> list:
        refit = gmm_estimate(resampled, moment_spec)
        diff, _ = mean_difference_empirical(resampled)
        return [*(getattr(refit.theta_hat, name) for name in params), diff]

    boot = _bootstrap(sample, statistic, cfg, cfg.seed, diagnostics) if cfg.n_boot else None
    values = [*(getattr(result.theta_hat, name) for name in params), mean_diff]
    rows = [
        [name, value, *_boot_cells(boot, k)]
        for k, (name, value) in enumerate(zip((*params, "mean_difference"), values))
    ]
    if boot is None:
        rows[-1][2] = mean_diff_se

    if cfg.j_count == 3:
        control, treatment, _, _ = empirical_distributions(sample)
        solved = solve_le_closed_form(control, treatment)
        if isinstance(solved, Unidentified):
            diagnostics["closed_form"] = [f"unidentified: {solved.reason}"]
        else:
            for name in ("delta", "p0", "p1"):
                rows.append([f"closed_form_{name}", getattr(solved, name), *[UNAVAILABLE] * 3])

    estimates = Table("estimates", ["parameter", "estimate", "se", "ci_low", "ci_high"], rows)
    fit_row = [spec.value, result.t_stat, result.dof, result.p_value, significance_marker(result.p_value)]
    fit_columns = ["spec", "t_stat", "dof", "p_value", "marker", "converged"]
    fit = Table("fit", fit_columns, [[*fit_row, result.converged]])
    metadata = {"n": sample.n, "j_count": cfg.j_count, "spec": spec.value, "n_boot": cfg.n_boot}
    return _report(cfg, [estimates, fit], diagnostics, **metadata)


# ---------------------------------------------------------------------------
# test-le


def _cmd_test_le(cfg: RunConfig) -> Report:
    sample = load_le_csv(cfg.input, cfg.j_count)
    if sample.x_direct is not None and cfg.seed is None:
        raise LoadError(
            "test-le bootstraps the modified-design check on this file: --seed is required"
        )
    spec_names = _SPEC_NAMES if cfg.spec == "all" else (cfg.spec,)
    rows, ridged = [], []
    for name in spec_names:
        spec = Spec(name)
        result = j_test(sample, MomentSpec(j_count=cfg.j_count, spec=spec))
        if result.ridged:
            ridged.append(f"weight matrix ridge-regularized for spec {name}")
        theta = [getattr(result.theta_hat, p) if p in _LE_PARAMS[spec] else None for p in _LE_COLUMNS]
        rows.append([name, *theta, result.t_stat, result.dof, *_test_cells(result.p_value)])
    tests = Table("tests", ["spec", *_LE_COLUMNS, "t_stat", "dof", "p_value", "marker", "verdict"], rows)
    diagnostics = {"ridged": ridged}

    ztest = control_mean_ztest(sample)
    aux_rows = [["control_mean_equals_half_j", ztest.statistic, *_test_cells(ztest.p_value)]]
    if sample.x_direct is not None:
        check = modified_le_check(sample, n_boot=cfg.n_boot, seed=cfg.seed)
        if check.gap_se > 0:
            z = check.gap / check.gap_se
            p = math.erfc(abs(z) / math.sqrt(2.0))
        elif check.gap == 0.0:
            z, p = 0.0, 1.0
        else:
            z, p = math.copysign(math.inf, check.gap), 0.0
        aux_rows.append(["modified_design_gap", z, *_test_cells(p)])
        diagnostics["modified_design"] = [
            f"mean_diff={_fmt(check.mean_diff)} direct_rate={_fmt(check.direct_rate)} "
            f"gap={_fmt(check.gap)} gap_se={_fmt(check.gap_se)}",
            check.caveat,
        ]
    auxiliary = Table("auxiliary_tests", ["test", "statistic", "p_value", "marker", "verdict"], aux_rows)
    specs = " ".join(spec_names)
    return _report(cfg, [tests, auxiliary], diagnostics, n=sample.n, j_count=cfg.j_count, specs=specs)


# ---------------------------------------------------------------------------
# estimate-mrt


def _mrt_vector(estimate, direct_question: int, affirmative: int) -> list:
    rates = misreport_rates(estimate, direct_question, affirmative)
    m = estimate.pr_x_given_xstar
    return [
        estimate.pr_xstar,
        m[0, 1], m[0, 0],
        m[1, 1], m[1, 0],
        m[2, 1], m[2, 0],
        rates["q1"], rates["q0"],
    ]


def _decomposer(name: str):
    return decompose_closed_form if name == "closed_form" else decompose_extreme


def _cmd_estimate_mrt(cfg: RunConfig) -> Report:
    kind, payload, z_names = _load_mrt(cfg.input, cfg.mode)
    if kind == "continuous":
        if cfg.n_boot:
            raise LoadError(
                "n_boot does not apply to a continuous-covariate file: continuous mode "
                "reports Hessian (observed-information) standard errors, not a bootstrap"
            )
        discrete_only = ("x2_fix", "direct_question", "affirmative_is_truth_for", "bootstrap_estimator", "rank_n_boot")
        _require_default(cfg, discrete_only, "continuous mode")
        return _estimate_mrt_continuous(cfg, payload, z_names)
    _require_default(cfg, ("include_intercept",), "discrete mode")
    if cfg.n_boot is None:
        cfg.n_boot = 200
    return _estimate_mrt_discrete(cfg, payload, z_names)


def _estimate_mrt_continuous(cfg: RunConfig, sample: MrtContinuousSample, z_names: list) -> Report:
    fit = mle_fit(sample, ordering=cfg.ordering, include_intercept=cfg.include_intercept)
    diagnostics = {
        "not_converged": [] if fit.converged else ["mle optimizer did not converge"],
        "small_sample": ["sample too small for reliable asymptotics"] if fit.small_sample else [],
        "se_unavailable": ["observed information was not invertible"] if fit.se is None else [],
    }
    coef_names = (["intercept"] if cfg.include_intercept else []) + z_names
    rows = []
    for name in PARAM_ORDER:
        values = np.atleast_1d(getattr(fit.params, name))
        ses = None if fit.se is None else np.atleast_1d(fit.se[name])
        for i, value in enumerate(values):
            label = name if values.size == 1 else f"{name}[{coef_names[i]}]"
            if ses is None:
                rows.append([label, float(value), *[UNAVAILABLE] * 3])
            else:
                half = 1.959963984540054 * float(ses[i])
                rows.append([label, float(value), float(ses[i]), float(value) - half, float(value) + half])
    estimates = Table("estimates", ["parameter", "estimate", "se", "ci_low", "ci_high"], rows)
    return _report(
        cfg, [estimates], diagnostics, n=sample.n, mode="continuous", loglik=fit.loglik,
        include_intercept=cfg.include_intercept, ordering=format_ordering(cfg.ordering),
    )


def _estimate_mrt_discrete(cfg: RunConfig, cells: list, z_names: list) -> Report:
    # The reported cells: the pooled sample, then one per value of each covariate.
    groups = [("overall", None, cells)]
    for col, name in enumerate(z_names):
        for value in sorted({cell.z_cell[col] for cell in cells}):
            groups.append((f"{name}={value}", col, [cell for cell in cells if cell.z_cell[col] == value]))
    n_total = sum(cell.n_cell for cell in cells)
    chosen = cfg.bootstrap_estimator
    keys = ("dropped_replicates", "bootstrap_unreliable", "clipped", "failed_cells", "rank_underpowered")
    diagnostics: dict = {key: [] for key in keys}

    def vector(estimate) -> list:
        return _mrt_vector(estimate, cfg.direct_question, cfg.affirmative_is_truth_for)

    def statistic(joint: MrtJoint) -> list:
        return vector(_decomposer(chosen)(joint, cfg.x2_fix, cfg.ordering))

    est_rows, rank_rows, q_rows, parts = [], [], [], []
    for index, (label, col, keep) in enumerate(groups):
        counts = sum((cell.counts for cell in keep), np.zeros((2, 2, 2)))
        joint = MrtJoint(z_cell=label, counts=counts, n_cell=float(counts.sum()))
        n = int(joint.n_cell)
        rank = rank_test(joint, n_boot=cfg.rank_n_boot, seed=cfg.seed + 7919 * index)
        if rank.underpowered:
            diagnostics["rank_underpowered"].append(label)
        verdict = "rank 2" if rank.reject_rank1 else "rank 1 not rejected"
        rank_rows.append([label, n, rank.statistic, rank.p_value, significance_marker(rank.p_value), verdict])
        points = {}
        for est_name in _MRT_ESTIMATORS:
            try:
                points[est_name] = estimate = _decomposer(est_name)(joint, cfg.x2_fix, cfg.ordering)
            except EstimationError as exc:
                diagnostics["failed_cells"].append(f"{est_name}:{label}: {exc}")
                continue
            if estimate.clipped:
                diagnostics["clipped"].append(f"{est_name}:{label}")
        # Each reported cell is bootstrapped on its own (resampling its pooled
        # 2x2x2 joint with n fixed), so a replicate that fails in one cell only
        # costs that cell, never the whole report.
        boot = None
        if cfg.n_boot and chosen in points:
            boot = _bootstrap(joint, statistic, cfg, cfg.seed + 104729 * index, diagnostics, label)
        for est_name, estimate in points.items():
            cell_boot = boot if est_name == chosen else None
            for k, (param, value) in enumerate(zip(_MRT_PARAMS, vector(estimate))):
                est_rows.append([label, n, est_name, param, value, *_boot_cells(cell_boot, k)])
        if boot is not None:
            for param in ("q1", "q0"):
                p = one_sided_pvalue(boot.estimates[:, _MRT_PARAMS.index(param)], 0.0, Direction.GREATER)
                q_rows.append([label, param, *_test_cells(p)])
        if col == 0:
            parts.append((points.get(chosen), joint.n_cell / n_total))

    estimate_columns = ["cell", "n", "estimator", "parameter", "estimate", "se", "ci_low", "ci_high"]
    tables = [
        Table("estimates", estimate_columns, est_rows),
        Table("rank_tests", ["cell", "n", "statistic", "p_value", "marker", "verdict"], rank_rows),
    ]
    if q_rows:
        tables.append(Table("q_tests", ["cell", "parameter", "p_value", "marker", "verdict"], q_rows))
    # The first covariate partitions the sample, so its cells aggregate to Pr(X*=1).
    aggregate = {}
    if parts and all(estimate is not None for estimate, _ in parts):
        aggregate = {"aggregate_partition": z_names[0], "aggregate_pr_xstar": aggregate_unconditional(parts)}
    return _report(
        cfg, tables, diagnostics, n=int(n_total), mode="discrete", n_z_cells=len(cells), x2_fix=cfg.x2_fix,
        direct_question=cfg.direct_question, affirmative_is_truth_for=cfg.affirmative_is_truth_for,
        bootstrap_estimator=chosen, n_boot=cfg.n_boot, ordering=format_ordering(cfg.ordering), **aggregate,
    )


# ---------------------------------------------------------------------------
# montecarlo


def _cmd_montecarlo(cfg: RunConfig) -> Report:
    kind = _MC_DESIGNS[cfg.design]
    discrete = kind in (DesignKind.DISCRETE_Z, DesignKind.DISCRETE_Z_CORRELATED)
    design = McDesign(
        kind=kind,
        truth=DISCRETE_TRUTH if discrete else CONTINUOUS_TRUTH,
        n=cfg.n,
        n_reps=cfg.reps,
        seed=cfg.seed,
        sigma=cfg.sigma,
        scale=CorrelationScale(cfg.correlation_scale),
    )
    estimators = tuple(cfg.estimators.split(",")) if cfg.estimators else None
    rows = run_monte_carlo(design, estimators=estimators, n_jobs=cfg.jobs)
    table = Table(
        "results",
        ["estimator", "parameter", "truth", "mean", "sd", "median", "n_failed"],
        [[r.estimator, r.parameter, r.truth, r.mean, r.sd, r.median, r.n_failed] for r in rows],
    )
    dropped = {f"{r.estimator}: {r.n_failed} of {cfg.reps} replicates failed" for r in rows if r.n_failed}
    return _report(
        cfg, [table], {"dropped_replicates": sorted(dropped)}, design=cfg.design, n=cfg.n, reps=cfg.reps,
        sigma=cfg.sigma, correlation_scale=cfg.correlation_scale, jobs=cfg.jobs,
    )


# ---------------------------------------------------------------------------
# Dispatch and entry point


_COMMANDS = {
    "simulate": (_cmd_simulate, "write synthetic datasets to CSV"),
    "estimate-le": (_cmd_estimate_le, "GMM estimates for a list experiment"),
    "test-le": (_cmd_test_le, "specification tests for a list experiment"),
    "estimate-mrt": (_cmd_estimate_mrt, "latent-class estimates from three responses"),
    "montecarlo": (_cmd_montecarlo, "replication tables for built-in designs"),
}


def run_subcommand(cfg: RunConfig) -> Report:
    """Dispatch one resolved configuration to its subcommand implementation."""
    return _COMMANDS[cfg.subcommand][0](cfg)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser: per subcommand, ``--config`` and the flag keys that apply to it."""
    parser = argparse.ArgumentParser(
        prog="listmrt",
        description="List-experiment validity tests and multiple-response latent recovery.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value configuration file; flags override")
        for key, f in _KEYS.items():
            if not (f.metadata["flag"] and _applies(key, name)):
                continue
            options = {"help": f.metadata["help"]}
            if _TYPES[key] in (int, float):
                options["type"] = _TYPES[key]
            if f.metadata["choices"]:
                options["choices"] = f.metadata["choices"]
            p.add_argument(f"--{key.replace('_', '-')}", **options)
    return parser


def _emit(report: Report, cfg: RunConfig) -> None:
    rendered = _RENDERERS[cfg.format](report)
    if cfg.subcommand == "simulate" or cfg.output is None:
        sys.stdout.write(rendered)
    else:
        _atomic_write(cfg.output, rendered)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        report = run_subcommand(cfg)
        _emit(report, cfg)
    except ListmrtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # unwritable output paths and similar
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
