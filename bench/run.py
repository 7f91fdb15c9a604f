"""End-to-end benchmark of the listmrt command-line interface.

    python3 bench/run.py --workload {le-gmm,mrt-survey,mle-mc} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` of that checkout. Each workload is a closed loop with one client:
commands run one after another, each waiting for the previous one. See
bench/README.md for the workloads, metrics and check tolerances.

With ``--trace 0`` every CLI command is a fresh subprocess, timed from outside,
because users pay interpreter and import start-up on every command. With
``--trace 1`` the same commands run in-process through ``listmrt.cli.main``,
once untraced and once with the layer wrappers of bench/layers.py installed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads, here and in every
# child (children inherit the environment), so that the figures measure the
# estimators and not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "_out"

# What the installed `listmrt` console script does.
CLI = [sys.executable, "-c", "import sys; from listmrt.cli import main; sys.exit(main())"]
DATASETS = 3  # inputs simulated per run; setup_s is the median of their times
OP_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    simulate: list  # `listmrt simulate` flags, without --seed and --output
    point: Callable[[str, int], list]  # (input CSV, seed) -> argv of the single fit
    resample: Callable[[str, int], list]  # (input CSV, seed) -> argv of the resampling run
    replicates: Callable[[dict], int]  # resampling report -> replicates it ran
    check_point: Callable[[dict, str], list]  # (report, input CSV) -> problems
    check_resample: Callable[[dict, str], list]


WORKLOADS = {
    "le-gmm": Workload(
        simulate=["--design", "le-null", "--j-count", "4", "--n", "2000"],
        point=lambda data, seed: [
            "test-le", "--input", data, "--j-count", "4", "--spec", "all", "--seed", str(seed),
        ],
        resample=lambda data, seed: [
            "estimate-le", "--input", data, "--j-count", "4", "--spec", "unrestricted",
            "--n-boot", "100", "--seed", str(seed),
        ],
        replicates=lambda report: report["metadata"]["n_boot"],
        check_point=checks.le_test_report,
        check_resample=checks.le_estimate_report,
    ),
    "mrt-survey": Workload(
        simulate=["--design", "mrt-survey", "--n", "20000"],
        point=lambda data, seed: [
            "estimate-mrt", "--input", data, "--n-boot", "0", "--seed", str(seed),
        ],
        resample=lambda data, seed: [
            "estimate-mrt", "--input", data, "--n-boot", "2000", "--seed", str(seed),
        ],
        replicates=checks.mrt_bootstrap_replicates,
        check_point=checks.mrt_survey_report,
        check_resample=checks.mrt_survey_report,
    ),
    "mle-mc": Workload(
        simulate=["--design", "mrt-continuous", "--n", "2000"],
        point=lambda data, seed: ["estimate-mrt", "--input", data, "--seed", str(seed)],
        resample=lambda data, seed: [
            "montecarlo", "--design", "continuous", "--n", "2000", "--reps", "40",
            "--seed", str(seed),
        ],
        replicates=lambda report: report["metadata"]["reps"],
        check_point=checks.mle_report,
        check_resample=checks.montecarlo_report,
    ),
}


@dataclass
class Op:
    """One finished CLI command."""

    ok: bool  # exited 0 within the timeout
    seconds: float
    peak_rss_mb: float = 0.0
    report: dict | None = None


class Runner:
    """Runs CLI commands and keeps the tallies of one benchmark run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def subprocess_op(self, argv: list) -> Op:
        """Run one command in a fresh interpreter; time it and read its peak RSS."""
        self.attempted += 1
        log = self.workdir / f"op{self.attempted}.stderr"
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                CLI + argv, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err
            )
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted, e.g. by SIGTERM: stop the child first
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self._fail(argv, f"exit code {proc.returncode}: {log.read_text()[-2000:]}")
            return Op(ok=False, seconds=seconds)
        # ru_maxrss is in kibibytes on Linux.
        return Op(ok=True, seconds=seconds, peak_rss_mb=usage.ru_maxrss / 1024.0)

    def inprocess_op(self, main, argv: list) -> Op:
        """Run one command through listmrt.cli.main in this interpreter."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # noqa: BLE001 - a crashing command is a failed operation
            self._fail(argv, traceback.format_exc())
            return Op(ok=False, seconds=time.perf_counter() - start)
        seconds = time.perf_counter() - start
        if code != 0:
            self._fail(argv, f"exit code {code}")
            return Op(ok=False, seconds=seconds)
        return Op(ok=True, seconds=seconds)

    def _fail(self, argv: list, detail: str) -> None:
        self.failed += 1
        print(f"FAILED listmrt {' '.join(argv)}\n{detail}", file=sys.stderr)

    def check(self, what: str, problems: list) -> None:
        for problem in problems:
            self.problems.append(f"{what}: {problem}")
            print(f"CHECK FAILED {what}: {problem}", file=sys.stderr)


def analysis(runner: Runner, run_op, argv: list, check, data: str, report_path: Path) -> Op:
    """One analysis command writing a JSON report, followed by its checks."""
    op = run_op(argv + ["--format", "json", "--output", str(report_path)])
    if op.ok:
        what = f"{argv[0]} on {Path(data).name}"
        try:
            op.report = json.loads(report_path.read_text())
            problems = check(op.report, data)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"malformed report: {exc!r}"]
        runner.check(what, problems)
    return op


def setup(runner: Runner, workload: Workload, seed: int) -> tuple[list, list, list]:
    """Simulate the run's input files; returns (paths, seeds, wall times)."""
    paths, seeds, times = [], [], []
    for i in range(DATASETS):
        data_seed = 1000 * seed + i
        path = runner.workdir / f"data{i}.csv"
        op = runner.subprocess_op(
            ["simulate", *workload.simulate, "--seed", str(data_seed), "--output", str(path)]
        )
        if not op.ok:
            raise SystemExit("error: listmrt simulate failed; no inputs to measure")
        runner.check(f"simulate {path.name}", checks.simulated_csv(str(path), workload.simulate))
        paths.append(str(path))
        seeds.append(data_seed)
        times.append(op.seconds)
    return paths, seeds, times


def run_round(runner: Runner, run_op, workload: Workload, paths, seeds, index: int):
    """The single fit of every input, then the resampling run of input
    ``index mod 3``; returns (single-fit ops, resampling op, its input)."""
    points = [
        analysis(runner, run_op, workload.point(data, seed), workload.check_point, data,
                 runner.workdir / f"point{i}.json")
        for i, (data, seed) in enumerate(zip(paths, seeds))
    ]
    k = index % len(paths)
    resample = analysis(
        runner, run_op, workload.resample(paths[k], seeds[k]), workload.check_resample, paths[k],
        runner.workdir / f"resample{k}.json",
    )
    return points, resample, k


def measure(runner: Runner, workload: Workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics from whole rounds of subprocess commands."""
    paths, seeds, setup_times = setup(runner, workload, seed)
    point_s, rates, report_s, rss = [], [], [], []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        points, resample, k = run_round(runner, runner.subprocess_op, workload, paths, seeds, index)
        index += 1
        point_s += [op.seconds for op in points if op.ok]
        rss += [op.peak_rss_mb for op in points + [resample] if op.ok]
        if resample.ok and resample.report is not None:
            rates.append(workload.replicates(resample.report) / resample.seconds)
            if points[k].ok:
                report_s.append(points[k].seconds + resample.seconds)
    if not (point_s and rates and report_s):
        raise SystemExit("error: every analysis command of a metric failed")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "point_s": (statistics.median(point_s), "s"),
        "replicates_per_s": (statistics.median(rates), "1/s"),
        "report_s": (statistics.median(report_s), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }


def measure_traced(runner: Runner, workload: Workload, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics and spans from one untraced and one traced in-process
    round on the first input. The amount of work is fixed, not timed, so that
    counts repeat exactly from run to run."""
    import layers  # imports the package from src/

    paths, seeds, _ = setup(runner, workload, seed)
    cli = layers.cli_module()

    def timed_round() -> float:
        start = time.perf_counter()
        # cli.main is looked up per command, so the traced round calls the wrapper.
        run_round(runner, lambda argv: runner.inprocess_op(cli.main, argv), workload, paths, seeds, 0)
        return time.perf_counter() - start

    untraced_s = timed_round()
    tracer = layers.Tracer()
    with tracer.installed():
        traced_s = timed_round()
    metrics = tracer.layer_metrics()
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics, {"fields": layers.SPAN_FIELDS, "spans": tracer.spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "listmrt" / "cli.py").is_file():
        print(f"error: no listmrt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir)
    workload = WORKLOADS[args.workload]
    # Untimed warm-up: compiles the package's bytecode cache once, a cost a
    # user pays on the first command only.
    subprocess.run(CLI + ["--help"], env=runner.env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    if args.trace:
        metrics, spans = measure_traced(runner, workload, args.seed)
        (workdir / "spans.json").write_text(json.dumps(spans))
    else:
        metrics = measure(runner, workload, args.seed, args.seconds)
    (workdir / "metrics.json").write_text(json.dumps(metrics, indent=1))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
