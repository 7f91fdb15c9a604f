"""Layer tracing for the benchmark's traced pass.

Wraps public functions of the listmrt modules from outside the package: every
module attribute that is the original function is replaced, so names imported
with ``from .x import f`` are patched where they are looked up. Each call is a
span (name, start, end, parent, command); spans are kept in memory and read
once the traced round is over. Counts that are not spans come from wrapping
the objective handed to an optimizer.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_module():
    """The listmrt.cli module, imported from the checkout's src/."""
    sys.path.insert(0, str(SRC))
    from listmrt import cli

    return cli


# (module, function, span name). Inclusive times: a span contains its children.
# Metric names start with a letter, so the `_optim` module reports as `optim`.
SPANNED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_le_csv", "cli.load"),
    ("cli", "_load_mrt", "cli.load"),
    ("cli", "_emit", "cli.render"),
    ("le_core", "empirical_distributions", "le_core.empirical_distributions"),
    ("le_gmm", "gmm_estimate", "le_gmm.gmm_estimate"),
    ("le_gmm", "j_test", "le_gmm.j_test"),
    ("le_gmm", "modified_le_check", "le_gmm.modified_le_check"),
    ("_optim", "multistart_nelder_mead", "optim.multistart_nelder_mead"),
    ("mrt_core", "rank_test", "mrt_core.rank_test"),
    ("mrt_core", "decompose_extreme", "mrt_core.decompose_extreme"),
    ("mrt_core", "decompose_closed_form", "mrt_core.decompose_closed_form"),
    ("mrt_mle", "mle_fit", "mrt_mle.mle_fit"),
    ("resampling", "bootstrap", "resampling.bootstrap"),
    ("resampling", "run_monte_carlo", "resampling.run_monte_carlo"),
    ("resampling", "simulate_continuous_design", "resampling.simulate_continuous_design"),
)


# One span: perf_counter start/end in seconds, the enclosing span (None at the
# top), the index of the CLI command it belongs to, and whether it raised.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "command", "raised")


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: list[tuple] = []  # tuples in SPAN_FIELDS order
        self.counts = {
            "optim.starts": 0,
            "optim.objective_evals": 0,
            "mrt_mle.optimizer_starts": 0,
            "mrt_mle.optimizer_evals": 0,
            "resampling.bootstrap.replicates": 0,
            "resampling.bootstrap.replicates_failed": 0,
        }
        self._stack: list[int] = []
        self._command = -1

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if name == "cli.main":
                self._command += 1
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in when the call ends
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                self._stack.pop()
                self.spans[span_id] = (
                    span_id, name, start, time.perf_counter(), parent, self._command, raised
                )

        return wrapper

    def _counting_multistart(self, fn):
        def multistart(fun, starts, *args, **kwargs):
            starts = list(starts)
            self.counts["optim.starts"] += len(starts)

            def counted(x):
                self.counts["optim.objective_evals"] += 1
                return fun(x)

            return fn(counted, starts, *args, **kwargs)

        return multistart

    def _counting_bootstrap(self, fn):
        def bootstrap(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["resampling.bootstrap.replicates"] += result.estimates.shape[0]
            self.counts["resampling.bootstrap.replicates_failed"] += result.n_failed
            return result

        return bootstrap

    def _counting_optimize(self, real):
        """Stand-in for the `scipy.optimize` module as seen by mrt_mle."""
        counts = self.counts

        class Optimize:
            def __getattr__(self, attr):
                return getattr(real, attr)

            def minimize(self, fun, x0, *args, **kwargs):
                counts["mrt_mle.optimizer_starts"] += 1

                def counted(*a, **k):
                    counts["mrt_mle.optimizer_evals"] += 1
                    return fun(*a, **k)

                return real.minimize(counted, x0, *args, **kwargs)

        return Optimize()

    @contextlib.contextmanager
    def installed(self):
        """Patch every listmrt module for the duration of the block."""
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("listmrt.") and mod is not None
        }
        replaced = []  # (module, attribute, original)

        def patch(original, wrapper):
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        counting = {
            "optim.multistart_nelder_mead": self._counting_multistart,
            "resampling.bootstrap": self._counting_bootstrap,
        }
        try:
            for module, func, name in SPANNED:
                original = getattr(modules[module], func)
                inner = counting[name](original) if name in counting else original
                patch(original, self._spanned(name, inner))
            mle = modules["mrt_mle"]
            replaced.append((mle, "optimize", mle.optimize))
            mle.optimize = self._counting_optimize(mle.optimize)
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced round, as {name: (value, unit)}."""
        by_name: dict[str, list] = {}
        child_time: dict[int, float] = {}
        for span in self.spans:
            _, name, start, end, parent, _, _ = span
            by_name.setdefault(name, []).append(span)
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start

        def spans(name):
            return by_name.get(name, [])

        def total_s(name):
            return sum((s[3] - s[2] for s in spans(name)), 0.0)

        def p50_ms(name):
            durations = [1000.0 * (s[3] - s[2]) for s in spans(name)]
            return statistics.median(durations) if durations else 0.0

        out = {
            "cli.load_s": (total_s("cli.load"), "s"),
            "cli.render_s": (total_s("cli.render"), "s"),
        }
        for name in (n for _, _, n in SPANNED if not n.startswith("cli.")):
            out[f"{name}.calls"] = (len(spans(name)), "count")
            out[f"{name}.s"] = (total_s(name), "s")
        for name in ("le_gmm.gmm_estimate", "mrt_mle.mle_fit"):
            out[f"{name}.ms_p50"] = (p50_ms(name), "ms")
        for name in ("mrt_core.decompose_extreme", "mrt_core.decompose_closed_form"):
            out[f"{name}.failed"] = (sum(1 for s in spans(name) if s[6]), "count")
        out["resampling.bootstrap.self_s"] = (
            sum((s[3] - s[2] - child_time.get(s[0], 0.0) for s in spans("resampling.bootstrap")), 0.0),
            "s",
        )
        out.update({name: (value, "count") for name, value in self.counts.items()})
        return out
