"""The benchmark tracer's contract with the package.

`bench/layers.py` patches listmrt functions by module and name, and times
`cli.load_le_csv` and `cli._load_mrt` as the `cli.load` span. A loader that
is renamed, inlined or called other than through the `cli` module globals
would leave `cli.load_s` at 0 without failing the benchmark, so these tests
read the tracer as it is and check that it still sees every loader call.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import listmrt.cli

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_resolves(layers):
    for module, func, _ in layers.SPANNED:
        assert callable(getattr(sys.modules[f"listmrt.{module}"], func)), (module, func)


def test_tracer_installs_and_restores(layers):
    before = (listmrt.cli.main, listmrt.cli.load_le_csv, listmrt.cli._load_mrt)
    with layers.Tracer().installed():
        assert listmrt.cli.main is not before[0]
    assert (listmrt.cli.main, listmrt.cli.load_le_csv, listmrt.cli._load_mrt) == before


@pytest.mark.parametrize("simulate,command", [
    (["--design", "le-null", "--j-count", "4", "--n", "200"],
     ["test-le", "--j-count", "4", "--spec", "no_misreport", "--seed", "1", "--n-boot", "19"]),
    (["--design", "mrt-discrete", "--n", "400"],
     ["estimate-mrt", "--n-boot", "0", "--seed", "1"]),
    (["--design", "mrt-continuous", "--n", "300"],
     ["estimate-mrt", "--seed", "1"]),
])
def test_each_loader_records_a_load_span(layers, tmp_path, simulate, command):
    data = str(tmp_path / "data.csv")
    assert listmrt.cli.main(["simulate", *simulate, "--seed", "3", "--output", data]) == 0
    tracer = layers.Tracer()
    with tracer.installed():
        assert listmrt.cli.main([*command, "--input", data, "--output", str(tmp_path / "r.json")]) == 0
    loads = [span for span in tracer.spans if span[1] == "cli.load"]
    assert len(loads) == 1
    assert loads[0][4] is not None  # nested in the cli.main span
    assert tracer.layer_metrics()["cli.load_s"][0] > 0
