"""The benchmark's contract with the package: every name its tracer wraps
exists and is put back, and every workload's jobs pass their checks."""

import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import shiftlab
import shiftlab.cli  # noqa: F401  (the tracer wraps names in every layer)
from conftest import eager_parser

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks up the module it is defined in
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every attribute of the package's modules and of the classes the
    tracer wraps methods on, as (owner, name) -> the object bound there."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "shiftlab" or key.startswith("shiftlab.")):
            out.update({(key, attr): val for attr, val in vars(mod).items()})
    for cls in (shiftlab.configs.Configuration, shiftlab.transport.PeriodicOrbitMeasure):
        out.update({(cls, attr): val for attr, val in vars(cls).items()})
    return out


def test_tracer_wraps_every_traced_name_and_puts_it_back():
    tracing = _load_bench("tracing")
    before = _bindings()
    tracer = tracing.Tracer(shiftlab)
    tracer.install()
    try:
        for layer, names in tracing.SPANS.items():
            home = getattr(shiftlab, layer)
            for name in names:
                owner, _, attr = name.rpartition(".")
                fn = getattr(getattr(home, owner) if owner else home, attr)
                assert hasattr(fn, "__wrapped__"), f"{layer}.{name} is not wrapped"
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_site_reads_are_one_plain_function_on_the_class():
    # the tracer counts configs.value_calls by wrapping exactly this entry
    # of the class dict, so no configuration may carry a `value` of its own
    conf = shiftlab.configs.Configuration
    assert type(conf.__dict__["value"]) is types.FunctionType
    assert "value" not in conf.__slots__
    ex = shiftlab.examples
    xs = (ex.random_config(2, 1), ex.random_config(1, 1, 3), ex.visible_points_config())
    assert not any(hasattr(x, "__dict__") for x in xs)
    reads = [(x, (3, -70)[: x.dim]) for x in xs for _ in range(5)]
    tracer = _load_bench("tracing").Tracer(shiftlab)
    tracer.install()
    try:
        bits = [x.value(g) for x, g in reads]
    finally:
        tracer.uninstall()
    assert tracer.counts["configs.value_calls"] == 15
    assert bits == [x._rule(g) for x, g in reads]


def _readme_argvs() -> list[list[str]]:
    """The argvs of the `shiftlab ...` lines in the README's fenced examples."""
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```.*?```", readme, flags=re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("shiftlab ")]


def test_every_menu_and_readme_argv_parses_as_under_the_eager_parser():
    workloads = _load_bench("workloads")
    argvs = workloads.lattice_menu() + workloads.joining_menu() + _readme_argvs()
    assert len(argvs) > 100 and ["examples"] in argvs
    for argv in argvs:
        ours = vars(shiftlab.cli._build_parser(argv).parse_args(argv))
        assert ours == vars(eager_parser().parse_args(argv)), argv


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    """src/, bench/ and BENCHMARK.json in a fresh directory, as the
    benchmark is run from a checkout of them."""
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("out", "__pycache__", "*.egg-info")
    shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    shutil.copytree(ROOT / "bench", root / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def _tiny_run(bench_copy, workload: str, trace: int) -> None:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=bench_copy, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run_is_correct(bench_copy, workload):
    # the CLI workloads run untraced only: the traced check on cli.main's own
    # time is noisy on a shared machine
    _tiny_run(bench_copy, workload, 0)


def test_tiny_traced_oracle_run_is_correct(bench_copy):
    # library calls only, so the traced span checks have milliseconds of
    # headroom; the tracer's hooks read min_cost_transport's arguments, which
    # only a traced run exercises
    _tiny_run(bench_copy, "oracle-crosscheck", 1)


def test_tiny_traced_hashed_run_is_correct(bench_copy):
    # library calls only, like the oracle run above; it reads sites through
    # the tracer's Configuration.value wrapper, which only a traced run uses
    _tiny_run(bench_copy, "hashed-windows", 1)
