"""Names the benchmark looks up in the package.

`bench/run.py --trace 1` wraps every public function of each module and
reads the call counts of the functions that BENCHMARK.json declares by
name; its observers bind the arguments of two functions by parameter
name.  A name that disappears makes the traced run fail with a KeyError,
so these checks keep the contract visible to the package's own tests.
"""

import importlib
import inspect
import json
import os

import pytest

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")


def _declared_functions():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    calls = [m["name"] for m in spec["per_layer"] if m["name"].endswith(".calls")]
    return [name.removesuffix(".calls") for name in calls]


def _function(qualified):
    layer, name = qualified.split(".")
    module = importlib.import_module(f"weakspin.{layer}")
    return module, getattr(module, name, None)


@pytest.mark.parametrize("qualified", _declared_functions())
def test_declared_function_is_public_in_its_layer(qualified):
    module, fn = _function(qualified)
    assert inspect.isfunction(fn), f"{qualified} is not a function of {module.__name__}"
    assert fn.__module__ == module.__name__
    assert not fn.__name__.startswith("_")


def test_estimate_command_is_traced_by_name():
    _, fn = _function("cli.cmd_estimate")
    assert inspect.isfunction(fn)


@pytest.mark.parametrize(
    "qualified,params",
    [
        ("protocol.run_protocol_series", {"times"}),
        ("design.assign_time", {"curve", "threshold"}),
    ],
)
def test_observed_functions_keep_their_parameters(qualified, params):
    _, fn = _function(qualified)
    assert params <= set(inspect.signature(fn).parameters)
