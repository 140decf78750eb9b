"""The package's lazy exports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kinvar

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_every_exported_name_resolves_to_its_module():
    for name in kinvar.__all__:
        value = getattr(kinvar, name)
        defined_in = importlib.import_module(f"kinvar.{kinvar._MODULE_OF[name]}")
        assert value is getattr(defined_in, name), name
    assert set(kinvar.__all__) <= set(dir(kinvar))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        kinvar.not_exported


def _run_fresh(script: str, *args) -> str:
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_kinvar_loads_no_numpy():
    assert _run_fresh("import sys, kinvar; print('numpy' in sys.modules)") == "False"


# importing the submodule kinvar.integrate binds it on the package under the
# name of the function it defines
@pytest.mark.parametrize("first", [
    "import kinvar.integrate",
    "from kinvar.integrate import primed_amounts",
    "from kinvar.cli import main; main(['simulate', '--config', sys.argv[1], "
    "'--out', sys.argv[2]])",
])
def test_integrate_is_the_function_whatever_was_imported_first(tmp_path, first):
    cfg = tmp_path / "scn.json"
    cfg.write_text('{"network": {"species": ["A", "B"], "reactions": [{"reactants": '
                   '[["A", 2]], "products": [["B", 1]], "k_forward": 2.0, '
                   '"k_backward": 1.0}]}, "experiment": {"a": "A", "b": "B"}, '
                   '"grid": {"t_max": 1.0, "points": 5, "spacing": "linear"}}')
    script = (f"import sys\n{first}\n"
              "import kinvar\n"
              "from kinvar import integrate\n"
              "print(integrate.__module__, integrate.__name__, "
              "kinvar.integrate is integrate)\n")
    out = _run_fresh(script, str(cfg), str(tmp_path / "o"))
    assert out == "kinvar.integrate integrate True"
