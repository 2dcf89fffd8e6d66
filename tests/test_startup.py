"""What a process imports: each command loads only the modules it runs.

The pipeline's modules import numpy, and an interpreter that writes no
bytecode compiles every module it loads, so a module that a command
does not run costs that command its import. Each check runs in a fresh
interpreter, since this one has imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spreader_profiler
from spreader_profiler import cli

SRC = str(Path(cli.__file__).resolve().parents[1])

# Prints the package's loaded modules and whether numpy is loaded, as one
# JSON line, after each step of a script.
_PRELUDE = """
import contextlib, io, json, sys

def loaded(step):
    names = sorted(m for m in sys.modules if m.split(".")[0] == "spreader_profiler")
    print(json.dumps([step, names, "numpy" in sys.modules]))
"""


def _steps(script: str, *args) -> dict:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PRELUDE + script, *map(str, args)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        check=True, timeout=300,
    )
    steps = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("[")]
    return {step: (set(names), numpy) for step, names, numpy in steps}


def test_cli_import_loads_no_pipeline_module_and_no_numpy():
    (names, numpy), = _steps("import spreader_profiler.cli\nloaded('cli')").values()
    assert names == {
        "spreader_profiler", "spreader_profiler.cli",
        "spreader_profiler.corpus", "spreader_profiler.errors",
    }
    assert not numpy


def test_synth_and_analyze_run_without_numpy(tmp_path):
    steps = _steps(
        """
from spreader_profiler import cli, synth
with contextlib.redirect_stdout(io.StringIO()):
    assert synth.main([sys.argv[1], "--authors-per-class", "3", "--tweets-per-author", "4"]) == 0
loaded("synth")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["analyze", "--input", sys.argv[1], "--lang", "en"]) == 0
loaded("analyze")
""",
        tmp_path / "corpus",
    )
    assert steps["synth"] == ({"spreader_profiler", "spreader_profiler.cli",
                               "spreader_profiler.corpus", "spreader_profiler.errors",
                               "spreader_profiler.synth"}, False)
    names, numpy = steps["analyze"]
    assert not numpy
    assert "spreader_profiler.analysis" in names


def test_scoring_commands_never_load_analysis(small_synth_dir, tmp_path):
    steps = _steps(
        """
from spreader_profiler import cli
corpus, model = sys.argv[1:]
commands = {
    "train": ["train", "--input", corpus, "--lang", "en", "--out", model],
    "evaluate": ["evaluate", "--model", model, "--input", corpus],
    "predict": ["predict", "--model", model, "--input", corpus],
}
for name, argv in commands.items():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0
    loaded(name)
""",
        small_synth_dir, tmp_path / "model",
    )
    assert list(steps) == ["train", "evaluate", "predict"]
    for names, numpy in steps.values():
        assert numpy and "spreader_profiler.evaluation" in names
        assert "spreader_profiler.analysis" not in names


def test_package_import_is_lazy_and_star_binds_every_name():
    steps = _steps(
        """
import spreader_profiler
loaded("package")
namespace = {}
exec("from spreader_profiler import *", namespace)
assert set(spreader_profiler.__all__) <= set(namespace)
loaded("star")
"""
    )
    assert steps["package"] == ({"spreader_profiler"}, False)
    assert steps["star"][1]


def test_every_public_name_is_its_defining_modules_object():
    for name in spreader_profiler.__all__:
        value = getattr(spreader_profiler, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("spreader_profiler.")
        assert getattr(home, name) is value, name
    namespace = {}
    exec("from spreader_profiler import *", namespace)
    assert {name: namespace[name] for name in spreader_profiler.__all__} == {
        name: getattr(spreader_profiler, name) for name in spreader_profiler.__all__
    }
    assert spreader_profiler.__version__ == "0.1.0"


def test_unknown_name_raises_and_dir_lists_every_public_name():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        spreader_profiler.no_such_name
    with pytest.raises(ImportError):
        from spreader_profiler import no_such_name  # noqa: F401
    assert set(spreader_profiler.__all__) <= set(dir(spreader_profiler))
    assert len(spreader_profiler.__all__) == len(set(spreader_profiler.__all__))
