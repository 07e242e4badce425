import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "syzlab"


def _absolute_imports(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_the_only_runtime_dependency(path):
    third_party = {n for n in _absolute_imports(path)
                   if n not in sys.stdlib_module_names}
    assert third_party <= {"numpy"}, f"{path.name} imports {sorted(third_party)}"


def _names_numpy_random(tree: ast.AST) -> bool:
    """Whether tree reads np.random or numpy.random, or imports numpy.random."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}:
            return True
        if isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.random") for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.startswith("numpy.random")
                or (node.module == "numpy" and any(a.name == "random" for a in node.names))):
            return True
    return False


@pytest.mark.parametrize("source", ["np.random.default_rng(1)", "numpy.random.random()",
                                    "import numpy.random", "from numpy.random import rand",
                                    "from numpy import random"])
def test_numpy_random_is_recognised(source):
    assert _names_numpy_random(ast.parse(source))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_numpy_random(path):
    # import numpy leaves numpy.random unloaded; loading it adds about 6 MB to peak RSS
    assert not _names_numpy_random(ast.parse(path.read_text(), filename=str(path)))


_README_RUN = """
import sys
from compare_outputs import readme_examples
from syzlab import cli
for argv in readme_examples():
    argv = [sys.argv[1] if a.endswith(".csv") else a for a in argv]
    assert cli.run(argv + ["--no-timestamp"]) == 0, argv
print("numpy.random" in sys.modules, file=sys.stderr)
"""


def test_no_readme_example_imports_numpy_random(tmp_path):
    root = SRC.parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "tools")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", _README_RUN, str(tmp_path / "decay.csv")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == "False\n"


_LAZY_RUN = """
import contextlib, gc, io, sys
import syzlab.cli as cli
cli.build_parser()
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("syzlab."))
assert loaded == ["syzlab.cli", "syzlab.errors", "syzlab.moduli"], loaded
# fractions (with decimal and numbers) loads where hkrot builds an exact tau, not at import
assert "fractions" not in sys.modules


def parsers():
    return sum(isinstance(o, cli.argparse.ArgumentParser) for o in gc.get_objects())


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# a valid argv is read by its flag table: no argparse parser exists, and a
# --no-timestamp report never loads datetime
assert run(["dims", "--k", "3", "--no-timestamp"])[0] == 0
assert parsers() == 0, parsers()
assert "datetime" not in sys.modules and "numpy" not in sys.modules
# help and a usage error build the tree once: the full parser, its three
# groups and the 14 commands, whose text is argparse's
assert run(["dims", "--help"]) == (0, sys.argv[1], "")
assert parsers() == 18, parsers()
assert run(["dims"]) == (1, "", sys.argv[2])
assert run(["semiflat", "pair", "--k", "1", "--bogus", "1"])[0] == 1
assert parsers() == 18 and "numpy" not in sys.modules
import syzlab
assert callable(syzlab.calabi.rotate)
print("ok", file=sys.stderr)
"""

# dims --help at 80 columns, and the error and full usage of dims without --k
_DIMS_HELP = """usage: syzlab dims [-h] [--csv CSV] [--no-timestamp] --k K

options:
  -h, --help      show this help message and exit
  --csv CSV       write the decay curve as CSV (columns r,value)
  --no-timestamp
  --k K
"""
_DIMS_NO_K = """error: the following arguments are required: --k
usage: syzlab [-h] {semiflat,slag,hkrot,glue,mirror,dims} ...
"""


def test_cli_import_argv_errors_and_dims_load_no_numpy():
    # importing the CLI, building its parser, rejecting argv and dims need no numpy, no
    # fractions and no model: of the package, only the numpy-free cli, errors and moduli
    # load.  A valid argv builds no argparse parser; help and usage errors build them all
    root = SRC.parents[1]
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", _LAZY_RUN, _DIMS_HELP, _DIMS_NO_K],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stderr.endswith("ok\n"), run.stderr
