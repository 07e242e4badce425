import ast
import pathlib
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
