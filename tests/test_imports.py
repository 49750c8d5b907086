"""Every name a module of the package imports is used in that module.

The project depends on no linter, so the check reads the source with the
standard library's ``ast``.  ``__init__.py`` imports are its re-exports, and
an import statement marked ``# noqa: F401`` is kept on purpose; both are
exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invalg

PACKAGE = Path(invalg.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement of ``source`` and never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_unused_import_check_sees_what_it_looks_for():
    source = ("import math\nimport numpy as np\nimport os.path\n"
              "from .reps import character, restrict\n"
              "from .groups import all_subgroups  # noqa: F401\n"
              "x = np.eye(2)\ny = restrict(x)\n")
    assert unused_imports(source) == ["character", "math", "os"]


def test_the_check_guards_the_character_route_of_induction_pairs():
    """The names the commutant route made unused in ``classify`` are caught
    if they come back."""
    source = (PACKAGE / "classify.py").read_text(encoding="utf-8")
    source += ("from .groups import class_index_array, conjugacy_classes\n"
               "from .reps import character, character_table, inner_product, "
               "is_induced_from\n")
    assert unused_imports(source) == sorted([
        "character", "character_table", "class_index_array", "conjugacy_classes",
        "inner_product", "is_induced_from"])


def test_set_up_and_commands_leave_numpy_ma_unloaded():
    """``np.unique`` imports ``numpy.ma``, which costs every process about a
    megabyte of RSS.  Building the catalog (whose groups compute their
    generators) loads no ``numpy.ma``, and neither do the four commands on a
    linear and a projective input."""
    code = "\n".join([
        "import io, sys, contextlib",
        "import invalg.cli",
        "from invalg import catalog",
        "catalog.catalog()",
        "print('numpy.ma' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for cmd in ('validate', 'ideals', 'subalgebras', 'factor'):",
        "        for key in ('S3xS3:stdXstd', 'C2xC2:pauli', 'A4:std3'):",
        "            invalg.cli.main([cmd, 'catalog:' + key])",
        "print('numpy.ma' in sys.modules)"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "False"]
