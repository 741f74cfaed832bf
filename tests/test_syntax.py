"""Every module of the project compiles under Python 3.10, the oldest
version pyproject.toml allows, whichever Python runs the suite; every name
a package module imports is used in it; the third-party packages imported
are the ones pyproject.toml declares."""
import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMPILE = "import sys\nfor p in sys.argv[1:]:\n    compile(open(p, encoding='utf-8').read(), p, 'exec')"


def python310():
    """A Python 3.10 interpreter: python3.10 if it runs, else a pyenv
    versions/3.10* build; None when neither exists."""
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates = [shutil.which("python3.10")] + sorted(map(str, pyenv.glob("versions/3.10*/bin/python")))
    for exe in filter(None, candidates):
        check = subprocess.run([exe, "-c", "import sys; assert sys.version_info[:2] == (3, 10)"],
                               capture_output=True)
        if check.returncode == 0:
            return exe
    return None


def test_every_module_compiles_under_python_3_10():
    exe = python310()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter: neither python3.10 nor a pyenv versions/3.10* build")
    files = sorted(str(p) for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert files
    run = subprocess.run([exe, "-c", COMPILE, *files], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def unused_imports(path: Path) -> list:
    """Names an import statement of the module binds and nothing in it reads:
    a name read anywhere in the module, or listed in its ``__all__``, is
    used; statements marked ``# noqa: F401`` on any of their lines and
    ``__future__`` imports are exempt."""
    source = path.read_text(encoding="utf-8")
    tree, lines = ast.parse(source), source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


def test_every_package_import_is_used():
    files = sorted((ROOT / "src" / "pullconn").glob("*.py"))
    assert files
    assert [u for p in files for u in unused_imports(p)] == []


def third_party_imports(files, local) -> set:
    """Top-level names of every absolute import statement in the files,
    inside functions too, less the standard library and the local names."""
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - set(local)


def requirement_names(requirements) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}


def test_imports_are_the_declared_dependencies():
    """The package imports exactly pyproject's runtime dependencies, and the
    tests import exactly those they use of them plus the test extra, so no
    package is used undeclared or declared unused.  An import name is taken
    to be its distribution's name."""
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    runtime = requirement_names(project["dependencies"])
    test_extra = requirement_names(project["optional-dependencies"]["test"])
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert third_party_imports(sorted((ROOT / "src" / "pullconn").glob("*.py")), ["pullconn"]) == runtime
    assert third_party_imports(tests, ["pullconn"] + [p.stem for p in tests]) - runtime == test_extra
