"""Every module of the project compiles under Python 3.10, the oldest
version pyproject.toml allows, whichever Python runs the suite."""
import os
import shutil
import subprocess
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
