"""Each module imports on its own: the package root imports none of them,
so nothing else fixes the order in which they load."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import memrerank

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(memrerank.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(name):
    # The package directory may reach pytest only through its own
    # ``pythonpath`` setting, which the child process does not inherit.
    src = str(Path(memrerank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    check = (
        f"import sys, memrerank.{name}; "
        f"assert memrerank.{name} is sys.modules['memrerank.{name}'], memrerank.{name}"
    )
    result = subprocess.run(
        [sys.executable, "-c", check],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
