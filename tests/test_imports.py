"""Importing the package loads no scipy, and no yaml until a config file is
read.

No eqspike module imports scipy: the teacher's GELU runs on the numpy
`autodiff.erf`.  `tests/test_dependencies.py` catches an import written in
`src/`; this test also catches one that a dependency brings in.  Loading
scipy cost about a quarter of a `train` benchmark process's peak RSS
(67.8 against 50.4 MB at the default config).  `pipeline.load_config`
imports yaml only when it is given a path: importing it took 12.6-15.2 ms
of a 39-46 ms package import, which every command and every `eqbench`
set-up pays.
"""

import os
import subprocess
import sys

import eqspike

SRC = os.path.dirname(os.path.dirname(os.path.abspath(eqspike.__file__)))


def _loaded_after_importing_the_cli(top: str) -> str:
    """The printed sorted list of loaded modules under package `top`, in a
    fresh interpreter that has imported `eqspike.cli`."""
    code = ("import sys, eqspike.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    return proc.stdout.strip()


def test_importing_the_cli_loads_no_scipy():
    assert _loaded_after_importing_the_cli("scipy") == "[]"


def test_importing_the_cli_loads_no_yaml():
    assert _loaded_after_importing_the_cli("yaml") == "[]"
