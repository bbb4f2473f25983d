"""Importing the package loads no scipy.

No eqspike module imports scipy: the teacher's GELU runs on the numpy
`autodiff.erf`.  `tests/test_dependencies.py` catches an import written in
`src/`; this test also catches one that a dependency brings in.  Loading
scipy cost about a quarter of a `train` benchmark process's peak RSS
(67.8 against 50.4 MB at the default config).
"""

import os
import subprocess
import sys

import eqspike

SRC = os.path.dirname(os.path.dirname(os.path.abspath(eqspike.__file__)))


def test_importing_the_cli_loads_no_scipy():
    code = ("import sys, eqspike.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
