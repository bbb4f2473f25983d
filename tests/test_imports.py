"""Importing the package loads no scipy.

`scipy.special` adds about 25 MB and 0.2 s to a process, and only the
teacher's gelu needs it, so `autodiff.gelu` imports it when it runs.  A
module-level import anywhere would cost every command and benchmark
process that never trains a teacher.
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
