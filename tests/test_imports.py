"""The package's import graph: importing every `ntcfk` module loads
nothing outside the standard library but numpy.

A fresh interpreter's import time is part of the benchmark's `setup_s`,
so a stray import of a heavy optional package (scipy, hypothesis) fails
here rather than as a slower set-up.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import ntcfk
for info in pkgutil.iter_modules(ntcfk.__path__):
    importlib.import_module("ntcfk." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded)))
"""


def test_ntcfk_imports_only_stdlib_and_numpy():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert {"ntcfk", "numpy"} <= loaded
    assert loaded - sys.stdlib_module_names - {"ntcfk", "numpy"} == set()
