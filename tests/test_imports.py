"""What importing the library loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# imports every fgwcl module and reports them and the scipy modules loaded
_IMPORT_ALL = """
import importlib, json, pkgutil, sys
import fgwcl
names = [m.name for m in pkgutil.walk_packages(fgwcl.__path__, "fgwcl.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"imported": names,
                  "scipy": sorted(m for m in sys.modules
                                  if m.startswith("scipy."))}))
"""


def test_no_module_loads_scipy_optimize_or_linalg():
    # a fresh interpreter: this one has imported the test oracles, which
    # use scipy.optimize
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALL],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    assert {"fgwcl.cli", "fgwcl.ot", "fgwcl.train"} <= set(report["imported"])
    assert "scipy.sparse" in report["scipy"]
    assert "scipy.optimize" not in report["scipy"]
    assert "scipy.linalg" not in report["scipy"]
