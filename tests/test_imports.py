"""The import footprint of streamsparse: numpy is its one runtime
dependency, and importing it loads nothing else outside the standard
library."""

import os
import subprocess
import sys
from pathlib import Path

import streamsparse

# top-level names of the modules that importing streamsparse adds to those
# present at interpreter start
_PROBE = """
import sys
before = set(sys.modules)
import streamsparse
print(" ".join(sorted({name.partition(".")[0]
                       for name in set(sys.modules) - before})))
"""


def test_import_loads_only_stdlib_and_numpy():
    src = str(Path(streamsparse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-B", "-c", _PROBE],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    added = set(out.split())
    assert {"numpy", "streamsparse"} <= added
    assert added - set(sys.stdlib_module_names) == {"numpy", "streamsparse"}
