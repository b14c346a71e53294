"""The benchmark's traced pass finds every program boundary it wraps.

`perfbench/tracer.install` reports a dotted path that no longer exists on
stderr and leaves its metrics at 0, so a renamed or deleted boundary would
otherwise go unnoticed until a traced benchmark run reads zeros.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# wrapped by the tracer but deleted from the package; its celf spans come
# from `muxim.pipeline.celf_greedy` instead
DELETED = ["muxim.pipeline._celf_full"]
INSTALL = "import tracer; t = tracer.Tracer(); tracer.install(t); t.restore()"


def test_tracer_finds_every_boundary_it_wraps(tmp_path):
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable, "-c", INSTALL], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    missing = [m.group(1) for m in map(re.compile(r"trace: (\S+) not found").match, lines) if m]
    assert len(missing) == len(lines), proc.stderr
    assert missing == DELETED
