"""What a session loads: only the stages it runs.

``repro``, ``repro.sim``, ``repro.isa`` and ``repro.obs`` resolve their
public names on first access, each CLI command imports its own stages,
and ``repro.flow`` imports the process pool only to start one.  Which
modules are loaded is process-wide state, so the checks run in one fresh
interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_SESSION = """
import sys
from pathlib import Path

from repro.__main__ import main

work = Path(sys.argv[1])
(work / "kernel.c").write_text(
    "int x; int main(void) { int i; for (i = 0; i < 9; i++) x += i; return 0; }")
assert main(["compile", str(work / "kernel.c"), "-o", str(work / "k.sxe")]) == 0
stages = ("repro.decompile", "repro.synth", "repro.partition", "repro.dynamic")
loaded = [name for name in sys.modules
          if name == "repro.sim.cpu" or name.split(".")[:2] in
          [stage.split(".") for stage in stages]]
assert not loaded, f"compile loaded {sorted(loaded)}"

from repro.flow import FlowJob, run_flows

source = (work / "kernel.c").read_text()
[report] = run_flows([FlowJob(source, "kernel")], max_workers=1)
assert report.recovered
pool = [name for name in ("multiprocessing", "concurrent.futures.process")
        if name in sys.modules]
assert not pool, f"a serial sweep loaded {pool}"

import repro, repro.isa, repro.obs, repro.sim
for package in (repro, repro.sim, repro.isa, repro.obs):
    for name in package.__all__:
        getattr(package, name)
assert repro.decompile.__module__ == "repro.decompile.decompiler"
"""


def test_a_session_loads_only_what_it_runs(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _SESSION, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
