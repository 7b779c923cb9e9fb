"""perfbench/tracing.py wraps package functions and methods by name, so
deleting or renaming one breaks `perfbench/run.py --trace 1`.  Installing
and removing the tracer in a fresh process catches that in the tests."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from tracing import Tracer, install
import sternbrocot
from sternbrocot import ContinuedFraction, ExtendedRational, contfrac, line_family

original = contfrac.evaluate
tracer = Tracer()
uninstall = install(tracer)
fam = line_family(ContinuedFraction((0, 3, 1, 4)), 2)
sternbrocot.evaluate(fam.sequence_for(2))
ExtendedRational(1, 3) < ExtendedRational(1, 2)
uninstall()
print(json.dumps({{"spans": sorted(tracer.stats), "compares": tracer.compares[0],
                  "restored": contfrac.evaluate is original}}))
"""


def test_tracer_installs_on_every_wrapped_name_and_uninstalls():
    script = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert {"contfrac", "lines"} <= set(doc["spans"])
    assert doc["compares"] == 1 and doc["restored"]
