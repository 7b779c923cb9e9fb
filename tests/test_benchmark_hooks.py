"""perfbench/tracing.py wraps package functions and methods by name, so
deleting or renaming one breaks `perfbench/run.py --trace 1`.  Installing
and removing the tracer in a fresh process catches that in the tests.

The package reads each public name through to its submodule on every use
and never stores it, so a name first read while the tracer is installed
is the original again once the tracer is removed."""

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
from sternbrocot import ContinuedFraction, ExtendedRational, contfrac, diagram, line_family

original = contfrac.evaluate
original_build = diagram.build_diagram
tracer = Tracer()
uninstall = install(tracer)
fam = line_family(ContinuedFraction((0, 3, 1, 4)), 2)
sternbrocot.evaluate(fam.sequence_for(2))
ExtendedRational(1, 3) < ExtendedRational(1, 2)
compares = tracer.compares[0]
traced_build = sternbrocot.build_diagram  # the package's first read of this name
traced_build(ExtendedRational(0), ExtendedRational(1), 3)
uninstall()
print(json.dumps({{"spans": sorted(tracer.stats), "compares": compares,
                  "restored": contfrac.evaluate is original,
                  "read_traced": traced_build is not original_build,
                  "package_restored": sternbrocot.build_diagram is diagram.build_diagram
                                      is original_build}}))
"""


def test_tracer_installs_on_every_wrapped_name_and_uninstalls():
    script = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert {"contfrac", "lines", "diagram.build"} <= set(doc["spans"])
    assert doc["compares"] == 1 and doc["restored"]
    assert doc["read_traced"] and doc["package_restored"]


def test_harness_self_check_passes():
    """perfbench/selfcheck.py runs every workload and checker against the
    package, so a change in src that the harness relies on, such as
    dataclasses.replace on a LinkFamilyEntry or a positional CanonicalForm,
    fails here."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selfcheck.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-check passed"
