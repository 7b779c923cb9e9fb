"""Each CLI subcommand loads only the package modules it runs, and
`import sternbrocot` alone loads none.  Every case runs in a fresh
interpreter, since the test process has long since loaded them all."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import sternbrocot
else:
    from sternbrocot import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run(argv) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("sternbrocot.") or m in ("dataclasses", "inspect"))))
"""

BASE = {"cli", "contfrac", "errors", "rationals"}
SVG = BASE | {"diagram", "figures"}
# links keeps LinkFamilyEntry a dataclass, since perfbench/selfcheck.py calls
# dataclasses.replace on it, so the link commands load dataclasses and inspect.
LINKS = BASE | {"links", "dataclasses", "inspect"}

CASES = [
    (("eval", "[-1;2,3]"), BASE),
    (("expand", "2/7"), BASE),
    (("link", "canon", "5/7"), LINKS),
    (("link", "canon", "5/7", "--json"), LINKS),
    (("link", "eq", "3/7", "5/7"), LINKS),
    (("funnel", "2/7"), BASE | {"diagram"}),
    (("funnel", "2/7", "--json"), BASE | {"diagram"}),
    (("lines", "[0;3,_,4]"), BASE | {"lines"}),
    (("lines", "[0;3,_,4]", "--json"), BASE | {"lines"}),
    (("funnel", "13/30", "--svg", "funnel.svg"), SVG),
    (("lines", "[0;3,_,4]", "--svg", "fam.svg"), SVG | {"lines"}),
    (("diagram", "--window", "0..1", "--svg", "diagram.svg"), SVG),
]


def loaded_modules(argv, cwd) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {name.removeprefix("sternbrocot.") for name in json.loads(proc.stdout)}


@pytest.mark.parametrize("argv, expected", [pytest.param(list(argv), expected, id=" ".join(argv))
                                            for argv, expected in CASES])
def test_subcommand_loads_only_the_modules_it_runs(argv, expected, tmp_path):
    assert loaded_modules(argv, tmp_path) == expected


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert loaded_modules(None, tmp_path) == set()


def test_a_submodule_loads_on_first_use_of_its_name(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = ("import sys, sternbrocot; print(sternbrocot.diagram is sys.modules['sternbrocot.diagram'],"
              " 'sternbrocot.lines' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["True", "False"], proc.stderr


def test_rationals_loads_neither_dataclasses_nor_lines(tmp_path):
    # The plane points live in lines; rationals and the figures' NamedTuple
    # overlays do not load it, and no value class module loads dataclasses.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for module, loads_lines in (("rationals", False), ("figures", False), ("contfrac", False),
                                ("diagram", False), ("lines", True)):
        script = (f"import sys, sternbrocot.{module};"
                  " print('dataclasses' in sys.modules, 'sternbrocot.lines' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.split() == ["False", str(loads_lines)], (module, proc.stderr)
