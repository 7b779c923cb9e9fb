"""Quick self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs a few operations of every workload, untraced and traced, and requires
each output check to accept them.  It then hands every checker
deliberately corrupted outputs -- a flipped SVG byte, a vertex index off
by one, a wrong canonical fraction, a wrong CLI line or exit code -- and
requires each one to be rejected.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from run import import_package

OPS = 3


def flip(text: str, at: int) -> str:
    return text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1:]


def corruptions(name: str, sb, out):
    """(label, corrupted copy of out) pairs for one workload's output."""
    if name == "window-render":
        d, svg = out
        yield "flipped SVG byte", (d, flip(svg, len(svg) // 2))
    elif name == "funnel-deep":
        payload, passed = out
        doc = json.loads(payload)
        first = next(iter(doc["indices"]))
        doc["indices"][first] += 1
        yield "index off by one", (json.dumps(doc, indent=2), passed)
        yield "failed theorem report", (payload, False)
    elif name == "family-links":
        c = out.canon0.fraction
        wrong = sb.CanonicalForm(sb.ExtendedRational(c.num + 1, c.den), out.canon0.sequence)
        yield "wrong canonical fraction", dataclasses.replace(out, canon0=wrong)
        entries = [e for e in out.links[-1] if not e.degenerate]
        e = entries[0]
        bad = dataclasses.replace(e, canonical=sb.CanonicalForm(
            sb.ExtendedRational(e.canonical.fraction.num + 1, e.canonical.fraction.den),
            e.canonical.sequence))
        links = [*out.links[:-1], tuple(bad if x is e else x for x in out.links[-1])]
        yield "wrong link-family canonical", dataclasses.replace(out, links=links)
    elif name == "cli-readme":
        yield "exit code 1", dataclasses.replace(out, returncode=1)
        yield "flipped stdout byte", dataclasses.replace(out, stdout=flip(out.stdout, 0))
        if out.svg is not None:
            svg = bytearray(out.svg)
            svg[len(svg) // 2] ^= 1
            yield "flipped SVG byte", dataclasses.replace(out, svg=bytes(svg))


def main() -> int:
    sb = import_package()
    if sb is None:
        print("error: no sternbrocot package under src/", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer, install

    problems = []
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(seed=1)
        try:
            picks = list(enumerate(wl.inputs))[:OPS]
            if name == "cli-readme":  # every command with a stated output or an SVG
                picks = [(i, inp) for i, inp in enumerate(wl.inputs) if inp[1] or inp[2]]
            for i, inp in picks:
                out = wl.run(inp)
                clean = wl.check(i, inp, out)
                if clean is not None:
                    problems.append(f"{name}[{i}]: clean output rejected: {clean}")
                for label, bad in corruptions(name, sb, out):
                    if wl.check(i, inp, bad) is None:
                        problems.append(f"{name}[{i}]: {label} was accepted")
                    else:
                        print(f"ok   {name}[{i}]: rejects {label}")
            tracer = Tracer()
            wl.tracer = tracer
            uninstall = install(tracer)
            try:
                i, inp = picks[0]
                out = wl.run(inp)
            finally:
                uninstall()
                wl.tracer = None
            traced = wl.check(i, inp, out)
            if traced is not None:
                problems.append(f"{name}[{i}]: traced output rejected: {traced}")
            else:
                print(f"ok   {name}[{i}]: traced output passes")
        finally:
            wl.close()
    for p in problems:
        print("FAIL " + p)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
