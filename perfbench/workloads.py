"""The four benchmark workloads: seeded inputs, one timed operation, and an
output check that does not rely on the code under test.

Each workload builds a fixed pool of inputs from `random.Random(seed)`,
which the run loop replays in order.  The sizes that set an operation's
cost (window density and width, the big partial quotient, expansion
length) cover their stated range on an even grid; the seed decides which
input gets which size, everything else about the input (position,
leading term, the partial quotients themselves) and the order.  Every
seed thus gets the same spread of costs, which keeps throughput and
latency percentiles comparable across seeds.

Checks use plain integers, `fractions.Fraction` and their own
continued-fraction arithmetic; they read the program's outputs but call
none of its functions, except where the check is that a call repeats
byte for byte.  A check returns None or a one-line description of the
first problem it found.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import sternbrocot as sb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MS = range(-20, 21)  # line-family parameters swept per slot


def grid(n: int, lo: int, hi: int) -> list[int]:
    """n integers spread evenly over [lo, hi], both ends included."""
    return [lo + (hi - lo) * i // (n - 1) for i in range(n)]


def standard_body(rng: random.Random, n: int, lo: int, hi: int) -> tuple[int, ...]:
    """n partial quotients in lo..hi whose last one is at least 2."""
    body = [rng.randint(lo, hi) for _ in range(n)]
    body[-1] = rng.randint(max(2, lo), max(2, hi))
    return tuple(body)


# -- reference arithmetic ------------------------------------------------


def cf_column(terms) -> tuple[int, int]:
    """Unreduced value (p, q) of [a0; a1, ..., an]: p/q folded from the tail."""
    p, q = terms[-1], 1
    for a in reversed(terms[:-1]):
        p, q = a * p + q, p
    return p, q


def reduced(p: int, q: int) -> tuple[int, int]:
    """Lowest terms with q >= 0; every (p, 0) is the single infinity (1, 0)."""
    if q == 0:
        return 1, 0
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    return p // g, q // g


def parse_value(text: str) -> tuple[int, int]:
    p, _, q = text.partition("/")
    return int(p), int(q) if q else 1


def pair(r) -> tuple[int, int]:
    return r.num, r.den


def mod_class_min(p: int, q: int) -> int:
    """Smallest of p, -p, 1/p, -1/p modulo q (Schubert's class of p/q)."""
    inv = pow(p % q, -1, q)
    return min(p % q, -p % q, inv, -inv % q)


def schubert(p: int, q: int, c: int) -> bool:
    """c = +-p or c = +-1/p modulo q."""
    return (c - p) % q == 0 or (c + p) % q == 0 or (c * p - 1) % q == 0 or (c * p + 1) % q == 0


def totients(n: int) -> list[int]:
    phi = list(range(n + 1))
    for i in range(2, n + 1):
        if phi[i] == i:
            for j in range(i, n + 1, i):
                phi[j] -= phi[j] // i
    return phi


class Workload:
    name = ""
    tracer = None  # set by the run loop around each traced operation

    def __init__(self, seed: int):
        self.inputs = self.make_inputs(random.Random(seed))
        self._digests: dict[int, str] = {}

    def make_inputs(self, rng: random.Random) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, index: int, inp, out) -> str | None:
        raise NotImplementedError

    def same_as_before(self, index: int, data: bytes) -> bool:
        """True unless this pool entry produced different bytes on an earlier pass."""
        digest = hashlib.sha256(data).hexdigest()
        return self._digests.setdefault(index, digest) == digest

    def close(self) -> None:
        pass


# -- window-render -------------------------------------------------------


@dataclass(frozen=True)
class Window:
    lo: tuple[int, int]
    hi: tuple[int, int]
    max_den: int
    unit: bool


class WindowRender(Workload):
    """build_diagram then render_svg.  Half the pool are unit windows [k, k+1],
    k in -3..3; half are sub-windows of width 0.1..0.9 inside one, with
    endpoints of denominator <= 100.  max_den covers 40..160 in each half."""

    name = "window-render"
    UNIT, SUB = 27, 28
    _phi = totients(160)

    def make_inputs(self, rng):
        pool = [Window((k, 1), (k + 1, 1), d, True)
                for d in grid(self.UNIT, 40, 160) for k in [rng.randint(-3, 3)]]
        dens = grid(self.SUB, 40, 160)
        for i in range(self.SUB):
            width = 0.1 + 0.8 * i / (self.SUB - 1)
            x0 = rng.randint(-3, 3) + rng.random() * (1 - width)
            lo = Fraction(x0).limit_denominator(100)
            hi = Fraction(x0 + width).limit_denominator(100)
            # A fixed pairing of width and density, so that no seed stacks
            # the widest windows on the densest ones.
            pool.append(Window((lo.numerator, lo.denominator), (hi.numerator, hi.denominator),
                               dens[(9 * i) % self.SUB], False))
        rng.shuffle(pool)
        return [(w, sb.ExtendedRational(*w.lo), sb.ExtendedRational(*w.hi)) for w in pool]

    def run(self, inp):
        w, lo, hi = inp
        d = sb.build_diagram(lo, hi, w.max_den)
        return d, sb.render_svg(d)

    def expected_vertices(self, w: Window) -> int:
        if w.unit:
            return 1 + sum(self._phi[1:w.max_den + 1])
        (a, b), (c, e) = w.lo, w.hi
        return sum(
            1
            for q in range(1, w.max_den + 1)
            for p in range(-((-a * q) // b), (c * q) // e + 1)
            if math.gcd(p, q) == 1
        )

    def check(self, index, inp, out):
        w = inp[0]
        d, svg = out
        (a, b), (c, e) = w.lo, w.hi
        verts = [pair(v) for v in d.vertices]
        if len(verts) != self.expected_vertices(w):
            return f"{len(verts)} vertices, expected {self.expected_vertices(w)}"
        prev = None
        for p, q in verts:
            if not (1 <= q <= w.max_den and math.gcd(p, q) == 1):
                return f"vertex {p}/{q} is not reduced with denominator <= {w.max_den}"
            if not (a * q <= p * b and p * e <= c * q):
                return f"vertex {p}/{q} outside the window"
            if prev is not None and not prev[0] * q < p * prev[1]:
                return f"vertices not strictly increasing at {p}/{q}"
            prev = p, q
        vset = set(verts)
        for x, y in d.edges:
            (p, q), (r, s) = pair(x), pair(y)
            if r * q - p * s != 1 or (p, q) not in vset or (r, s) not in vset:
                return f"edge {x}-{y} is not an increasing Farey pair of window vertices"
        for x, m, y in d.triangles:
            (p, q), (r, s) = pair(x), pair(y)
            if r * q - p * s != 1 or pair(m) != (p + r, q + s) or not {(p, q), pair(m), (r, s)} <= vset:
                return f"triangle {x},{m},{y} is not a Farey triple of window vertices"
        if w.unit and (len(d.edges), len(d.triangles)) != (2 * len(verts) - 3, len(verts) - 2):
            return f"unit window has {len(d.edges)} edges, {len(d.triangles)} triangles"
        if svg.count("<circle ") != len(verts) or svg.count("<line ") != len(d.edges):
            return "SVG element counts differ from the diagram"
        # Every run makes at least two passes, so this compares each SVG
        # with an independent second rendering of the same window.
        if not self.same_as_before(index, svg.encode()):
            return "SVG differs from an earlier pass"
        return None


# -- funnel-deep ---------------------------------------------------------


class FunnelDeep(Workload):
    """funnel + verify_funnel_theorem + the `funnel --json` payload.  Three
    shapes, a third of the pool each: [a0; h] with h in 100..5000; 50..400
    partial quotients in 1..3; 2..30 partial quotients in 1..40."""

    name = "funnel-deep"
    THIRD = 25

    def make_inputs(self, rng):
        pool = [(rng.randint(-3, 3), h) for h in grid(self.THIRD, 100, 5000)]
        pool += [(rng.randint(-3, 3), *standard_body(rng, n, 1, 3))
                 for n in grid(self.THIRD, 50, 400)]
        pool += [(rng.randint(-3, 3), *standard_body(rng, n, 1, 40))
                 for n in grid(self.THIRD, 2, 30)]
        rng.shuffle(pool)
        return [(terms, sb.ExtendedRational(*cf_column(terms))) for terms in pool]

    def run(self, inp):
        f = sb.funnel(inp[1])
        report = sb.verify_funnel_theorem(f.expansion)
        payload = json.dumps(
            {
                "base": str(f.alpha),
                "terms": list(f.expansion.terms),
                "triangles": [[str(v) for v in tri] for tri in f.triangles],
                "indices": {str(v): f.indices[v] for v in sorted(f.indices)},
            },
            indent=2,
        )
        return payload, report.all_passed

    def check(self, index, inp, out):
        terms = inp[0]
        payload, all_passed = out
        if not all_passed:
            return "verify_funnel_theorem reported a failed clause"
        doc = json.loads(payload)
        if tuple(doc["terms"]) != terms:
            return f"expansion {doc['terms']} differs from the generated terms"
        alpha = parse_value(doc["base"])
        if cf_column(terms) != alpha:
            return f"evaluate(expansion) != alpha = {doc['base']}"
        tris = [tuple(parse_value(t) for t in tri) for tri in doc["triangles"]]
        # The search from (a0, a0 + 1) reaches alpha after a_1 + ... + a_n - 1
        # mediants, one triangle each (2/7 = [0;3,2] has 4).
        if len(tris) != sum(terms[1:]) - 1:
            return f"{len(tris)} triangles, expected sum of a_j - 1 = {sum(terms[1:]) - 1}"
        # The strip is the Stern-Brocot search path from (a0, a0 + 1) to alpha.
        lo, hi = (terms[0], 1), (terms[0] + 1, 1)
        for k, (x, m, y) in enumerate(tris):
            if (x, y) != (lo, hi) or m != (x[0] + y[0], x[1] + y[1]):
                return f"triangle {k} is not on the search path"
            if m == alpha:
                if k != len(tris) - 1:
                    return "the strip continues past alpha"
            elif alpha[0] * m[1] < m[0] * alpha[1]:
                hi = m
            else:
                lo = m
        if tris[-1][1] != alpha:
            return "the strip does not end at alpha"

        def below(u, v):
            return u[0] * v[1] < v[0] * u[1]

        edges = {(u, v) if below(u, v) else (v, u)
                 for x, m, y in tris for u, v in ((x, m), (m, y), (x, y))}
        want: dict[tuple[int, int], int] = {}
        for u, v in edges:
            for w in (u, v):
                if w != alpha:
                    want.setdefault(w, 0)
            if below(u, alpha) and below(alpha, v):
                want[u] += 1
                want[v] += 1
        if len(terms) == 2:
            # Single fan: the closing spoke ends on the ray and counts.
            want[(terms[0], 1)] += 1
        got = {parse_value(k): i for k, i in doc["indices"].items()}
        if got != want:
            bad = sorted(set(got.items()) ^ set(want.items()))[:2]
            return f"vertex indices differ from a recount: {bad}"
        # The theorem's reading of the pivot indices off the terms.
        n = len(terms) - 1
        convs, p0, q0, p1, q1 = [], 1, 0, terms[0], 1
        for a in terms[1:]:
            convs.append((p1, q1))
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        expect = {0: terms[1], n - 1: terms[n]}
        expect.update({j: 1 + terms[j + 1] for j in range(1, n - 1)})
        for j, idx in expect.items():
            if got.get(convs[j]) != idx:
                return f"index of convergent c_{j} is {got.get(convs[j])}, expected {idx}"
        return None


# -- family-links --------------------------------------------------------


@dataclass
class SlotResult:
    plus: object
    minus: object
    values: list
    vertices: list
    sides: list
    on_line: list


@dataclass
class FamilyResult:
    slots: list
    links: list
    canon0: object
    equivalent0: bool


class FamilyLinks(Workload):
    """One standard sequence [a0; a1..an], n in 1..40 and a_j in 1..50: every
    slot opened with m in -20..20, then the link operations on [0; a1..an]."""

    name = "family-links"
    POOL = 45

    def make_inputs(self, rng):
        pool = [(rng.randint(-3, 3), standard_body(rng, n, 1, 50)) for n in grid(self.POOL, 1, 40)]
        rng.shuffle(pool)
        return [(sb.ContinuedFraction((a0, *body)), sb.ContinuedFraction((0, *body)))
                for a0, body in pool]

    def run(self, inp):
        seq, seq0 = inp
        plus_side = sb.Side.PLUS
        slots = []
        for i in range(1, seq.degree + 1):
            fam = sb.line_family(seq, i)
            plus, minus = fam.line_pair()
            values = [fam.value(m) for m in MS]
            vertices = [fam.vertex(m) for m in MS]
            sides = [fam.side(m) for m in MS]
            on_line = [(plus if s is plus_side else minus).contains(v)
                       for s, v in zip(sides, vertices)]
            fam.denominator_root()
            fam.squared_distance_profile(10)
            fam.shared_line_partner()
            slots.append(SlotResult(plus, minus, values, vertices, sides, on_line))
        links = [sb.link_family(seq0, i, MS) for i in range(1, seq0.degree + 1)]
        value0 = sb.evaluate(seq0)
        canon0 = sb.canonical_fraction(value0)
        return FamilyResult(slots, links, canon0, sb.schubert_equivalent(value0, canon0.fraction))

    @staticmethod
    def _slot_columns(terms, i):
        """Reference pieces for opening slot i: the 2x2 product of the head
        (a0 included) and the tail column, so member m is head . C(m) . tail."""
        a, b, c, d = 1, terms[0], 0, 1
        for t in terms[1:i]:
            a, b, c, d = b, a + b * t, d, c + d * t
        v, w = 0, 1
        for t in reversed(terms[i + 1:]):
            v, w = w, v + t * w
        return (a, b, c, d), (v, w)

    @staticmethod
    def _member(head, tail, m):
        a, b, c, d = head
        v, w = tail
        x, y = w, v + m * w
        return a * x + b * y, c * x + d * y

    @staticmethod
    def _check_canonical(canon, p, q) -> str | None:
        c = canon.fraction
        if c.den != q or c.num != mod_class_min(p, q):
            return f"canonical fraction of {p}/{q} is {c}, expected {mod_class_min(p, q)}/{q}"
        if not (0 < 2 * c.num <= q) or not schubert(p, q, c.num):
            return f"canonical {c} of {p}/{q} is outside (0, 1/2] or not equivalent"
        if reduced(*cf_column(canon.sequence.terms)) != (c.num, c.den):
            return f"sequence {canon.sequence} does not evaluate to {c}"
        return None

    def check(self, index, inp, out):
        seq, seq0 = inp
        terms, terms0 = seq.terms, seq0.terms
        if len(out.slots) != seq.degree or len(out.links) != seq0.degree:
            return "wrong number of slots"
        for i, slot in enumerate(out.slots, start=1):
            head, tail = self._slot_columns(terms, i)
            if not all(slot.on_line):
                return f"slot {i}: a vertex is not on the line its side names"
            gamma = Fraction(*pair(slot.plus.anchor.x))
            x1, y1 = Fraction(*pair(slot.plus.through.x)), Fraction(*pair(slot.plus.through.y))
            (yn, yd), anchor = pair(slot.plus.through.y), pair(slot.plus.anchor.x)
            if pair(slot.minus.anchor.x) != anchor or pair(slot.minus.through.y) != (-yn, yd):
                return f"slot {i}: minus line is not the mirror of plus"
            for m, val, vert, side in zip(MS, slot.values, slot.vertices, slot.sides):
                p, q = self._member(head, tail, m)
                if pair(val) != reduced(p, q):
                    return f"slot {i}, m={m}: value {val} != {reduced(p, q)}"
                want_side = "PLUS" if q > 0 else "MINUS" if q < 0 else "INFINITE"
                if side.value != want_side:
                    return f"slot {i}, m={m}: side {side.value}, expected {want_side}"
                if q == 0:
                    if not vert.at_infinity:
                        return f"slot {i}, m={m}: infinite member has a finite vertex"
                    continue
                x, y = Fraction(p, q), Fraction(1, abs(q))
                if vert.at_infinity or (Fraction(*pair(vert.x)), Fraction(*pair(vert.y))) != (x, y):
                    return f"slot {i}, m={m}: vertex {vert} != ({x}, {y})"
                sign = 1 if q > 0 else -1
                if (x - gamma) * y1 != sign * (x1 - gamma) * y:
                    return f"slot {i}, m={m}: vertex not on the {want_side} line"
        for i, entries in enumerate(out.links, start=1):
            head, tail = self._slot_columns(terms0, i)
            if [e.m for e in entries] != list(MS):
                return f"link slot {i}: wrong parameters"
            for e in entries:
                p, q = reduced(*self._member(head, tail, e.m))
                if pair(e.value) != (p, q):
                    return f"link slot {i}, m={e.m}: value {e.value} != {p}/{q}"
                if e.degenerate != (q <= 1):
                    return f"link slot {i}, m={e.m}: degenerate flag wrong"
                if q > 1:
                    problem = self._check_canonical(e.canonical, p, q)
                    if problem:
                        return f"link slot {i}, m={e.m}: {problem}"
        p, q = reduced(*cf_column(terms0))
        problem = self._check_canonical(out.canon0, p, q)
        if problem:
            return problem
        if out.equivalent0 is not True:
            return "schubert_equivalent(x, canonical(x)) is not True"
        return None


# -- cli-readme ----------------------------------------------------------

# The README's CLI block, in order.  Expected text is what the README
# states: the whole stdout, or its first line for `link canon`.
README_COMMANDS = (
    (("eval", "[-1;2,3]"), "-4/7", None),
    (("expand", "2/7"), "[0;3,2]", None),
    (("funnel", "2/7"), None, None),
    (("funnel", "2/7", "--json"), None, None),
    (("funnel", "13/30", "--svg", "funnel.svg"), None, "funnel.svg"),
    (("lines", "[0;3,_,4]", "--range", "-5..5"), None, None),
    (("lines", "[0;3,_,4]", "--json"), None, None),
    (("lines", "[0;3,_,4]", "--svg", "fam.svg"), None, "fam.svg"),
    (("diagram", "--window", "0..1", "--max-denom", "60", "--svg", "diagram.svg"), None, "diagram.svg"),
    (("link", "canon", "5/7"), "2/7 = [0;3,2] (standard plat)", None),
    (("link", "eq", "3/7", "5/7"), "equivalent", None),
)


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    svg: bytes | None


class CliReadme(Workload):
    """Each README CLI command as a fresh `python -m sternbrocot` process,
    one at a time; a pass runs all eleven in a seeded order."""

    name = "cli-readme"
    TIMEOUT_S = 120

    def __init__(self, seed):
        super().__init__(seed)
        self.workdir = OUT / f"cli-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def make_inputs(self, rng):
        pool = list(README_COMMANDS)
        rng.shuffle(pool)
        return pool

    def run(self, inp):
        argv, _, svg_name = inp
        self.workdir.mkdir(parents=True, exist_ok=True)
        svg_path = self.workdir / svg_name if svg_name else None
        if svg_path is not None and svg_path.exists():
            svg_path.unlink()
        stats_path = self.workdir / "trace-stats.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "sternbrocot", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(stats_path), *argv]
            self.tracer.enter("cli")
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=self.TIMEOUT_S)
        finally:
            if self.tracer is not None:
                self.tracer.exit()
        if self.tracer is not None:
            self.tracer.counts["cli.commands"] += 1
            self.tracer.counts["cli.exit_nonzero"] += proc.returncode != 0
            with open(stats_path, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh))
        svg = svg_path.read_bytes() if svg_path is not None and svg_path.exists() else None
        return CliResult(proc.returncode, proc.stdout, svg)

    def check(self, index, inp, out):
        argv, expected, svg_name = inp
        if out.returncode != 0:
            return f"{' '.join(argv)}: exit code {out.returncode}"
        if expected is not None:
            got = out.stdout.splitlines()[0] if argv[:2] == ("link", "canon") else out.stdout.rstrip("\n")
            if got != expected:
                return f"{' '.join(argv)}: printed {got!r}, README says {expected!r}"
        if svg_name is not None:
            if out.svg is None or not out.svg.startswith(b"<?xml") or not out.svg.endswith(b"</svg>\n"):
                return f"{' '.join(argv)}: no complete SVG written"
        data = out.stdout.encode() + b"\0" + (out.svg or b"")
        if not self.same_as_before(index, data):
            return f"{' '.join(argv)}: output differs from an earlier pass"
        return None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (WindowRender, FunnelDeep, FamilyLinks, CliReadme)}
