"""In-memory spans and counters around the sternbrocot layers.

`install` wraps, at run time, the package's public functions and the
`ExtendedRational` constructor and ordered comparisons; nothing under
`src/` is edited.  Every module of the package that bound a wrapped
function by name is patched too, so calls from one layer into another
get their own span.  Spans are kept in memory (name, start, end, parent)
and written out by `Tracer.write` when the run ends.

Span names are the layer names the benchmark reports: `contfrac`,
`diagram.build`, `diagram.funnel`, `diagram.verify`, `lines`, `links`,
`figures.render`, plus the harness's own `op` (one operation) and `cli`
(one CLI subprocess).  A span's self time is its duration minus the time
its child spans cover; a layer's busy time is the time covered by its
outermost spans, so a layer calling itself is not counted twice.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import sys
import time

SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.paused = False
        self.spans: list[tuple] = []  # (id, parent id or None, name, start_ns, end_ns)
        self.dropped = 0
        self.stats: dict[str, list[int]] = {}  # name -> [calls, busy_ns, self_ns]
        self.counts: collections.Counter = collections.Counter()
        # Rationals are counted on the hottest paths, so they use bare cells.
        self.objects = [0]
        self.compares = [0]
        self.max_bits = [0]
        self._stack: list[list] = []  # [id, name, start_ns, child_ns]
        self._open: collections.Counter = collections.Counter()
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._open[name] += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[2] += dur - child
        self._open[name] -= 1
        if not self._open[name]:
            st[1] += dur
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, name, start, end))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def pause(self):
        """Keep harness work (output checks) out of the spans and counts."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def summary(self) -> dict:
        """Aggregates in a JSON-friendly form; `merge` adds one into another."""
        counts = dict(self.counts)
        counts["rationals.objects"] = self.objects[0]
        counts["rationals.compares"] = self.compares[0]
        return {"stats": self.stats, "counts": counts, "max_bits": self.max_bits[0]}

    def merge(self, summary: dict) -> None:
        for name, (calls, busy, self_ns) in summary["stats"].items():
            st = self.stats.setdefault(name, [0, 0, 0])
            st[0] += calls
            st[1] += busy
            st[2] += self_ns
        for name, n in summary["counts"].items():
            if name == "rationals.objects":
                self.objects[0] += n
            elif name == "rationals.compares":
                self.compares[0] += n
            else:
                self.counts[name] += n
        self.max_bits[0] = max(self.max_bits[0], summary["max_bits"])

    def write(self, path, meta: dict) -> None:
        t0 = min((s[3] for s in self.spans), default=0)
        doc = {
            **meta,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "spans": [[i, p, n, s - t0, e - t0] for i, p, n, s, e in self.spans],
            "spans_dropped": self.dropped,
            "summary": self.summary(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _traced(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer.counts, args, result)
        return result

    return traced


def _count_terms(counts, args, result):
    if hasattr(result, "terms"):  # standard_expansion returns the expansion
        counts["contfrac.terms"] += len(result.terms)
    elif args and hasattr(args[0], "__len__"):
        counts["contfrac.terms"] += len(args[0])


def _count_diagram(counts, args, d):
    counts["diagram.vertices"] += len(d.vertices)
    counts["diagram.edges"] += len(d.edges)
    counts["diagram.triangles"] += len(d.triangles)


def _count_funnel(counts, args, f):
    counts["diagram.funnel.triangles"] += len(f.triangles)


def _count_member(counts, args, result):
    counts["lines.members"] += 1


def _count_classified(counts, args, result):
    counts["links.classified"] += 1


def _count_svg(counts, args, svg):
    counts["figures.svg_bytes"] += len(svg.encode("utf-8"))
    # Opening tags, less the XML declaration.
    counts["figures.elements"] += svg.count("<") - svg.count("</") - 1


def _function_table():
    """(module, attribute, span name, counter hook) for every wrapped function."""
    from sternbrocot import contfrac, diagram, figures, lines, links

    table = [
        (contfrac, name, "contfrac", _count_terms)
        for name in ("evaluate", "standard_expansion", "convergents",
                     "continuant_product", "mobius_apply", "classify_range")
    ]
    table += [
        (diagram, "build_diagram", "diagram.build", _count_diagram),
        (diagram, "funnel", "diagram.funnel", _count_funnel),
        (diagram, "verify_funnel_theorem", "diagram.verify", None),
        (lines, "line_family", "lines", None),
        (figures, "render_svg", "figures.render", _count_svg),
    ]
    table += [
        (links, name, "links", _count_classified if name == "canonical_fraction" else None)
        for name in ("link_family", "canonical_fraction", "schubert_equivalent",
                     "plat_diagram", "plat_fraction")
    ]
    return table


def _method_table():
    from sternbrocot.lines import ExtendedLine, LineFamily

    table = [
        (LineFamily, name, "lines", _count_member if name == "value" else None)
        for name in ("value", "vertex", "side", "sequence_for", "line_pair",
                     "denominator_root", "squared_distance_profile",
                     "shared_line_partner")
    ]
    table += [(ExtendedLine, name, "lines", None) for name in ("contains", "reflected", "coincides")]
    return table


def install(tracer: Tracer):
    """Wrap the package in place; returns a function that undoes it."""
    import sternbrocot.cli  # noqa: F401  (its by-name imports get patched too)
    from sternbrocot.rationals import ExtendedRational

    undo: list[tuple] = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    wrapped = {}
    for module, attr, span, after in _function_table():
        fn = getattr(module, attr)
        wrapped[id(fn)] = (fn, _traced(tracer, span, fn, after))
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "sternbrocot" or n.startswith("sternbrocot.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                patch(module, attr, hit[1])

    for cls, attr, span, after in _method_table():
        patch(cls, attr, _traced(tracer, span, cls.__dict__[attr], after))

    objects, compares, max_bits = tracer.objects, tracer.compares, tracer.max_bits
    init = ExtendedRational.__init__

    def counted_init(self, num, den=1):
        init(self, num, den)
        if not tracer.paused:
            objects[0] += 1
            bits = max(self.num.bit_length(), self.den.bit_length())
            if bits > max_bits[0]:
                max_bits[0] = bits

    patch(ExtendedRational, "__init__", counted_init)

    def counted(cmp):
        def compare(self, other):
            if not tracer.paused:
                compares[0] += 1
            return cmp(self, other)

        return compare

    for attr in ("__lt__", "__le__", "__gt__", "__ge__"):
        patch(ExtendedRational, attr, counted(ExtendedRational.__dict__[attr]))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
