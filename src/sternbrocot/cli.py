"""Command-line front end.

All numeric output is exact rational text ("p/q", integers bare, "1/0");
SVG files are the only place floats appear.  Runs are deterministic:
identical arguments give byte-identical output.

Exit codes: 0 success, 2 parse error or unusable argument (such as an
SVG path that cannot be written) or a stdout that cannot be written (a
full device, a closed pipe), 3 domain error, 4 internal invariant
violation (a failed theorem clause is an implementation bug).  Each
subcommand returns its stdout text and run() prints it once, on success,
so exits 2 and 3 leave stdout empty, apart from what a failed stdout
write got through; exit 4 keeps the funnel report that names the failed
clause.

Four limits keep every run bounded and end in those codes.  Integers pass
between text and int only up to Python's int/text digit limit
(sys.get_int_max_str_digits(), 4300 digits by default; the guard against
quadratic conversions stays on): a longer input integer is a parse error
(2), a result integer too long to print is a domain error (3).  SVG
windows are drawn at density at most MAX_SVG_DENOM = 400 (--max-denom;
`funnel --svg` of p/q draws at max(--max-denom, q)), and no window may
cost more than a unit window at that cap: (hi - lo) * density^2 <= 400^2,
so `diagram --window 0..2` is drawn up to density 282 and `-1000..1000`
up to density 8.  A denser or wider window is a domain error (3) and writes
no file; all three SVG commands refuse it before any funnel, member value
or overlay is built, and then refuse an --svg path in a missing directory
or one that is itself a directory (2) before the window is built.  The
same budget, 400^2 = 160,000, bounds the two commands whose work grows
with an input's value: `funnel` of p/q refuses a strip of more than
160,000 triangles (a_1 + ... + a_n - 1 for its standard expansion, so
`funnel 1/160001` runs and `funnel 1/160002` does not), and `lines`
refuses a --range of more than 160,000 members.  Both are checked before
any work and end in exit 3 with one stderr line.  Last, SVG coordinates
are floats: a window whose ends overflow a float or whose width floats
cannot tell from zero (such as 10^20..10^20+1) is a domain error (3) and
writes no file.
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from typing import TYPE_CHECKING

from . import contfrac
from .contfrac import ContinuedFraction, parse_terms
from .errors import DomainError, InvariantViolation, ParseError, too_many_digits
from .rationals import ExtendedRational, int_text, parse_int

# The other modules are imported inside the code that runs them, so that a
# process loads only what its subcommand needs; here they serve annotations.
if TYPE_CHECKING:
    from .diagram import Diagram
    from .figures import Overlay
    from .lines import LineFamily

class UsageError(Exception):
    """A well-formed argument the command cannot act on (exit code 2)."""


# Densest window an SVG command draws.  A unit window at density N has
# about 3N^2/pi^2 vertices, so time and file size grow as N^2: at the cap
# `funnel 1/400 --svg` takes about 0.4 s and writes 7.9 MB.
MAX_SVG_DENOM = 400

_RANGE_RE = re.compile(r"\A(-?\d+)\.\.(-?\d+)\Z")
_WINDOW_RE = re.compile(r"\A(.+?)\.\.(.+)\Z")


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if m is None:
        raise ParseError(f"bad range {text!r}, expected LO..HI with integers")
    lo, hi = parse_int(m.group(1)), parse_int(m.group(2))
    if lo > hi:
        raise ParseError(f"empty range {text!r}")
    return lo, hi


def _parse_window(text: str) -> tuple[ExtendedRational, ExtendedRational]:
    m = _WINDOW_RE.match(text)
    if m is None:
        raise ParseError(f"bad window {text!r}, expected LO..HI with rationals")
    return ExtendedRational.parse(m.group(1)), ExtendedRational.parse(m.group(2))


def _json_text(obj) -> str:
    import json

    try:
        return json.dumps(obj, indent=2)
    except ValueError:  # the payload holds only text, ints and bools
        raise DomainError(too_many_digits("an integer of the result")) from None


def _family_from_hole(text: str) -> LineFamily:
    from .lines import line_family

    terms, hole = parse_terms(text, allow_hole=True)
    assert hole is not None
    # The slot value never enters the family's machinery; fill it with a
    # standard-valid placeholder so a concrete base sequence exists.  The
    # placeholder leaves standardness unchanged, so a refusal names the input.
    terms[hole] = 2 if hole == len(terms) - 1 else 1
    seq = ContinuedFraction(terms)
    if not seq.is_standard:
        terms[hole] = None
        raise DomainError(f"{contfrac.format_terms(terms)} is not standard")
    return line_family(seq, hole)


def _check_budget(cost, what: str) -> None:
    """Refuse work of the given size above that of a unit SVG window at the
    density cap, MAX_SVG_DENOM^2 (read at call time)."""
    if cost > MAX_SVG_DENOM ** 2:
        raise DomainError(f"{what} must be at most {MAX_SVG_DENOM}^2, a unit window at the cap")


def _svg_window(path: str, lo: ExtendedRational, hi: ExtendedRational, max_den: int) -> Diagram:
    """Build the window [lo, hi] at density max_den for an SVG at path,
    refused above the cap or, in open()'s words, when path's directory is
    missing or path is a directory; the file itself is first opened by
    _write_svg."""
    from . import diagram

    if max_den > MAX_SVG_DENOM:
        raise DomainError(
            f"SVG window density {max_den} is above the cap of {MAX_SVG_DENOM} "
            "(--max-denom; funnel --svg of p/q draws at least q)"
        )
    # A window's work grows as (hi - lo) * max_den^2, passed rounded up: the
    # budget B is an integer and x > B iff ceil(x) > B.  Windows
    # build_diagram rejects are left to it.
    if not (lo.is_infinite or hi.is_infinite) and max_den > 0:
        width = hi.num * lo.den - lo.num * hi.den
        _check_budget(-(-width * max_den ** 2 // (lo.den * hi.den)),
                      f"SVG window {lo}..{hi} at density {max_den} is too large: "
                      "(hi - lo) * density^2")
    directory = (os.path.dirname(path) or os.curdir) if path else ""
    try:  # the trailing separator makes stat refuse a file as the directory
        os.stat(os.path.join(directory, ""))
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    return diagram.build_diagram(lo, hi, max_den)


def _write_svg(path: str, d: Diagram, overlays: tuple[Overlay, ...] | list[Overlay] = ()) -> str:
    """Draw the window with the overlays and write the SVG."""
    from . import figures

    svg = figures.render_svg(d, overlays)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    return f"wrote {path}"


def _hole_text(fam: LineFamily) -> str:
    terms: list[int | None] = list(fam.base.terms)
    terms[fam.slot] = None
    return contfrac.format_terms(terms)


# -- subcommands: each returns its stdout text, which run() prints -------


def _cmd_eval(args) -> str:
    return str(contfrac.evaluate(ContinuedFraction.parse(args.sequence)))


def _cmd_expand(args) -> str:
    return str(contfrac.standard_expansion(ExtendedRational.parse(args.rational)))


def _cmd_funnel(args) -> str:
    from . import diagram

    alpha = ExtendedRational.parse(args.rational)
    if alpha.den > 1:  # diagram.funnel words the refusal of 1/0 and integers
        if args.svg is not None:
            a0 = alpha.num // alpha.den
            window = _svg_window(args.svg, ExtendedRational(a0), ExtendedRational(a0 + 1),
                                 max(args.max_denom, alpha.den))
        strip = sum(contfrac.standard_expansion(alpha).terms[1:]) - 1
        _check_budget(strip, "funnel is too large: its number of triangles")
    f = diagram.funnel(alpha)
    report = diagram.verify_funnel_theorem(f)
    # Increasing order: left < alpha < right, left ascends, right descends.
    indexed = (*f.left_edge, *reversed(f.right_edge))
    clauses = [f"clause ({c.name}): {'pass' if c.passed else 'FAIL'} [{c.detail}]"
               for c in report.clauses]
    # An edge vertex missing from the index map prints as "?" (null in
    # JSON); the verifier has failed a clause for it, so the run exits 4.

    if args.json:
        out = _json_text(
            {
                "base": str(f.alpha),
                "terms": list(f.expansion.terms),
                "triangles": [list(map(str, t)) for t in f.triangles],
                "indices": {str(v): f.indices.get(v) for v in indexed},
            }
        )
    elif args.svg is not None:
        from . import figures

        out = _write_svg(args.svg, window, [figures.FunnelOverlay(f)])
    else:
        out = "\n".join([
            f"funnel of {f.alpha} = {f.expansion}",
            "triangles (top to bottom):",
            *[f"  {a} {m} {b}" for a, m, b in f.triangles],
            "left edge:  " + " ".join(map(str, f.left_edge)),
            "right edge: " + " ".join(map(str, f.right_edge)),
            "indices:    " + " ".join([f"{v}:{f.indices.get(v, '?')}" for v in indexed]),
            *clauses,
        ])
    if args.json or args.svg is not None:
        print("\n".join(clauses), file=sys.stderr)
    if not report.all_passed:
        # The report names the failed clause, so exit 4 keeps it.
        raise InvariantViolation(f"funnel theorem failed for {f.expansion}", stdout=out)
    return out


def _coeff_text(coeffs: tuple[int, int]) -> str:
    c1, c0 = coeffs
    return f"{int_text(c1)}m{'+' if c0 >= 0 else '-'}{int_text(abs(c0))}"


def _point_json(pt) -> dict:
    return {"x": str(pt.x), "y": str(pt.y)}


def _cmd_lines(args) -> str:
    fam = _family_from_hole(args.sequence)
    lo, hi = _parse_range(args.range)
    _check_budget(hi - lo + 1, "--range is too large: its number of members")
    plus, minus = fam.line_pair()
    root = fam.denominator_root()
    members = range(lo, hi + 1)

    if args.svg is not None:
        from . import figures

        a0 = fam.base.terms[0]
        window = _svg_window(args.svg, ExtendedRational(a0), ExtendedRational(a0 + 1),
                             args.max_denom)
        overlays: list[Overlay] = [
            figures.LineOverlay(plus),
            figures.LineOverlay(minus),
            figures.PointOverlay(tuple(map(fam.value, members))),
        ]
        partner = fam.shared_line_partner()
        if partner is not None:
            overlays.append(figures.PointOverlay(tuple(map(partner.value, members)),
                                                 color="#d4a017"))
        return _write_svg(args.svg, window, overlays)

    if args.json:
        return _json_text(
            {
                "gamma": str(fam.anchor_x),
                "P": list(fam.num_coeffs),
                "Q": list(fam.den_coeffs),
                "root": str(root),
                "line_plus": {
                    "anchor": _point_json(plus.anchor),
                    "through": _point_json(plus.through),
                },
                "points": [
                    {"m": m, "alpha": str(fam.value(m)), "side": fam.side(m).value}
                    for m in members
                ],
            }
        )
    partner = fam.shared_line_partner()
    return "\n".join([
        f"family  {_hole_text(fam)}  (slot i={fam.slot})",
        f"gamma   {fam.anchor_x}",
        f"P(m)    {_coeff_text(fam.num_coeffs)}",
        f"Q(m)    {_coeff_text(fam.den_coeffs)}",
        f"root    {root}" + ("  (n=1: root at 0)" if fam.degree == 1 else ""),
        f"line+   through ({fam.anchor_x}, 0) and {plus.through}, slope {plus.slope}",
        f"line-   mirror image, slope {minus.slope}",
        *([] if partner is None else [f"partner {_hole_text(partner)} shares the line pair"]),
        "   m  alpha           side",
        *[f"{m:>4}  {fam.value(m)!s:<14}  {fam.side(m).value}" for m in members],
    ])


def _cmd_diagram(args) -> str:
    d = _svg_window(args.svg, *_parse_window(args.window), args.max_denom)
    _write_svg(args.svg, d)
    return (
        f"diagram [{d.lo}, {d.hi}] max_den={d.max_den}: "
        f"{len(d.vertices)} vertices, {len(d.edges)} edges, "
        f"{len(d.triangles)} triangles -> {args.svg}"
    )


def _cmd_link_canon(args) -> str:
    from .links import canonical_fraction, plat_diagram

    value = ExtendedRational.parse(args.rational)
    canon = canonical_fraction(value)
    plat = plat_diagram(canon.sequence.terms[1:]) if canon.sequence.degree >= 1 else None
    standard = plat.is_standard if plat is not None else False
    if args.json:
        return _json_text(
            {
                "input": str(value),
                "canonical": str(canon.fraction),
                "sequence": str(canon.sequence),
                "standard": standard,
            }
        )
    head = f"{canon.fraction} = {canon.sequence}" + (" (standard plat)" if standard else "")
    return head if plat is None else f"{head}\n{plat.text_art()}"


def _cmd_link_eq(args) -> str:
    from .links import schubert_equivalent

    a = ExtendedRational.parse(args.rational_a)
    b = ExtendedRational.parse(args.rational_b)
    eq = schubert_equivalent(a, b)
    if args.json:
        return _json_text({"a": str(a), "b": str(b), "equivalent": eq})
    return "equivalent" if eq else "not equivalent"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sternbrocot",
        description="Exact continued fractions, Stern-Brocot funnels, "
        "line families, and 2-bridge link fractions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a continued fraction exactly")
    p.add_argument("sequence", help='e.g. "[-1;2,3]"')
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("expand", help="standard expansion of a rational")
    p.add_argument("rational", help='e.g. "2/7"')
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("funnel", help="funnel of a non-integer rational")
    p.add_argument("rational")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", action="store_true")
    g.add_argument("--svg", metavar="FILE")
    p.add_argument("--max-denom", type=int, default=60,
                   help=f"diagram density for --svg, raised to q (default 60, at most {MAX_SVG_DENOM})")
    p.set_defaults(func=_cmd_funnel)

    p = sub.add_parser("lines", help="line family of a sequence with one hole")
    p.add_argument("sequence", help='e.g. "[0;3,_,4]"')
    p.add_argument("--range", default="-10..10", help="m range LO..HI (default -10..10)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", action="store_true")
    g.add_argument("--svg", metavar="FILE")
    p.add_argument("--max-denom", type=int, default=60,
                   help=f"diagram density for --svg (default 60, at most {MAX_SVG_DENOM})")
    p.set_defaults(func=_cmd_lines)

    p = sub.add_parser("diagram", help="render a diagram window to SVG")
    p.add_argument("--window", required=True, help="LO..HI, e.g. 0..1")
    p.add_argument("--max-denom", type=int, default=60)
    p.add_argument("--svg", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("link", help="2-bridge link operations")
    linksub = p.add_subparsers(dest="link_command", required=True)
    pc = linksub.add_parser("canon", help="canonical fraction and expansion")
    pc.add_argument("rational")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=_cmd_link_canon)
    pe = linksub.add_parser("eq", help="Schubert equivalence of two fractions")
    pe.add_argument("rational_a")
    pe.add_argument("rational_b")
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=_cmd_link_eq)

    return parser


def _merge_window_values(argv: list[str]) -> list[str]:
    # argparse reads "-5..5" as an option; splice values like "--range -5..5"
    # into "--range=-5..5" so negative bounds parse.  argparse also accepts
    # unique prefixes such as "--ran", so splice those too.
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if len(tok) > 2 and i + 1 < len(argv) and (
            "--range".startswith(tok) or "--window".startswith(tok)
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _write_stdout(out: str) -> bool:
    """Print out; if the write fails, say so on stderr and return False."""
    try:
        print(out, flush=True)
    except OSError as exc:
        # Send what is still buffered to os.devnull, or the exit flush fails again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return False
    return True


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_window_values(list(argv)))
    try:
        out = args.func(args)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        if exc.stdout is not None:
            _write_stdout(exc.stdout)
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0 if _write_stdout(out) else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
