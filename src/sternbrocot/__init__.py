"""Exact continued fractions, the Stern-Brocot diagram and its funnels,
line families across the diagram, and 2-bridge link fractions.

Everything except SVG emission runs on exact arbitrary-precision integer
arithmetic; rational values (ExtendedRational) are immutable, thread-safe
and carry no arithmetic operators.

Importing the package loads none of its modules: a submodule is loaded on
the first use of one of its names (PEP 562), so a command pays only for
the modules it runs.
"""

from importlib import import_module

# Each submodule and the public names it defines.
_EXPORTS = {
    "contfrac": (
        "ContinuedFraction", "IntMat2", "RangeBracket", "RangeReport", "classify_range",
        "continuant_product", "convergents", "evaluate", "mobius_apply",
        "standard_expansion",
    ),
    "diagram": (
        "Diagram", "Funnel", "FunnelTheoremReport", "build_diagram", "funnel",
        "verify_funnel_theorem",
    ),
    "errors": ("DegenerateFunnelError", "DomainError", "InvariantViolation", "ParseError"),
    "figures": ("FunnelOverlay", "LineOverlay", "PointOverlay", "render_svg"),
    "lines": (
        "ExtendedLine", "INFINITE_POINT", "LineFamily", "PlanePoint", "Side", "line_family",
        "vertex_point",
    ),
    "links": (
        "CanonicalForm", "LinkFamilyEntry", "PlatDiagram", "canonical_fraction",
        "link_family", "plat_diagram", "plat_fraction", "schubert_equivalent",
    ),
    "rationals": ("INFINITY", "ExtendedRational", "is_farey_pair", "mediant"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Not cached in the package namespace: a name always reads the
    # submodule's current binding, so a function patched there and later
    # restored is never left behind here.
    if name in _EXPORTS:  # the submodule itself, as `sternbrocot.diagram`
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
