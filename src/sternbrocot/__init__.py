"""Exact continued fractions, the Stern-Brocot diagram and its funnels,
line families across the diagram, and 2-bridge link fractions.

Everything except SVG emission runs on exact arbitrary-precision integer
arithmetic; rational values (ExtendedRational) are immutable, thread-safe
and carry no arithmetic operators.
"""

from .contfrac import (
    ContinuedFraction,
    IntMat2,
    RangeBracket,
    RangeReport,
    classify_range,
    continuant_product,
    convergents,
    evaluate,
    mobius_apply,
    standard_expansion,
)
from .diagram import (
    Diagram,
    Funnel,
    FunnelTheoremReport,
    build_diagram,
    funnel,
    verify_funnel_theorem,
    vertex_index,
)
from .errors import (
    DegenerateFunnelError,
    DomainError,
    InvariantViolation,
    ParseError,
)
from .figures import FunnelOverlay, LineOverlay, PointOverlay, render_svg
from .lines import ExtendedLine, LineFamily, Side, line_family
from .links import (
    CanonicalForm,
    LinkFamilyEntry,
    PlatDiagram,
    canonical_fraction,
    link_family,
    plat_diagram,
    plat_fraction,
    schubert_equivalent,
)
from .rationals import (
    INFINITE_POINT,
    INFINITY,
    ExtendedRational,
    PlanePoint,
    is_farey_pair,
    make_rational,
    mediant,
    vertex_point,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "ContinuedFraction",
    "DegenerateFunnelError",
    "Diagram",
    "DomainError",
    "ExtendedLine",
    "ExtendedRational",
    "Funnel",
    "FunnelOverlay",
    "FunnelTheoremReport",
    "INFINITE_POINT",
    "INFINITY",
    "IntMat2",
    "InvariantViolation",
    "LineFamily",
    "LineOverlay",
    "LinkFamilyEntry",
    "ParseError",
    "PlanePoint",
    "PlatDiagram",
    "PointOverlay",
    "RangeBracket",
    "RangeReport",
    "Side",
    "build_diagram",
    "canonical_fraction",
    "classify_range",
    "continuant_product",
    "convergents",
    "evaluate",
    "funnel",
    "is_farey_pair",
    "line_family",
    "link_family",
    "make_rational",
    "mediant",
    "mobius_apply",
    "plat_diagram",
    "plat_fraction",
    "render_svg",
    "schubert_equivalent",
    "standard_expansion",
    "verify_funnel_theorem",
    "vertex_index",
    "vertex_point",
]
