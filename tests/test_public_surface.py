"""The package's public names: each one in __all__ resolves, and a star
import binds them all to the same objects.  Names are loaded from their
submodules on first use, and read through to them every time."""

import importlib

import pytest

import sternbrocot

# The public names, fixed: loading them lazily must neither add nor drop one.
PUBLIC_NAMES = {
    "CanonicalForm", "ContinuedFraction", "DegenerateFunnelError", "Diagram", "DomainError",
    "ExtendedLine", "ExtendedRational", "Funnel", "FunnelOverlay", "FunnelTheoremReport",
    "INFINITE_POINT", "INFINITY", "IntMat2", "InvariantViolation", "LineFamily",
    "LineOverlay", "LinkFamilyEntry", "ParseError", "PlanePoint", "PlatDiagram",
    "PointOverlay", "RangeBracket", "RangeReport", "Side", "build_diagram",
    "canonical_fraction", "classify_range", "continuant_product", "convergents", "evaluate",
    "funnel", "is_farey_pair", "line_family", "link_family", "mediant",
    "mobius_apply", "plat_diagram", "plat_fraction", "render_svg", "schubert_equivalent",
    "standard_expansion", "verify_funnel_theorem", "vertex_point",
}


def test_all_lists_each_name_once():
    assert len(sternbrocot.__all__) == len(set(sternbrocot.__all__))


def test_the_public_names_are_unchanged():
    assert set(sternbrocot.__all__) == PUBLIC_NAMES
    assert sternbrocot.__version__ == "0.1.0"


def test_every_public_name_resolves():
    missing = [name for name in sternbrocot.__all__ if not hasattr(sternbrocot, name)]
    assert missing == []


def test_dir_lists_every_public_name():
    assert set(sternbrocot.__all__) <= set(dir(sternbrocot))


def test_each_public_name_is_its_defining_submodules_object():
    for name in sternbrocot.__all__:
        obj = getattr(sternbrocot, name)
        # An instance (INFINITY, INFINITE_POINT) reports its class's module,
        # which defines it too.
        home = obj.__module__
        assert home.startswith("sternbrocot."), name
        assert obj is getattr(importlib.import_module(home), name), name


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        sternbrocot.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from sternbrocot import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    for name in sternbrocot.__all__:
        assert namespace[name] is getattr(sternbrocot, name)
