"""Golden outputs of the CLI.

Pins the exit code and the sha256 of stdout of every command in the
README's CLI block, plus the sha256 of every SVG those commands write.
A few extra windows cover negative and non-integer window ends.  Any
rewrite of the window, funnel or rendering code that changes one byte of
output fails here.  The README commands also run as fresh `python -m
sternbrocot` processes, so the path where each command first loads the
modules it needs is pinned too; in-process runs find them already loaded.
"""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sternbrocot.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# (argv, exit code, sha256 of stdout, SVG file written, sha256 of the SVG)
README_GOLDEN = [
    (("eval", "[-1;2,3]"), 0,
     "c2b2482374bb9652ca58b80afa1d6a96b91c76190875f0e22df3decd0107e86b", None, None),
    (("expand", "2/7"), 0,
     "90d55cea43b91496b3b9f0f1b600a127be00216057891fc6f02fe1040225fcd5", None, None),
    (("funnel", "2/7"), 0,
     "d5d5873027bc4c56694eab617969d37b74d5a5daeb8f1b2627c70eb18bb73d5b", None, None),
    (("funnel", "2/7", "--json"), 0,
     "20b013283b7d818a6b8f98d0fec3162b2aec949a5bd1fdad2d4991ffa96ed161", None, None),
    (("funnel", "13/30", "--svg", "funnel.svg"), 0,
     "03ce9f0c87619e6b3d26ed8a19deec8d4cd8c6f36241bbe15aa077c2a6e3880b",
     "funnel.svg", "924fdb5850d565b6b8b63ccf535e447d19c0d85d6b68648b16ba678659aa9b47"),
    (("lines", "[0;3,_,4]", "--range", "-5..5"), 0,
     "1f909bac6b67bfb84236c1cf04493260f6a81e95b2e8335bafa1604f86827d90", None, None),
    (("lines", "[0;3,_,4]", "--json"), 0,
     "165bf9f01ec345c41df08ca41e14f52dd8ced02c6d6bea41a9614df2b07de8ed", None, None),
    (("lines", "[0;3,_,4]", "--svg", "fam.svg"), 0,
     "73bdab433dffe05efe011dfe9eceb6e0ee6c12eb1b5ef03155030972a12b5b84",
     "fam.svg", "931c991314b1eb30e3d34a6b3d7b17b3c4f34f9db3b2ebd8d537b9af02482376"),
    (("diagram", "--window", "0..1", "--max-denom", "60", "--svg", "diagram.svg"), 0,
     "575b0e40418d979fb0b08c1b310725c14c1c40b00f8714e911ae9ffa42e3b913",
     "diagram.svg", "80a496690d0c1d881bd8e4a4c9e9ee2d6928244b97e1152220ebf9505572d246"),
    (("link", "canon", "5/7"), 0,
     "f5292a71a50b9d06431b18907fcd1dfac8ccbbc44900e22b720de04bb5e7310a", None, None),
    (("link", "eq", "3/7", "5/7"), 0,
     "82318cd9ffcc16fc3ca438e47278ac8f9e30c523403bb7f62d0f57ccda975de4", None, None),
]

EXTRA_GOLDEN = [
    (("diagram", "--window", "-7/3..-1/2", "--max-denom", "25", "--svg", "negative.svg"), 0,
     "f81fd3236d6ea67b05df492efd06adbae97f5b5f7cd32f34119592f58da16ccf",
     "negative.svg", "0a9b4a7a9be82177e12fb98d7268187c3f4a4cca47a41f2198dc9928c3b746a5"),
    (("diagram", "--window", "-5/4..7/3", "--max-denom", "3", "--svg", "sparse.svg"), 0,
     "ff0f127a694f3cc8872338e28d3e6a83b48444bdc1bc02233546950dc6aade00",
     "sparse.svg", "98d052c2e8fa94252ec917587f6f6194bedf05702a1279203928b5236fc5b316"),
    # The longest start search at the cap, ending on one vertex and no edge,
    # and a window with no vertex at all.
    (("diagram", "--window", "999/1000..1", "--max-denom", "400", "--svg", "tip.svg"), 0,
     "3a9b1cfba2a09a779718ffc887c9fd55607ca9a795f5b64d0b8a7f22d24221cf",
     "tip.svg", "5bd00fa00eebaa76f998161e70dceeac6debc3b825b017a2bce5d1d57100d7d1"),
    (("diagram", "--window", "1/3..1/2", "--max-denom", "1", "--svg", "empty.svg"), 0,
     "0e0abad04dd3d5beb1717cb9e96ce40b3abfab678245dfaaff0a31c3112c5bbf",
     "empty.svg", "705bd701aafb1f912a6e1c298d8b0a31411e53315df802ceec8678c79bf93415"),
    (("funnel", "--svg", "funnel-neg.svg", "--max-denom", "20", "--", "-4/7"), 0,
     "f2ca2e5d5465c4fa8e1e1d8e9379f8be1dc110d754f8faf92d225c166f2db71f",
     "funnel-neg.svg", "462722d88acae56bd9ecdce5e90f70d4c81ef63fd414e7f948a8734b779cadf2"),
    # Line clips through the window's corners: the minus line of [0;_,3]
    # touches the box only at (0, 0) and draws nothing; the plus line of
    # [1;_] leaves through (2, 1), met by two sides at once; both lines of
    # [0;2,_] leave through the top corners, next to a partner family.
    (("lines", "[0;_,3]", "--svg", "corner.svg"), 0,
     "19a1a0542ef19134786f4b54da0c6df5f34bcae30dacb86f7355551e73c214d2",
     "corner.svg", "ecc3a3f629c51f0f4145635cb7299dfe4a9564cc547c826c71b569452f6743c4"),
    (("lines", "[1;_]", "--svg", "plus-corner.svg"), 0,
     "b71e1170baedc6a54ad1174d98daf5723cb2b2fba856cd0f8b3c07be7991fdff",
     "plus-corner.svg", "0053ee34569828358ba70251f814189906a00265fbe89e8449843507a25b0439"),
    (("lines", "[0;2,_]", "--svg", "top-corners.svg"), 0,
     "6818262c8177d71ccf9d05c1a292cb3fc1e401639f234f91bae4e97d40146a42",
     "top-corners.svg", "8abb3ece4279bc2f24974ff1e5444b6b12d86367fdba8f6becfe15feba5659f2"),
    # Line clips through the window's sides: the plus line of [0;2,_,2]
    # leaves through the left side at (0, 1/2) and the minus line through
    # the right side at (1, 1/2); the plus line of [-1;1,_,3] leaves a
    # window with negative ends through its left side at (-1, 1/3).
    (("lines", "[0;2,_,2]", "--svg", "sides.svg"), 0,
     "ea1dbf46dd622555aeed1c415c1db95052617b675cbf0a2d9b9d028af166e21a",
     "sides.svg", "6be95d0f0df72d3ab82928e243a384296bff1b20af6af13c2f68831822f25886"),
    (("lines", "[-1;1,_,3]", "--svg", "neg-side.svg"), 0,
     "f0e0a397cfafd89d4e8ea97cf784f61afea2af8ddbf572eb7d9c60ded54b1f57",
     "neg-side.svg", "84f0cb3c06c92cd06c1e11efde392ab7d0a54f88ac7c9a8cb3246b8724fe6abc"),
    # A funnel of three fans off a nonzero a0, in text and JSON.
    (("funnel", "355/113"), 0,
     "26a8c7b05ee5578509654d9338eb2df7191e0ceecad0bce6aa3320e61ef81ab6", None, None),
    (("funnel", "355/113", "--json"), 0,
     "50bff1f92bfaa5143261e51a0064cc7250eec56579e2d74363f5e01483251ce6", None, None),
    # 4,000 members whose circles mostly coincide near the anchor, so each
    # distinct circle is written once.
    (("lines", "[0;3,_,4]", "--range", "-2000..1999", "--max-denom", "10", "--svg",
      "dedupe.svg"), 0,
     "e61439d4b914d715284a0b68cd13b28fb4e41bc253f085a7597345a36a9cdd87",
     "dedupe.svg", "b2efd61af1e653cdbba2fe255ebcb550008ca2644e5a12e1109b8d4385e88abc"),
    # A degree-1 family: the "(n=1: root at 0)" suffix, a 1/0 member and no
    # partner line.
    (("lines", "[0;_]", "--range", "-2..2"), 0,
     "885bb456f4c7d1901f35f0a06a19149bcac03db74c42c121352738af8074874f", None, None),
    # A canonical fraction with no plat, so no text art.
    (("link", "canon", "0"), 0,
     "739cd78979261762aae451096803be7eceed2d6662fd0b7a1b23b21f893b2ead", None, None),
    (("link", "canon", "5/7", "--json"), 0,
     "4b157b3ede9caab180a62cad38df09cc88c725ef3b9aa8b8e5c1410bcf2aea84", None, None),
    (("link", "eq", "2/7", "3/7", "--json"), 0,
     "9b87630bcf89290e0da17729199c6b8bd9d292b37ad13ea0bd6cb66cd2083e92", None, None),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def readme_commands() -> list[tuple[str, ...]]:
    block = README.read_text(encoding="utf-8").split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [tuple(shlex.split(line, comments=True)[1:]) for line in block.splitlines() if line.strip()]


def test_golden_list_covers_the_readme_cli_block():
    assert readme_commands() == [argv for argv, *_ in README_GOLDEN]


@pytest.mark.parametrize(
    "argv, code, stdout_sha, svg_name, svg_sha",
    [pytest.param(*case, id=" ".join(case[0])) for case in README_GOLDEN + EXTRA_GOLDEN],
)
def test_cli_output_is_byte_identical(argv, code, stdout_sha, svg_name, svg_sha,
                                      tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(list(argv)) == code
    assert sha256(capsys.readouterr().out.encode()) == stdout_sha
    if svg_name is not None:
        assert sha256((tmp_path / svg_name).read_bytes()) == svg_sha


@pytest.mark.parametrize(
    "argv, code, stdout_sha, svg_name, svg_sha",
    [pytest.param(*case, id=" ".join(case[0])) for case in README_GOLDEN],
)
def test_readme_command_is_byte_identical_in_a_fresh_process(argv, code, stdout_sha, svg_name,
                                                              svg_sha, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "sternbrocot", *argv], cwd=tmp_path, env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert sha256(proc.stdout) == stdout_sha
    if svg_name is not None:
        assert sha256((tmp_path / svg_name).read_bytes()) == svg_sha
