import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sternbrocot import (ContinuedFraction, ExtendedRational, IntMat2, cli, diagram, figures,
                         line_family)
from sternbrocot.cli import MAX_SVG_DENOM, run

SRC = Path(__file__).resolve().parent.parent / "src"


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestEvalExpand:
    def test_eval_caption_sequence(self, capsys):
        assert run(["eval", "[-1;2,3]"]) == 0
        assert out_of(capsys)[0] == "-4/7\n"

    def test_eval_reaches_infinity(self, capsys):
        assert run(["eval", "[0;2,-1,2]"]) == 0
        assert out_of(capsys)[0] == "1/0\n"

    def test_eval_malformed_sequence_is_a_parse_error(self, capsys):
        assert run(["eval", "[1;2;3]"]) == 2
        assert "error" in out_of(capsys)[1]

    def test_expand(self, capsys):
        assert run(["expand", "2/7"]) == 0
        assert out_of(capsys)[0] == "[0;3,2]\n"

    def test_expand_rejects_infinity_with_domain_exit(self, capsys):
        assert run(["expand", "1/0"]) == 3
        assert "error" in out_of(capsys)[1]


class TestFunnelCommand:
    def test_text_report_prints_clause_lines(self, capsys):
        assert run(["funnel", "2/7"]) == 0
        out, _ = out_of(capsys)
        assert "funnel of 2/7 = [0;3,2]" in out
        assert out.count(": pass") == 3

    def test_json_schema(self, capsys):
        assert run(["funnel", "2/7", "--json"]) == 0
        out, err = out_of(capsys)
        doc = json.loads(out)
        assert set(doc) == {"base", "terms", "triangles", "indices"}
        assert doc["base"] == "2/7"
        assert doc["terms"] == [0, 3, 2]
        assert doc["triangles"][0] == ["0", "1/2", "1"]
        assert doc["indices"]["0"] == 3
        assert err == (
            "clause (convergent sides): pass [c_0..c_1 alternate left/right]\n"
            "clause (end indices): pass [index(c_0)=3, index(c_1)=2]\n"
            "clause (interior indices): pass [vacuous]\n"
        )

    def test_integer_input_is_a_domain_error(self, capsys):
        assert run(["funnel", "5"]) == 3

    def test_svg_output(self, tmp_path, capsys):
        target = tmp_path / "funnel.svg"
        assert run(["funnel", "2/7", "--svg", str(target), "--max-denom", "12"]) == 0
        text = target.read_text()
        assert text.startswith("<?xml") and "funnel" in text


class TestLinesCommand:
    def test_json_report(self, capsys):
        assert run(["lines", "[0;3,_,4]", "--range", "-5..5", "--json"]) == 0
        doc = json.loads(out_of(capsys)[0])
        assert set(doc) == {"gamma", "P", "Q", "root", "line_plus", "points"}
        assert doc["gamma"] == "1/3"
        assert doc["P"] == [4, 1] and doc["Q"] == [12, 7]
        assert doc["root"] == "-7/12"
        assert doc["line_plus"]["anchor"] == {"x": "1/3", "y": "0"}
        assert doc["line_plus"]["through"] == {"x": "5/19", "y": "1/19"}
        by_m = {p["m"]: p for p in doc["points"]}
        assert len(by_m) == 11
        assert by_m[1] == {"m": 1, "alpha": "5/19", "side": "PLUS"}
        assert by_m[-2]["side"] == "MINUS"

    def test_infinite_member_rendered_as_1_over_0(self, capsys):
        assert run(["lines", "[0;2,_,2]", "--range", "-2..0", "--json"]) == 0
        doc = json.loads(out_of(capsys)[0])
        by_m = {p["m"]: p for p in doc["points"]}
        assert by_m[-1] == {"m": -1, "alpha": "1/0", "side": "INFINITE"}

    def test_text_report_mentions_partner(self, capsys):
        assert run(["lines", "[0;3,_,4]"]) == 0
        out, _ = out_of(capsys)
        assert "partner [0;2,1,_,4]" in out

    def test_hole_count_must_be_one(self, capsys):
        assert run(["lines", "[0;3,2,4]"]) == 2
        assert run(["lines", "[0;_,_,4]"]) == 2

    def test_hole_cannot_be_the_leading_term(self, capsys):
        assert run(["lines", "[_;2,3]"]) == 2

    def test_malformed_range_is_exit_2_with_one_line(self, capsys):
        assert run(["lines", "[0;3,_,4]", "--range", "1..x"]) == 2
        out, err = out_of(capsys)
        assert out == "" and err.startswith("error: bad range") and err.count("\n") == 1

    @pytest.mark.parametrize("sequence", ["[0;_,1]", "[0;0,_,2]", "[2;1,_,-3,4]"])
    def test_non_standard_refusal_names_the_input_with_its_hole(self, sequence, capsys):
        assert run(["lines", sequence]) == 3
        assert out_of(capsys) == ("", f"error: {sequence} is not standard\n")

    def test_hole_in_first_slot(self, capsys):
        assert run(["lines", "[0;_,4]", "--range", "0..2", "--json"]) == 0
        doc = json.loads(out_of(capsys)[0])
        assert doc["gamma"] == "0"  # empty prefix anchors at (a0, 0)
        assert doc["P"] == [0, 4] and doc["Q"] == [4, 1]
        by_m = {p["m"]: p for p in doc["points"]}
        assert by_m[1]["alpha"] == "4/5"  # [0;1,4]

    def test_default_range(self, capsys):
        assert run(["lines", "[0;3,_,4]", "--json"]) == 0
        doc = json.loads(out_of(capsys)[0])
        assert [p["m"] for p in doc["points"]] == list(range(-10, 11))

    def test_svg_output_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for target in (a, b):
            assert run(
                ["lines", "[0;3,_,4]", "--range", "-6..6", "--svg", str(target),
                 "--max-denom", "30"]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def point_groups(svg: str) -> list[tuple[str, list[str]]]:
        groups, lines = [], None
        for line in svg.splitlines():
            if line.startswith('<g class="family-points"'):
                lines = []
                groups.append((line, lines))
            elif line == "</g>":
                lines = None
            elif lines is not None:
                lines.append(line)
        return groups

    def test_svg_writes_each_distinct_circle_once_per_point_group(self, tmp_path, capsys):
        target = tmp_path / "F.svg"
        assert run(["lines", "[0;3,_,4]", "--range", "-2000..1999", "--max-denom", "10",
                    "--svg", str(target)]) == 0
        drawn = self.point_groups(target.read_text())
        assert len(drawn) == 2
        assert all(len(lines) == len(set(lines)) for _, lines in drawn)
        # The same window with one group, so one circle, per member.
        fam = line_family(ContinuedFraction((0, 3, 1, 4)), 2)
        singles = figures.render_svg(
            diagram.build_diagram(ExtendedRational(0), ExtendedRational(1), 10),
            [figures.PointOverlay((f.value(m),), color)
             for f, color in ((fam, "#e0218a"), (fam.shared_line_partner(), "#d4a017"))
             for m in range(-2000, 2000)],
        )
        expected: dict[str, set[str]] = {}
        for head, lines in self.point_groups(singles):
            expected.setdefault(head, set()).update(lines)
        assert {head: set(lines) for head, lines in drawn} == expected

    def test_svg_makes_no_plane_point_per_member(self, tmp_path, capsys, monkeypatch):
        from sternbrocot import lines

        original = lines.vertex_point
        calls = []

        def counted(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(lines, "vertex_point", counted)
        assert run(["lines", "[0;3,_,4]", "--range", "-2000..1999", "--max-denom", "10",
                    "--svg", str(tmp_path / "F.svg")]) == 0
        assert len(calls) == 1  # the m = 1 point of the line pair


@pytest.mark.parametrize("argv, message", [
    (["lines", "[0;3,_,4]", "--range=5..1"], "empty range '5..1'"),
    (["eval", "[1;]"], "empty term list after ';': '[1;]'"),
    (["eval", "[0;_,2]"], "hole '_' is only valid in a line-family sequence"),
], ids=["empty-range", "empty-term-list", "hole-outside-lines"])
def test_parse_refusal_is_exit_2_with_one_line(argv, message, capsys):
    assert run(argv) == 2
    assert out_of(capsys) == ("", f"error: {message}\n")


class TestDiagramCommand:
    def test_svg_written_and_summary_printed(self, tmp_path, capsys):
        target = tmp_path / "diagram.svg"
        assert run(["diagram", "--window", "0..1", "--max-denom", "10",
                    "--svg", str(target)]) == 0
        out, _ = out_of(capsys)
        assert "33 vertices" in out
        assert target.read_text().startswith("<?xml")

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for target in (a, b):
            assert run(["diagram", "--window", "-1..1", "--max-denom", "8",
                        "--svg", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_window_is_parse_error(self, capsys):
        assert run(["diagram", "--window", "zero..1", "--svg", "/tmp/x.svg"]) == 2

    def test_empty_window_is_domain_error(self, capsys):
        assert run(["diagram", "--window", "1..0", "--svg", "/tmp/x.svg"]) == 3


@pytest.mark.parametrize("full, short", [
    (["lines", "[0;3,_,4]", "--range", "-2..2"], ["lines", "[0;3,_,4]", "--ran", "-2..2"]),
    (["lines", "[0;3,_,4]", "--range", "-2..2"], ["lines", "[0;3,_,4]", "--ran=-2..2"]),
    (["lines", "[0;3,_,4]", "--range", "0..2"], ["lines", "[0;3,_,4]", "--r", "0..2"]),
    (["diagram", "--window", "-1..0", "--svg", "x.svg"], ["diagram", "--win", "-1..0", "--svg", "x.svg"]),
    (["diagram", "--window", "-1/2..0", "--svg", "x.svg"], ["diagram", "--w", "-1/2..0", "--svg", "x.svg"]),
], ids=lambda argv: " ".join(argv))
def test_abbreviated_range_and_window_parse_like_the_full_spelling(full, short, tmp_path,
                                                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(full) == 0
    want = out_of(capsys)[0]
    assert run(short) == 0
    assert out_of(capsys)[0] == want


class TestUnwritableSvg:
    @pytest.mark.parametrize("argv", [
        ["diagram", "--window", "0..1", "--max-denom", "5", "--svg"],
        ["funnel", "2/7", "--max-denom", "5", "--svg"],
        ["lines", "[0;3,_,4]", "--max-denom", "5", "--svg"],
    ], ids=lambda argv: argv[0])
    def test_missing_directory_is_exit_2_with_one_line(self, argv, tmp_path, capsys):
        for target in (str(tmp_path / "missing" / "out.svg"), ""):
            assert run(argv + [target]) == 2
            out, err = out_of(capsys)
            assert not out.startswith("wrote") and "->" not in out
            assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_directory_as_target_is_exit_2(self, tmp_path, capsys):
        assert run(["diagram", "--window", "0..1", "--max-denom", "5", "--svg", str(tmp_path)]) == 2
        assert out_of(capsys)[1].startswith(f"error: cannot write {tmp_path}: ")


class TestUnwritableStdout:
    """A stdout that cannot take the output ends in exit 2 with one stderr
    line, as an unwritable --svg path does.  Run as processes so that a
    traceback from the write, or from the interpreter's flush at exit,
    would show on stderr."""

    ARGV = [sys.executable, "-m", "sternbrocot"]
    ENV = dict(os.environ, PYTHONPATH=str(SRC))

    @staticmethod
    def check(code, err, reason):
        assert code == 2
        assert err == f"error: cannot write stdout: {reason}\n"
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_full_device(self):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(self.ARGV + ["eval", "[-1;2,3]"], env=self.ENV, stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        self.check(proc.returncode, proc.stderr, "No space left on device")

    def test_pipe_closed_by_the_reader(self):
        # The report is about 167 KB, more than a pipe holds, so once the
        # reader closes its end after 10 bytes the write must fail.
        proc = subprocess.Popen(self.ARGV + ["lines", "[0;3,_,4]", "--range", "-3000..3000"],
                                env=self.ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        self.check(proc.returncode, err, "Broken pipe")

    # 1/3 is c_1 of 2/7 = [0;3,2]; without its index the funnel theorem fails.
    DROP_ONE_THIRD = (
        "import sys\n"
        "from sternbrocot import ExtendedRational as R, cli, diagram\n"
        "f = diagram.funnel(R(2, 7))\n"
        "corrupt = diagram.Funnel(f.alpha, f.expansion, f.triangles, f.left_edge, f.right_edge,\n"
        "                         {v: i for v, i in f.indices.items() if v != R(1, 3)})\n"
        "diagram.funnel = lambda alpha: corrupt\n"
        "sys.exit(cli.run(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_a_failed_write_of_the_exit_4_report_still_exits_4(self, extra):
        # The invariant bug outranks the failed write.
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-c", self.DROP_ONE_THIRD, "funnel", "2/7", *extra],
                                  env=self.ENV, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        assert proc.returncode == 4
        tail = ("error: cannot write stdout: No space left on device\n"
                "internal error: funnel theorem failed for [0;3,2]\n")
        if extra:  # the clause lines come first
            assert proc.stderr.endswith("\n" + tail)
        else:
            assert proc.stderr == tail
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    def test_a_failed_write_closes_the_devnull_descriptor(self, monkeypatch):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd on this system")
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            before = len(os.listdir("/proc/self/fd"))
            assert run(["eval", "[0;3,2]"]) == 2
            assert len(os.listdir("/proc/self/fd")) == before


class TestDigitLimit:
    """Integers longer than Python's int/text digit limit end in a one-line
    error: exit 2 on input, exit 3 on output, and nothing on stdout, even
    when the refusal comes after part of the report is built.  Run as
    processes so that a traceback would show on stderr."""

    LIMIT = sys.get_int_max_str_digits()
    LONG = "1" * (LIMIT + 700)

    def cli(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-m", "sternbrocot", *argv],
                              env=env, capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("argv, code", [
        (("expand", LONG + "/3"), 2),
        (("funnel", "2/" + LONG), 2),
        (("eval", "[" + LONG + "]"), 2),
        (("eval", "[0;2," + LONG + "]"), 2),
        (("lines", "[0;3,_,4]", "--range", "1.." + LONG), 2),
        (("eval", "[1;" + ",".join(["1"] * 25000) + "]"), 3),
        (("lines", "[0;" + ",".join(["7"] * 6000) + ",_,2]", "--json"), 3),
        (("lines", "[0;" + ",".join(["7"] * 6000) + ",_,2]"), 3),
        (("lines", "[0;3,_,4]", "--range", "9" * LIMIT + ".." + "9" * LIMIT), 3),
    ], ids=["expand", "funnel", "eval-a0", "eval-term", "lines-range", "eval-result", "lines-json",
            "lines-text", "lines-member"])
    def test_one_line_error_naming_the_limit(self, argv, code):
        proc = self.cli(*argv)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert f"more than {self.LIMIT} digits" in proc.stderr


    def test_json_payload_int_past_the_limit_is_a_domain_error(self):
        from sternbrocot.cli import _json_text
        from sternbrocot.errors import DomainError

        with pytest.raises(DomainError, match=f"more than {self.LIMIT} digits"):
            _json_text({"P": [10 ** (self.LIMIT + 10), 1]})


class TestSvgDensityCap:
    @pytest.mark.parametrize("argv", [
        ["funnel", f"1/{MAX_SVG_DENOM + 1}", "--svg"],
        ["funnel", "2/7", "--max-denom", str(MAX_SVG_DENOM + 1), "--svg"],
        ["lines", "[0;3,_,4]", "--max-denom", str(MAX_SVG_DENOM + 1), "--svg"],
        ["diagram", "--window", "0..1/1000", "--max-denom", str(MAX_SVG_DENOM + 1), "--svg"],
    ], ids=["funnel-q", "funnel-max-denom", "lines", "diagram"])
    def test_above_the_cap_is_exit_3_and_writes_nothing(self, argv, tmp_path, capsys):
        target = tmp_path / "out.svg"
        assert run(argv + [str(target)]) == 3
        _, err = out_of(capsys)
        assert err.startswith("error: SVG window density ") and err.count("\n") == 1
        assert f"cap of {MAX_SVG_DENOM}" in err
        assert not target.exists()

    def test_at_the_cap_is_drawn(self, tmp_path, capsys):
        target = tmp_path / "out.svg"
        argv = ["diagram", "--window", "0..1/200", "--max-denom", str(MAX_SVG_DENOM), "--svg", str(target)]
        assert run(argv) == 0
        assert f"max_den={MAX_SVG_DENOM}:" in out_of(capsys)[0]
        assert target.read_text().startswith("<?xml")

    @pytest.mark.parametrize("argv", [
        ["diagram", "--window", "0..1", "--max-denom", "0", "--svg"],
        ["lines", "[0;3,_,4]", "--max-denom", "0", "--svg"],
    ], ids=["diagram", "lines"])
    def test_max_denom_zero_is_exit_3(self, argv, tmp_path, capsys):
        target = tmp_path / "out.svg"
        assert run(argv + [str(target)]) == 3
        assert out_of(capsys)[1] == "error: max_den must be positive\n"
        assert not target.exists()


class TestFunnelIndexOrder:
    @pytest.mark.parametrize("rational", ["2/7", "-4/7", "-13/5", "355/113", "-1/9"])
    def test_text_and_json_list_indices_in_increasing_order(self, rational, capsys):
        assert run(["funnel", "--json", "--", rational]) == 0
        keys = list(json.loads(out_of(capsys)[0])["indices"])
        values = [Fraction(k) for k in keys]
        assert values == sorted(values) and len(set(values)) == len(values)
        assert run(["funnel", "--", rational]) == 0
        line = [ln for ln in out_of(capsys)[0].splitlines() if ln.startswith("indices:")][0]
        assert [item.rsplit(":", 1)[0] for item in line.split()[1:]] == keys


class TestFunnelCornerCopies:
    """The report names a triangle corner by value: a funnel whose triangles
    hold equal copies of its vertices, not the vertex objects themselves,
    prints the same report."""

    @pytest.mark.parametrize("argv", [["funnel", "2/7"], ["funnel", "2/7", "--json"],
                                      ["funnel", "13/30"]], ids=" ".join)
    def test_copied_corners_print_the_same_report(self, argv, capsys, monkeypatch):
        assert run(argv) == 0
        expected = out_of(capsys)
        build = diagram.funnel

        def copied(alpha):
            f = build(alpha)
            triangles = tuple(tuple(ExtendedRational(v.num, v.den) for v in t) for t in f.triangles)
            return diagram.Funnel(f.alpha, f.expansion, triangles, f.left_edge, f.right_edge, f.indices)

        monkeypatch.setattr(diagram, "funnel", copied)
        assert run(argv) == 0
        assert out_of(capsys) == expected


class TestInternalErrorExit:
    """A failed theorem clause is an implementation bug: exit 4, the report
    still printed with the clause as FAIL, and one `internal error:` line on
    stderr."""

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_a_failed_clause_is_exit_4(self, extra, capsys, monkeypatch):
        verify = diagram.verify_funnel_theorem

        def failing(f):
            report = verify(f)
            planted = diagram.ClauseResult("planted", False, "planted failure")
            return report._replace(clauses=(*report.clauses, planted))

        monkeypatch.setattr(diagram, "verify_funnel_theorem", failing)
        assert run(["funnel", "2/7", *extra]) == 4
        out, err = out_of(capsys)
        if extra:
            assert json.loads(out)["base"] == "2/7"
            assert err.endswith("clause (planted): FAIL [planted failure]\n"
                                "internal error: funnel theorem failed for [0;3,2]\n")
        else:
            assert "clause (planted): FAIL [planted failure]\n" in out
            assert err == "internal error: funnel theorem failed for [0;3,2]\n"

    def test_a_line_family_guard_is_exit_4(self, capsys, monkeypatch):
        # A prefix product with a negative entry trips the family's guard.
        from sternbrocot import lines

        monkeypatch.setattr(lines, "continuant_product", lambda terms: IntMat2(1, 0, -1, 1))
        assert run(["lines", "[0;3,_,4]"]) == 4
        assert out_of(capsys) == ("", "internal error: negative entry in a standard "
                                      "prefix/suffix product\n")

    def test_a_pivot_without_an_index_is_exit_4(self, capsys, monkeypatch):
        # 1/3 is c_1 of 2/7 = [0;3,2].  The report names each strip vertex
        # and lists the index of each edge vertex, so 1/3 leaves the
        # triangles and the right edge along with its index.
        f = diagram.funnel(ExtendedRational(2, 7))
        third = ExtendedRational(1, 3)
        corrupt = diagram.Funnel(
            f.alpha, f.expansion, triangles=tuple(t for t in f.triangles if third not in t),
            left_edge=f.left_edge, right_edge=tuple(v for v in f.right_edge if v != third),
            indices={v: i for v, i in f.indices.items() if v != third})
        monkeypatch.setattr(diagram, "funnel", lambda alpha: corrupt)
        assert run(["funnel", "2/7"]) == 4
        out, err = out_of(capsys)
        assert "clause (end indices): FAIL" in out
        assert err == "internal error: funnel theorem failed for [0;3,2]\n"

    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_an_edge_vertex_without_an_index_is_exit_4(self, extra, capsys, monkeypatch):
        # Only the index map loses 1/3, so the report still names 1/3 on
        # the right edge and prints its index as "?" (null in JSON).
        f = diagram.funnel(ExtendedRational(2, 7))
        third = ExtendedRational(1, 3)
        corrupt = diagram.Funnel(f.alpha, f.expansion, f.triangles, f.left_edge, f.right_edge,
                                 {v: i for v, i in f.indices.items() if v != third})
        monkeypatch.setattr(diagram, "funnel", lambda alpha: corrupt)
        assert run(["funnel", "2/7", *extra]) == 4
        out, err = out_of(capsys)
        if extra:
            assert json.loads(out)["indices"] == {"0": 3, "1/4": 1, "1/3": None, "1/2": 1, "1": 1}
            assert "clause (end indices): FAIL" in err
            assert err.endswith("\ninternal error: funnel theorem failed for [0;3,2]\n")
        else:
            assert "indices:    0:3 1/4:1 1/3:? 1/2:1 1:1\n" in out
            assert "clause (end indices): FAIL" in out
            assert err == "internal error: funnel theorem failed for [0;3,2]\n"
        assert "Traceback" not in out + err


class TestFunnelBuiltOnce:
    @pytest.mark.parametrize("extra", [[], ["--json"], ["--svg", "F.svg"]], ids=["text", "json", "svg"])
    def test_one_funnel_call_per_run(self, extra, tmp_path, capsys, monkeypatch):
        built = []
        real = diagram.funnel

        def counting(alpha):
            built.append(alpha)
            return real(alpha)

        monkeypatch.setattr(diagram, "funnel", counting)
        monkeypatch.chdir(tmp_path)
        assert run(["funnel", "13/30", *extra]) == 0
        assert built == [ExtendedRational(13, 30)]


class TestFunnelSvgRefusedBeforeWork:
    def test_q_above_the_cap_never_builds_the_funnel(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("funnel was built")

        monkeypatch.setattr(diagram, "funnel", boom)
        monkeypatch.setattr(diagram, "verify_funnel_theorem", boom)
        target = tmp_path / "F.svg"
        assert run(["funnel", "1/100000", "--svg", str(target)]) == 3
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: SVG window density 100000 ") and err.count("\n") == 1
        assert not target.exists()


class TestLinesSvgRefusedBeforeWork:
    @pytest.mark.parametrize("density, message", [
        ("401", "error: SVG window density 401 "),
        ("0", "error: max_den must be positive\n"),
    ], ids=["above-the-cap", "zero"])
    def test_a_refused_window_builds_no_member_value(self, density, message, tmp_path, capsys,
                                                     monkeypatch):
        from sternbrocot.lines import LineFamily

        original = LineFamily.value
        built = []

        def value(fam, m):
            # The line pair's m = 1 point is the one value built before the window.
            if built:
                raise AssertionError("a member value was built")
            built.append(m)
            return original(fam, m)

        monkeypatch.setattr(LineFamily, "value", value)
        target = tmp_path / "F.svg"
        assert run(["lines", "[0;3,_,4]", "--range=-80000..79999", f"--max-denom={density}",
                    "--svg", str(target)]) == 3
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1
        assert not target.exists()


_INTEGER_5 = ("error: funnel of the integer 5 is degenerate: the defining ray hits the "
              "diagram vertex above it\n")
_DENSITY_401 = ("error: SVG window density 401 is above the cap of 400 "
                "(--max-denom; funnel --svg of p/q draws at least q)\n")

_TARGET_IDS = {"file": "", "missing": " in a missing dir", "dir": " onto a directory"}


class TestEveryRefusalBeforeWork:
    """A refused SVG run neither builds nor draws a window: it ends in its
    documented exit code and one stderr line, and leaves the target as it
    was.  {path} in a line stands for the --svg argument, which is a file
    holding "kept", a path in a missing directory or an existing
    directory."""

    _MISSING = "error: cannot write {path}: No such file or directory\n"
    _IS_A_DIR = "error: cannot write {path}: Is a directory\n"
    ROWS = [
        (["diagram", "--window", "0..1", "--max-denom", "400"], "missing", 2, _MISSING),
        (["funnel", "1/400"], "missing", 2, _MISSING),
        (["lines", "[0;3,_,4]", "--max-denom", "400"], "missing", 2, _MISSING),
        (["diagram", "--window", "0..1", "--max-denom", "400"], "dir", 2, _IS_A_DIR),
        (["funnel", "1/400"], "dir", 2, _IS_A_DIR),
        (["lines", "[0;3,_,4]", "--max-denom", "400"], "dir", 2, _IS_A_DIR),
        (["diagram", "--window", "0..1", "--max-denom", "401"], "missing", 3, _DENSITY_401),
        (["funnel", "5", "--max-denom", "400"], "missing", 3, _INTEGER_5),
        (["funnel", "5", "--max-denom", "400"], "file", 3, _INTEGER_5),
        (["funnel", "5", "--max-denom", "401"], "file", 3, _INTEGER_5),
        (["funnel", "1/0"], "file", 3, "error: funnels are defined for finite rationals\n"),
        (["funnel", "1/401"], "file", 3, _DENSITY_401),
        (["diagram", "--window", "0..1", "--max-denom", "401"], "file", 3, _DENSITY_401),
        (["diagram", "--window", "0..2", "--max-denom", "400"], "file", 3,
         "error: SVG window 0..2 at density 400 is too large: (hi - lo) * density^2 "
         "must be at most 400^2, a unit window at the cap\n"),
        (["lines", "[0;3,_,4]", "--max-denom", "401"], "file", 3, _DENSITY_401),
        (["lines", "[0;3,_,4]", "--range=0..160000"], "file", 3,
         "error: --range is too large: its number of members must be at most 400^2, "
         "a unit window at the cap\n"),
    ]

    @pytest.mark.parametrize("argv, target_kind, code, line", ROWS, ids=[
        " ".join(argv) + _TARGET_IDS[kind] for argv, kind, _, _ in ROWS])
    def test_refused_without_a_window(self, argv, target_kind, code, line, tmp_path,
                                      capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a window was built or drawn")

        monkeypatch.setattr(diagram, "build_diagram", boom)
        monkeypatch.setattr(figures, "render_svg", boom)
        if target_kind == "missing":
            target = tmp_path / "missing" / "out.svg"
        elif target_kind == "dir":
            target = tmp_path / "out.svg"
            target.mkdir()
            (target / "inside").write_text("kept")
        else:
            target = tmp_path / "F.svg"
            target.write_text("kept")
        assert run([*argv, "--svg", str(target)]) == code
        out, err = out_of(capsys)
        assert out == ""
        assert err == line.format(path=target)
        if target_kind == "missing":
            assert not target.parent.exists()
        elif target_kind == "dir":
            assert [p.name for p in target.iterdir()] == ["inside"]
            assert (target / "inside").read_text() == "kept"
        else:
            assert target.read_text() == "kept"

    def test_a_file_as_the_directory_is_refused_before_the_window(self, tmp_path, capsys,
                                                                  monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a window was built")

        monkeypatch.setattr(diagram, "build_diagram", boom)
        (tmp_path / "file").write_text("kept")
        target = tmp_path / "file" / "out.svg"
        assert run(["diagram", "--window", "0..1", "--svg", str(target)]) == 2
        assert out_of(capsys)[1] == f"error: cannot write {target}: Not a directory\n"
        assert (tmp_path / "file").read_text() == "kept"


class TestSvgWindowSizeCap:
    # -1/2..3/2 at 283 costs 2 * 283^2 = 160178 > 400^2, with fractional ends.
    @pytest.mark.parametrize("window, density", [("-1000..1000", "60"), ("0..2", "400"),
                                                 ("-1/2..3/2", "283")])
    def test_too_large_a_window_is_exit_3_and_writes_nothing(self, window, density,
                                                             tmp_path, capsys):
        target = tmp_path / "W.svg"
        assert run(["diagram", "--window", window, "--max-denom", density,
                    "--svg", str(target)]) == 3
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith(f"error: SVG window {window} at density {density} ")
        assert err.count("\n") == 1
        assert not target.exists()

    def test_the_bound_is_a_unit_window_at_the_density_cap(self, tmp_path, capsys,
                                                           monkeypatch):
        monkeypatch.setattr(cli, "MAX_SVG_DENOM", 10)
        target = tmp_path / "W.svg"
        # (hi - lo) * density^2 against 10^2: 4 * 25 is drawn, 4 * 36 is not.
        assert run(["diagram", "--window", "0..4", "--max-denom", "5", "--svg", str(target)]) == 0
        assert target.exists()
        target.unlink()
        assert run(["diagram", "--window", "0..4", "--max-denom", "6", "--svg", str(target)]) == 3
        assert "too large" in out_of(capsys)[1]
        assert not target.exists()
        # Sub-unit windows may be denser than the cap allows a unit window.
        assert run(["diagram", "--window", "0..1/4", "--max-denom", "10", "--svg", str(target)]) == 0
        target.unlink()
        # A non-integer cost is rounded up, never down: (100/49) * 49 = 100
        # is drawn, (201/98) * 49 = 100.5 is not.
        assert run(["diagram", "--window", "0..100/49", "--max-denom", "7",
                    "--svg", str(target)]) == 0
        assert target.exists()
        target.unlink()
        assert run(["diagram", "--window", "0..201/98", "--max-denom", "7",
                    "--svg", str(target)]) == 3
        assert "too large" in out_of(capsys)[1]
        assert not target.exists()


class TestSvgFloatRange:
    """A window whose ends overflow a float, or whose width floats cannot
    tell from zero, is refused before any file is opened."""

    @pytest.mark.parametrize("argv", [
        ["diagram", "--window", f"{10**20}..{10**20 + 1}", "--max-denom", "2"],
        ["diagram", "--window", f"1/3..{10**17 + 1}/{3 * 10**17}", "--max-denom", "2"],
        ["funnel", f"{2 * 10**20 + 1}/2"],
        ["lines", f"[{10**20};_]"],
        ["diagram", "--window", f"{10**400}..{10**400 + 1}"],
        ["diagram", "--window", f"0..1/{10**320}", "--max-denom", "1"],
    ], ids=["unit-1e20", "no-vertex", "funnel", "lines", "overflow", "infinite-scale"])
    def test_is_exit_3_and_writes_nothing(self, argv, tmp_path, capsys):
        target = tmp_path / "out.svg"
        assert run(argv + ["--svg", str(target)]) == 3
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: SVG window ") and err.count("\n") == 1
        assert not target.exists()

    def test_a_window_at_2_to_the_52_is_drawn(self, tmp_path, capsys):
        target = tmp_path / "out.svg"
        assert run(["diagram", "--window", f"{2**52}..{2**52 + 1}", "--svg", str(target)]) == 0
        assert target.read_text().startswith("<?xml")


class TestLinkCommands:
    def test_canon_of_a_one_term_class_draws_its_plat(self, capsys):
        assert run(["link", "canon", "1/2"]) == 0
        assert out_of(capsys) == ("1/2 = [0;2] (standard plat)\ntop    2R\nbottom ..\n", "")

    def test_canon_text(self, capsys):
        assert run(["link", "canon", "5/7"]) == 0
        out, _ = out_of(capsys)
        assert out.startswith("2/7 = [0;3,2]")

    def test_canon_json(self, capsys):
        assert run(["link", "canon", "5/7", "--json"]) == 0
        doc = json.loads(out_of(capsys)[0])
        assert doc == {
            "input": "5/7",
            "canonical": "2/7",
            "sequence": "[0;3,2]",
            "standard": True,
        }

    def test_eq(self, capsys):
        assert run(["link", "eq", "3/7", "5/7"]) == 0
        assert out_of(capsys)[0] == "equivalent\n"
        assert run(["link", "eq", "1/3", "1/5"]) == 0
        assert out_of(capsys)[0] == "not equivalent\n"

    def test_eq_json(self, capsys):
        assert run(["link", "eq", "2/7", "3/7", "--json"]) == 0
        doc = json.loads(out_of(capsys)[0])
        assert doc == {"a": "2/7", "b": "3/7", "equivalent": True}

    def test_canon_rejects_infinity(self, capsys):
        assert run(["link", "canon", "1/0"]) == 3


class TestDeterminism:
    def test_lines_json_byte_identical_across_runs(self, capsys):
        assert run(["lines", "[0;2,1,_,2]", "--range", "-8..8", "--json"]) == 0
        first = out_of(capsys)[0]
        assert run(["lines", "[0;2,1,_,2]", "--range", "-8..8", "--json"]) == 0
        second = out_of(capsys)[0]
        assert first == second

    def test_funnel_json_byte_identical_across_runs(self, capsys):
        assert run(["funnel", "13/30", "--json"]) == 0
        first = out_of(capsys)[0]
        assert run(["funnel", "13/30", "--json"]) == 0
        assert first == out_of(capsys)[0]


class TestValueBoundedWork:
    """funnel and lines do work that grows with an input's value; both are
    held to the budget of a unit SVG window at the density cap."""

    def test_funnel_above_the_budget_is_refused_before_the_walk(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("funnel was built")

        monkeypatch.setattr(diagram, "funnel", boom)
        for argv in (["funnel", "1/1000000"], ["funnel", "--json", "1/1000000"]):
            assert run(argv) == 3
            out, err = out_of(capsys)
            assert out == ""
            assert err.startswith("error: funnel is too large") and err.count("\n") == 1

    def test_range_above_the_budget_is_refused(self, capsys):
        assert run(["lines", "[0;3,_,4]", "--range", "0..1000000"]) == 3
        out, err = out_of(capsys)
        assert out == ""
        assert err.startswith("error: --range is too large") and err.count("\n") == 1

    def test_the_budget_is_a_unit_window_at_the_density_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SVG_DENOM", 10)
        # 1/101 = [0;101] has a strip of 100 triangles; 0..99 has 100 members.
        assert run(["funnel", "1/101"]) == 0
        assert run(["lines", "[0;3,_,4]", "--range", "0..99"]) == 0
        out_of(capsys)
        for argv in (["funnel", "1/102"], ["lines", "[0;3,_,4]", "--range", "0..100"]):
            assert run(argv) == 3
            out, err = out_of(capsys)
            assert out == ""
            assert "must be at most 10^2" in err and err.count("\n") == 1

    def test_integer_and_infinite_funnels_keep_their_messages(self, capsys):
        assert run(["funnel", "5"]) == 3
        assert "funnel of the integer 5 is degenerate" in out_of(capsys)[1]
        assert run(["funnel", "1/0"]) == 3
        assert out_of(capsys)[1] == "error: funnels are defined for finite rationals\n"


# Fuzz vocabulary: small values, plus edge tokens that some commands must
# refuse: degenerate or negative values, malformed text, an integer past
# the digit limit, ranges and windows above the budget, and a unit window
# that floats cannot draw.
_BAD = ["0/0", "1/0", "-1", "-5/3", "garbage", "[0;", "_", "9" * 5000,
        "0..10000000", "-99999999..99999999", f"{10**20}..{10**20 + 1}"]
_SMALL = st.one_of(st.integers(-5, 5).map(str),
                   st.builds("{}/{}".format, st.integers(-20, 20), st.integers(1, 20)))
_VALUE = st.one_of(_SMALL, st.sampled_from(_BAD))
_RANGE = st.one_of(st.builds("{}..{}".format, st.integers(-8, 8), st.integers(-8, 8)),
                   st.sampled_from(_BAD))
_WINDOW = st.one_of(st.builds("{}..{}".format, _SMALL, _SMALL), st.sampled_from(_BAD))
_DENOM = st.one_of(st.integers(1, 24).map(str), st.sampled_from(["0", "-1", "401"]))


@st.composite
def _sequence(draw, hole):
    terms = [draw(st.integers(-3, 6)), *draw(st.lists(st.integers(0, 6), max_size=4))]
    items = [str(t) for t in terms]
    if hole:
        items.insert(draw(st.integers(0, len(items))), "_")
    return f"[{items[0]};{','.join(items[1:])}]" if len(items) > 1 else f"[{items[0]}]"


@st.composite
def _argv(draw, svg):
    def positional(strategy):
        return (["--"] if draw(st.booleans()) else []) + [draw(strategy)]

    def optional(*flags):
        return draw(st.sampled_from([[], *flags]))

    output = optional(["--json"], ["--svg", svg], ["--json", "--svg", svg])
    cmd = draw(st.sampled_from(["eval", "expand", "funnel", "lines", "diagram", "canon", "eq"]))
    if cmd == "eval":
        argv = ["eval", *positional(st.one_of(_sequence(False), _VALUE))]
    elif cmd == "expand":
        argv = ["expand", *positional(_VALUE)]
    elif cmd == "funnel":
        argv = ["funnel", *output, *optional(["--max-denom", draw(_DENOM)]), *positional(_VALUE)]
    elif cmd == "lines":
        argv = ["lines", *output, *optional(["--range", draw(_RANGE)]),
                *optional(["--max-denom", draw(_DENOM)]), *positional(st.one_of(_sequence(True), _VALUE))]
    elif cmd == "diagram":
        argv = ["diagram", "--window", draw(_WINDOW), *optional(["--max-denom", draw(_DENOM)]),
                "--svg", svg]
    elif cmd == "canon":
        argv = ["link", "canon", *optional(["--json"]), *positional(_VALUE)]
    else:
        argv = ["link", "eq", *optional(["--json"]), "--", draw(_VALUE), draw(_VALUE)]
    return argv + (draw(st.sampled_from([["--bogus"], ["7"]])) if draw(st.integers(0, 9)) == 0 else [])


class TestFuzzRun:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_run_ends_in_a_documented_exit_code(self, data, tmp_path):
        argv = data.draw(_argv(str(tmp_path / "fuzz.svg")))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse's own exits
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in err.getvalue()
        assert code not in (2, 3) or out.getvalue() == "", (argv, code)
