from pathlib import Path

import pytest

from ftcs2d import Alphabet, presentation
from ftcs2d.cli import main
from ftcs2d.fileformat import ParseError, format_system, parse_block, parse_system

COLOURINGS = Path(__file__).resolve().parent.parent / "data" / "colourings3x3.txt"

HARD_SQUARE = """\
# no two adjacent 1s
alphabet 01
size 2 2

pattern
11

pattern
1
1
"""

ALL_FORBIDDEN = (
    "alphabet 01\nsize 1 1\nforbid\n0\n\nforbid\n1\n"
)
ALL_FORBIDDEN_2X2 = "alphabet 01\nsize 2 2\npattern\n0\n\npattern\n1\n"


@pytest.fixture
def hs_file(tmp_path):
    p = tmp_path / "hard_square.txt"
    p.write_text(HARD_SQUARE)
    return str(p)


class TestFileFormat:
    def test_parse_hard_square(self):
        cs = parse_system(HARD_SQUARE)
        assert cs.size == 7 and len(cs.forbidden) == 9

    def test_roundtrip(self):
        cs = parse_system(HARD_SQUARE)
        again = parse_system(format_system(cs))
        assert again.forbidden == cs.forbidden
        assert again.alphabet == cs.alphabet
        assert format_system(again) == format_system(cs)

    def test_forbid_stanza(self):
        cs = parse_system("alphabet 01\nsize 2 2\nforbid\n11\n11\n")
        assert cs.size == 15

    def test_parse_errors(self):
        for bad in [
            "",
            "size 2 2",
            "alphabet 01\nsize 2\n",
            "alphabet 01\nsize 2 2\nforbid\n111\n111\n",
            "alphabet 01\nsize 2 2\npattern\n111\n",
            "alphabet 01\nsize 2 2\nnonsense\n",
            "alphabet 01\nsize 2 2\nforbid\n12\n00\n",
        ]:
            with pytest.raises(ParseError):
                parse_system(bad)

    def test_parse_block_line_numbers(self):
        for text, lineno in [("# c\n01\n\n0x\n", 4), ("01\n0\n", 2), ("2\n", 1)]:
            with pytest.raises(ParseError, match=f"^line {lineno}: ") as e:
                parse_block(text, Alphabet("01"))
            assert e.value.lineno == lineno

    def test_reading_decodes_no_forbidden_window(self):
        cs = parse_system(COLOURINGS.read_text())
        presentation.build(cs)
        assert "forbidden" not in cs.__dict__
        assert len(cs.forbidden_codes) == 3**9 - 246


class TestBuild:
    def test_output(self, hs_file, capsys):
        assert main(["build", hs_file]) == 0
        assert capsys.readouterr().out == "|A_F|=7 blue=17 red=17 quads=63\n"

    def test_colourings_file(self, capsys):
        # 7812 is the number of proper 3-colourings of the 4x4 grid
        assert main(["build", str(COLOURINGS)]) == 0
        assert capsys.readouterr().out == "|A_F|=246 blue=1122 red=1122 quads=7812\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("garbage\n")
        assert main(["build", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["build", "/nonexistent/x.txt"]) == 2

    def test_window_space_budget(self, tmp_path, capsys):
        p = tmp_path / "big.txt"
        p.write_text("alphabet 0123\nsize 4 4\n")
        assert main(["build", str(p)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: window space of 4^16 4x4 windows exceeds budget 1048576\n"


class TestCheck:
    def test_member(self, hs_file, tmp_path, capsys):
        b = tmp_path / "b.txt"
        b.write_text("010\n000\n010\n")
        assert main(["check", hs_file, str(b)]) == 0
        assert capsys.readouterr().out == "member\n"

    def test_nonmember(self, hs_file, tmp_path, capsys):
        b = tmp_path / "b.txt"
        b.write_text("111\n111\n111\n")
        assert main(["check", hs_file, str(b)]) == 1
        assert capsys.readouterr().out == "nonmember (1,1)\n"

    def test_nonmember_interior_window(self, hs_file, tmp_path, capsys):
        b = tmp_path / "b.txt"
        b.write_text("010\n001\n011\n")
        assert main(["check", hs_file, str(b)]) == 1
        assert capsys.readouterr().out == "nonmember (2,2)\n"


class TestGenerate:
    def test_member_output(self, hs_file, capsys):
        assert main(["generate", hs_file, "--rows", "4", "--cols", "6", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 4 and all(len(l) == 6 for l in lines)
        assert "11" not in out

    def test_determinism(self, hs_file, capsys):
        args = ["generate", hs_file, "--rows", "5", "--cols", "5", "--seed", "42"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_schedules_accepted(self, hs_file, capsys):
        for sched in ("row-major", "col-major", "interleaved"):
            assert main(
                ["generate", hs_file, "--rows", "3", "--cols", "4", "--schedule", sched]
            ) == 0
            capsys.readouterr()

    def test_unrealizable(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text(ALL_FORBIDDEN)
        assert main(["generate", str(p), "--rows", "2", "--cols", "2"]) == 3
        assert capsys.readouterr().out == "UNREALIZABLE\n"

    def test_below_window_size(self, hs_file, capsys):
        assert main(["generate", hs_file, "--rows", "1", "--cols", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: target 1x1 below window size 2x2\n"

    def test_large_block(self, hs_file, capsys):
        assert main(["generate", hs_file, "--rows", "200", "--cols", "200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 200 and all(len(l) == 200 for l in lines)


class TestCount:
    def test_3x5(self, hs_file, capsys):
        assert main(["count", hs_file, "--rows", "3", "--cols", "5"]) == 0
        assert capsys.readouterr().out == "827\n"

    def test_oracle_cross_check(self, hs_file, capsys):
        assert main(["count", hs_file, "--rows", "3", "--cols", "5", "--oracle"]) == 0
        assert capsys.readouterr().out == "827\n"

    def test_budget_exceeded_exit_code(self, hs_file, capsys):
        # rows of 39 identifiers: far more row states than the default budget
        assert main(["count", hs_file, "--rows", "3", "--cols", "40"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: row operator")

    def test_9x9_within_budget(self, hs_file, capsys):
        assert main(["count", hs_file, "--rows", "9", "--cols", "9"]) == 0
        assert capsys.readouterr().out == "770548397261707\n"  # OEIS A006506

    def test_below_window_size(self, hs_file, capsys):
        assert main(["count", hs_file, "--rows", "1", "--cols", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: size 1x1 below window size 2x2\n"


class TestCapacity:
    def test_format(self, hs_file, capsys):
        assert main(["capacity", hs_file, "--max-rows", "4", "--max-cols", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("lower=") and " point=" in out and " upper=" in out
        lower, point, upper = (float(part.split("=")[1]) for part in out.split())
        assert lower <= point <= upper

    def test_empty_system(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text(ALL_FORBIDDEN)
        assert main(["capacity", str(p), "--max-rows", "3", "--max-cols", "3"]) == 0
        assert capsys.readouterr().out == "empty system\n"

    def test_empty_system_below_window_size(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text(ALL_FORBIDDEN_2X2)
        assert main(["capacity", str(p), "--max-rows", "1", "--max-cols", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: need max_m >= 2 and max_n >= 3, got 1x1\n"


class TestExportDot:
    def test_combined(self, hs_file, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["export-dot", hs_file, "--graph", "combined", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("digraph")
        assert text.count("color=blue") == 17
        assert text.count("color=red") == 17
        assert '1 [label="1\\n00/00"]' in text

    def test_row_only(self, hs_file, tmp_path):
        out = tmp_path / "r.dot"
        assert main(["export-dot", hs_file, "--graph", "row", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.count("color=blue") == 17 and "color=red" not in text

    def test_classes(self, hs_file, tmp_path):
        out = tmp_path / "c.dot"
        assert main(["export-dot", hs_file, "--graph", "classes", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.count("color=blue") == 17
        assert "shape=circle" in text


class TestUnexpectedErrors:
    @pytest.mark.parametrize("error", [AssertionError("overlap disagreement"), MemoryError()])
    def test_exit_code_5(self, hs_file, capsys, monkeypatch, error):
        # a crash must not exit 1, which means "nonmember"
        def fail(cs):
            raise error

        monkeypatch.setattr(presentation, "build", fail)
        assert main(["build", hs_file]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {type(error).__name__}")
