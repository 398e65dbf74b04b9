from pathlib import Path

import pytest

from ftcs2d import Alphabet, Block, BudgetExceeded, ConstraintSystem, all_blocks, analysis, generation, presentation
from ftcs2d.cli import main
from ftcs2d.fileformat import ParseError, format_system, parse_block, parse_system

COLOURINGS = Path(__file__).resolve().parent.parent / "data" / "colourings3x3.txt"
README = Path(__file__).resolve().parent.parent / "README.md"

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

    def test_trailing_comments(self):
        cs = parse_system("alphabet 01  # symbols\nsize 2 2 # window\npattern # stanza\n11  # row\n")
        assert (cs.alphabet.symbols, cs.h, cs.w, cs.size) == ("01", 2, 2, 9)

    def test_alphabet_with_comment_sign(self):
        for text in ["alphabet #.\nsize 1 1\n", "# c\nalphabet a#\nsize 1 1\n"]:
            with pytest.raises(ParseError, match="contains '#'") as e:
                parse_system(text)
            assert e.value.lineno == text.count("\n", 0, text.index("alphabet")) + 1

    def test_parse_block_line_numbers(self):
        for text, lineno in [("# c\n01\n\n0x\n", 4), ("01\n0\n", 2), ("2\n", 1)]:
            with pytest.raises(ParseError, match=f"^line {lineno}: ") as e:
                parse_block(text, Alphabet("01"))
            assert e.value.lineno == lineno

    def test_reading_decodes_no_forbidden_window(self):
        # parse, build, count, generate and check: all from the allowed windows
        cs = parse_system(COLOURINGS.read_text())
        g = presentation.build(cs)
        b = generation.generate_block(g, 8, 8, generation.GenerationPolicy(seed=1))
        assert analysis.count_by_profile(g, 4, 4) == 7812 and cs.first_forbidden_window(b) is None
        assert "forbidden" not in cs.__dict__ and "forbidden_codes" not in cs.__dict__
        assert len(cs.forbidden_codes) == 3**9 - 246


class TestBuild:
    def test_output(self, hs_file, capsys):
        assert main(["build", hs_file]) == 0
        assert capsys.readouterr().out == "|A_F|=7 blue=17 red=17 quads=63\n"

    def test_colourings_file(self, capsys):
        # 7812 is the number of proper 3-colourings of the 4x4 grid
        assert main(["build", str(COLOURINGS)]) == 0
        assert capsys.readouterr().out == "|A_F|=246 blue=1122 red=1122 quads=7812\n"

    def test_colourings_past_the_window_space(self, tmp_path, capsys):
        # 3^16 windows exceed the window-space budget, but only 7812 of them are allowed
        text = COLOURINGS.read_text().replace("size 3 3\n", "size 4 4\n")
        cs = parse_system(text)
        g = presentation.build(cs)
        assert cs.size == 7812 and analysis.count_by_profile(g, 5, 5) == 580986  # 3-colourings of the 5x5 grid
        b = generation.generate_block(g, 16, 16, generation.GenerationPolicy(seed=1))
        assert cs.first_forbidden_window(b) is None
        assert "forbidden" not in cs.__dict__ and "forbidden_codes" not in cs.__dict__
        with pytest.raises(BudgetExceeded, match="^window space of 3\\^16 4x4 windows exceeds budget 1048576$"):
            cs.forbidden_codes
        p = tmp_path / "c44.txt"
        p.write_text(text)
        assert main(["build", str(p)]) == 0
        assert capsys.readouterr().out == "|A_F|=7812 blue=54450 red=54450 quads=580986\n"

    def test_readme_example(self, tmp_path, capsys):
        # the example file of the README's "System file format" section, comments and all
        example = README.read_text().split("## System file format", 1)[1].split("```\n", 2)[1]
        p = tmp_path / "example.txt"
        p.write_text(example)
        assert main(["build", str(p)]) == 0
        assert capsys.readouterr().out == "|A_F|=9 blue=27 red=25 quads=125\n"

    def test_alphabet_with_comment_sign_exit_code(self, tmp_path, capsys):
        p = tmp_path / "hash.txt"
        p.write_text("alphabet #.\nsize 1 1\n")
        assert main(["build", str(p)]) == 2
        assert capsys.readouterr().err == "error: line 1: alphabet '#.' contains '#', which starts a comment\n"

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
        assert captured.err == "error: allowed 4x4 windows: 4194304 partial windows of 11 cells exceed budget 1048576\n"


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

    def test_oracle_mismatch_is_an_internal_fault(self, hs_file, capsys, monkeypatch):
        # a disagreement must not exit 1, which means "nonmember"
        monkeypatch.setattr(analysis, "count_by_profile", lambda g, m, n: 828)
        assert main(["count", hs_file, "--rows", "3", "--cols", "5", "--oracle"]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "MISMATCH oracle=827 profile=828\n"

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

    def test_no_member_at_the_largest_size(self, tmp_path, capsys):
        only = Block(((0, 1), (1, 0)))  # the one allowed window: no 2x3 block is a member
        p = tmp_path / "one.txt"
        p.write_text(format_system(ConstraintSystem(Alphabet("01"), 2, 2, set(all_blocks(2, 2, 2)) - {only})))
        for rows, cols in [("2", "3"), ("3", "3"), ("4", "5")]:
            assert main(["capacity", str(p), "--max-rows", rows, "--max-cols", cols]) == 0
            assert capsys.readouterr().out == "empty system\n"

    def test_no_wrapped_member(self, tmp_path, capsys):
        allowed = {Block(((0,), (1,))), Block(((1,), (2,)))}  # vertical pairs: 012 is a member, no column wraps
        p = tmp_path / "pairs.txt"
        p.write_text(format_system(ConstraintSystem(Alphabet("012"), 2, 1, set(all_blocks(3, 2, 1)) - allowed)))
        assert main(["capacity", str(p), "--max-rows", "3", "--max-cols", "4"]) == 0
        assert capsys.readouterr().out == "lower=-inf point=-1.000000 upper=0.000000\n"

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
