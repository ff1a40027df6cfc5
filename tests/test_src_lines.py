import importlib.util
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"

MODULE = textwrap.dedent(
    '''\
    """A module docstring
    over two lines."""

    import math  # a trailing comment is code


    class Shape:
        """A class docstring."""

        # a comment alone
        def area(self, r):
            """A function
            docstring."""
            total = math.fsum(
                [r, r],
            )
            """a string expression that is no docstring"""
            return total
    '''
)
# code: import, class, def, the call's three lines, the string expression and
# the return; the rest are three docstrings, a comment alone and four blank lines
MODULE_CODE_LINES = 8


@pytest.fixture(scope="module")
def src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_and_all_lines(src_lines):
    assert src_lines.count_lines(MODULE) == (MODULE_CODE_LINES, 18)


def test_listing_counts_each_module_and_the_total(src_lines, tmp_path):
    (tmp_path / "shape.py").write_text(MODULE)
    (tmp_path / "one.py").write_text("x = 1\n\n")
    counts = src_lines.listing(tmp_path)
    assert counts == {"one.py": (1, 2), "shape.py": (MODULE_CODE_LINES, 18)}
    text = src_lines.format_listing(counts)
    assert text.splitlines()[-1].split() == [str(MODULE_CODE_LINES + 1), "20", "total"]
    assert src_lines.parse_listing(text) == counts


def test_compare_names_changed_modules_then_the_totals(src_lines, tmp_path, monkeypatch, capsys):
    before = {"a.py": (10, 20), "b.py": (5, 9), "gone.py": (1, 1)}
    after = {"a.py": (10, 20), "b.py": (3, 8), "new.py": (2, 4)}
    assert src_lines.compare(before, after) == (
        "b.py: code 5 -> 3 (-2), lines 9 -> 8 (-1)\n"
        "gone.py: code 1 -> 0 (-1), lines 1 -> 0 (-1)\n"
        "new.py: code 0 -> 2 (+2), lines 0 -> 4 (+4)\n"
        "total: code 16 -> 15 (-1), lines 30 -> 32 (+2)\n"
    )
    saved = tmp_path / "before.txt"
    saved.write_text(src_lines.format_listing(before))
    monkeypatch.setattr(src_lines, "listing", lambda: after)
    assert src_lines.main(["--compare", str(saved)]) == 0
    assert capsys.readouterr().out == src_lines.compare(before, after)
