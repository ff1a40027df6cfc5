#!/usr/bin/env python3
"""Count the lines of each module of ``src/tomoments``: all of them, and the code lines.

A code line holds a token of Python code: it is not blank, not a comment
alone, and not inside a module, class or function docstring.  A string
expression that is not a docstring, and every line of a statement that
spans lines, count as code.  Each line of the listing reads ``code  lines
module``, the last one the totals; ``lines`` is what ``wc -l`` counts.
With ``--compare LISTING`` it prints, instead of its own listing, each
module whose counts differ from those of a listing saved from another
checkout (a module only one of the two holds counts as 0 in the other),
then the totals, each as ``before -> after (change)``.

    python3 scripts/src_lines.py > parent.txt
    python3 scripts/src_lines.py --compare parent.txt
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tomoments"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """``(code lines, all lines)`` of the Python module ``source``."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source))), len(source.splitlines())


def listing(package: Path = PACKAGE) -> dict:
    """``{module: (code lines, all lines)}`` of the ``.py`` files of ``package``, by name."""
    return {path.name: count_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


def _total(counts: dict) -> tuple[int, int]:
    return sum(code for code, _ in counts.values()), sum(lines for _, lines in counts.values())


def format_listing(counts: dict) -> str:
    rows = [*counts.items(), ("total", _total(counts))]
    return "".join(f"{code:6d} {lines:6d}  {name}\n" for name, (code, lines) in rows)


def parse_listing(text: str) -> dict:
    """The modules of a listing this script printed; its total line is left out."""
    counts = {}
    for line in text.splitlines():
        if line.strip():
            code, lines, name = line.split()
            if name != "total":
                counts[name] = (int(code), int(lines))
    return counts


def compare(before: dict, after: dict) -> str:
    """One line per module whose counts differ between the two listings, then the totals."""
    rows = [(name, before.get(name, (0, 0)), after.get(name, (0, 0))) for name in sorted(before.keys() | after.keys())]
    rows = [row for row in rows if row[1] != row[2]] + [("total", _total(before), _total(after))]
    return "".join(
        f"{name}: code {old[0]} -> {new[0]} ({new[0] - old[0]:+d}), lines {old[1]} -> {new[1]} ({new[1] - old[1]:+d})\n"
        for name, old, new in rows
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--compare", type=Path, metavar="LISTING",
                        help="a saved listing: print the modules whose counts differ from it, and the totals")
    args = parser.parse_args(argv)
    counts = listing()
    if args.compare:
        sys.stdout.write(compare(parse_listing(args.compare.read_text()), counts))
    else:
        sys.stdout.write(format_listing(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
