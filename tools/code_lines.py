"""Count the lines of each ``src/multiswap`` module.

For every module it prints the code lines (lines holding code, so no
docstring, comment or blank line) and the physical lines ``wc -l`` counts,
then the totals. Run it from anywhere: ``python3 tools/code_lines.py``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "multiswap"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """Lines that some token other than a comment or a docstring covers."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total_code = total_wc = 0
    print(f"{'module':<16}{'code':>7}{'wc -l':>8}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        code, wc = code_lines(source), source.count("\n")
        total_code, total_wc = total_code + code, total_wc + wc
        print(f"{path.name:<16}{code:>7}{wc:>8}")
    print(f"{'total':<16}{total_code:>7}{total_wc:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
