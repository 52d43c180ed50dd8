"""Size of the ``photonmux`` package: lines and code lines per module.

Code lines leave out docstrings (the first string of a module, class or
function body), comments and blank lines.  Run from the repository root::

    python tests/code_size.py

It prints one row per module of ``src/photonmux`` and their total.
"""
import ast
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "photonmux"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sizes(path: pathlib.Path) -> tuple[int, int]:
    """(lines, code lines) of one module."""
    text = path.read_text()
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT and tok.type != tokenize.ENCODING:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(text))
    return len(text.splitlines()), len(code)


def main() -> int:
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(SRC.glob("*.py")):
        lines, code = sizes(path)
        total_lines += lines
        total_code += code
        print(f"{path.name:<16}{lines:>8,}{code:>8,}")
    print(f"{'total':<16}{total_lines:>8,}{total_code:>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
