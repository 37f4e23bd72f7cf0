#!/usr/bin/env python3
"""Count the lines of each module in src/ffmzv, and their total.

Each line is blank, docstring-and-comment or code, as read by `tokenize`:
a nonblank line is docstring-and-comment when every token on it is a
comment or a string literal (a docstring, a comment, or a line of a
message string), and code otherwise.  Prints one row per module, then the
total:

    python scripts/src_lines.py
"""

import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ffmzv"
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_PROSE = {tokenize.COMMENT, tokenize.STRING}


def counts(text: str) -> tuple[int, int, int]:
    """(blank, docstring and comment, code) lines of Python source text."""
    kinds: dict[int, set] = {}  # line number -> the types of the tokens on it
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            for row in range(tok.start[0], tok.end[0] + 1):
                kinds.setdefault(row, set()).add(tok.type)
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1)]
    blank = sum(1 for _, line in lines if not line.strip())
    prose = sum(1 for n, line in lines if line.strip() and kinds.get(n, set()) <= _PROSE)
    return blank, prose, len(lines) - blank - prose


def main() -> int:
    total = [0, 0, 0]
    print(f"{'module':16s} {'blank':>6s} {'doc+cmt':>8s} {'code':>6s} {'lines':>6s}")
    for path in sorted(PACKAGE.glob("*.py")):
        row = counts(path.read_text())
        total = [t + c for t, c in zip(total, row)]
        print(f"{path.name:16s} {row[0]:6d} {row[1]:8d} {row[2]:6d} {sum(row):6d}")
    print(f"{'total':16s} {total[0]:6d} {total[1]:8d} {total[2]:6d} {sum(total):6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
