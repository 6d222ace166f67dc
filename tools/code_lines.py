"""Count the lines of each module of src/boxperc that hold a code token.

Comments, docstrings (a string that is a statement on its own) and blank
lines are left out; a line counts once however many tokens it holds.
Standard library only:

    python tools/code_lines.py [package directory]

prints one `count path` line per module and then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# Tokens that lay out a statement without being code.
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokens:
        if tok.type in LAYOUT:
            if tok.type == tokenize.NEWLINE:
                # A statement that is one string alone is a docstring.
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "boxperc"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
