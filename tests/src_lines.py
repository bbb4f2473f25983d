"""Print the size of the package source, `src/eqspike/*.py`, two ways.

The first count is every line, as `wc -l` totals it; the second leaves
out the blank lines and those holding only a `#` comment (docstrings
count as code).  Run from anywhere: `python tests/src_lines.py`.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eqspike"


def counts(src: Path = SRC) -> tuple[int, int]:
    """(all lines, non-blank non-comment lines) of the .py files in `src`."""
    lines = [line for path in sorted(src.glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines()]
    code = [line for line in lines
            if line.strip() and not line.lstrip().startswith("#")]
    return len(lines), len(code)


if __name__ == "__main__":
    total, code = counts()
    print(f"wc -l {total}")
    print(f"non-blank non-comment {code}")
