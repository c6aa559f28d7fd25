"""Print the size of a Python package: lines and tokens per module, and in all.

    python tools/size.py [PACKAGE]

PACKAGE is a directory (default `src/epwcalc`, relative to the repository
root); its `*.py` files are counted, not its subdirectories. Lines are the
lines of each file, as `wc -l` counts them. Tokens are the NAME, OP, NUMBER
and STRING tokens of `tokenize`, so comments, layout and docstring length
within one STRING token do not count.
"""

import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "epwcalc"
COUNTED = {tokenize.NAME, tokenize.OP, tokenize.NUMBER, tokenize.STRING}


def module_size(path):
    """(lines, tokens) of one source file."""
    data = path.read_bytes()
    tokens = sum(tok.type in COUNTED for tok in tokenize.tokenize(io.BytesIO(data).readline))
    return data.count(b"\n"), tokens


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else DEFAULT
    sizes = {path.name: module_size(path) for path in sorted(package.glob("*.py"))}
    width = max(map(len, sizes), default=5)
    for name, (lines, tokens) in sizes.items():
        print(f"{name:<{width}}  {lines:>6} lines  {tokens:>7} tokens")
    total_lines = sum(lines for lines, _ in sizes.values())
    total_tokens = sum(tokens for _, tokens in sizes.values())
    print(f"{'total':<{width}}  {total_lines:>6} lines  {total_tokens:>7} tokens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
