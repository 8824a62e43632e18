"""The README's Python quick start runs as documented.

Run as a script, ``python tests/test_readme.py [README.md]`` runs the same
block against whichever ldpc_spectra the interpreter imports and prints
that package's file last, so an installed package can be checked from
outside the source tree.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def run_quick_start(readme=README) -> dict:
    """Execute the README's one ```python block; return its namespace."""
    text = Path(readme).read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1, f"expected one python block in {readme}, found {len(blocks)}"
    namespace = {"__name__": "readme"}
    exec(compile(blocks[0], str(readme), "exec"), namespace)
    return namespace


def check(namespace: dict) -> None:
    assert namespace["table"].values[2] == Fraction(78, 31)
    assert type(namespace["om"]) is float and type(namespace["dom"]) is float
    assert abs(namespace["marks"].x0 - 0.0227333) < 1e-7


def test_readme_quick_start():
    check(run_quick_start())


if __name__ == "__main__":
    import ldpc_spectra

    check(run_quick_start(sys.argv[1] if len(sys.argv) > 1 else README))
    print(ldpc_spectra.__file__)
