"""Locate and import the program under test from the checkout's ``src/``."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/provpoint`` to benchmark."""


def load_program(root: Path):
    """Import ``provpoint.cli`` from ``root/src`` and return the module.

    Refuses any other copy of ``provpoint``, such as an installed one, so
    the benchmark always measures the checkout it sits in.
    """
    src = (root / "src").resolve()
    if not (src / "provpoint" / "cli.py").is_file():
        raise ProgramMissing(f"no src/provpoint/cli.py under {root}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("provpoint.cli")
    found = Path(cli.__file__).resolve()
    if src not in found.parents:
        raise ProgramMissing(f"provpoint was imported from {found}, not {src}")
    return cli
