"""The host-speed reference: a fixed piece of pure-Python work.

It does what the program does most (builds small dicts, does float
arithmetic through function calls, sorts by a key), so a host that slows
the program slows it alike. Imports nothing but ``time``, so a fresh
interpreter can time it before timing ``import provpoint.cli`` without
loading any module the program would otherwise load itself.
"""

import time

REF_ROWS = 600              # rows of one reference sample
REF_NOMINAL_S = 0.0007      # a reference sample's time that defines 1 s


def _score(x: float, y: float) -> float:
    return x * y / (1.0 + x) + y


def reference_sample() -> float:
    """Seconds this host takes for the reference work."""
    start = time.perf_counter()
    rows = [{"a": i * 0.5, "b": (i % 13) / 7.0, "key": str(i)} for i in range(REF_ROWS)]
    total = sum(_score(row["a"], row["b"]) for row in rows)
    rows.sort(key=lambda row: (row["b"], row["a"]))
    if total < 0:  # never: keeps the work observable
        raise AssertionError(total)
    return time.perf_counter() - start
