"""Whole-range sweeps, too slow for the Tier-1 suite.

Each sweep runs its calls in process, in order, and checks each result. A
CLI call runs through ``run_case`` of ``tests/helpers.py``, in a new temporary
directory. Each sweep prints one JSON line: the sweep's name, the calls run,
the failed calls, the seconds taken and the sha256 of the concatenated output
text, which must equal its pin here.

- ``stab``: ``starstab.cli.main`` for r = 3-11 at every k up to order 64, 513
  calls, each exiting 0; the text is each call's stdout.
- ``certify``: ``starstab.cli.main`` at the 87 pairs the census serves (r = 3
  at k <= 60, r = 4 at k <= 14, r = 5 at k <= 4, r = 6 at k <= 1, r = 7-10 at
  k = 0), each exiting 0, then at the first pair past them for each r = 4-11,
  each refused with exit code 2; the text is each call's stdout.
- ``enumerate``: ``starstab.cli.main`` for ``enumerate --edges 10
  --max-vertices 64``, the slowest call it serves (4,613 classes, each
  canonicalized at order 64), exiting 0; the text is its stdout.
- ``census``: the library's ``graphs_of_order_and_size(n, m)`` for every
  n = 0-10 and m = 0..C(n, 2), 176 calls; the text is ``repr(g)`` and a
  newline for each graph in census order, or ``refused: <message>`` and a
  newline for a census refused with CapacityExceededError. The pin holds the
  census order and each class's representative, not only the class sets.
- ``recover``: the library's ``recovery_embedding(star_instance(r, k), F)``
  for r = 3-10, k = 0-7 and every set F of exactly k fault labels of
  1..r+k+1, 125,475 calls; the text is ``repr`` of each result. Each result
  is checked here without the library's logic: the pattern labels are
  1..r+1 in order, the images are distinct labels outside F, label i lands
  in i..i+k, and the centre's image is adjacent to every leaf's image.

The script exits 1 when a call fails or a digest differs from its pin::

    python tests/sweeps.py

The module uses only the standard library, starstab and ``tests/helpers.py``;
pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from starstab import CapacityExceededError, graphs_of_order_and_size, recovery_embedding
from starstab.construct import star_instance
from helpers import run_case

# The largest k the census serves for each r.
CENSUS_SERVED = {3: 60, 4: 14, 5: 4, 6: 1, 7: 0, 8: 0, 9: 0, 10: 0}
PINS = {
    "stab": "7f7f23e47605cec41b75a8ddd08d9b929cb10a6f4466833e54c036b1ef039f57",
    "certify": "d805826e2b8174cc6a8e796271dfa6530fc89614dea77c48ab8290b52c632817",
    "enumerate": "77358b2cc8538e76bb78e68a19c1a032e10213a41255c7ce5f0cf58ef49ac60f",
    "census": "33ef1a211d8deced971d664ffc1e06e723125688f1ab0693c4d0ed464980c688",
    "recover": "6c573113c01a7d6e250523df27fa89ca8bce3049a139b65482425168eab33bc4",
}


def _run(argv: list[str], expected: int) -> tuple[str, str | None]:
    """The stdout of one CLI call, and a failure unless it exits with the
    expected code."""
    record = run_case(argv, {})
    code = record["exit"]
    return record["stdout"], None if code == expected else f"{' '.join(argv[:5])}: exit {code}"


def stab():
    for r in range(3, 12):
        for k in range(64 - r):
            yield _run(["stab", "--r", str(r), "--k", str(k)], 0)


def certify():
    for r, last in CENSUS_SERVED.items():
        for k in range(last + 1):
            yield _run(["certify", "--r", str(r), "--k", str(k), "--out", "cert.json"], 0)
    for r in range(4, 12):
        k = CENSUS_SERVED.get(r, -1) + 1
        yield _run(["certify", "--r", str(r), "--k", str(k), "--out", "cert.json"], 2)


def enumerate_():
    yield _run(["enumerate", "--edges", "10", "--max-vertices", "64"], 0)


def census():
    for n in range(11):
        for m in range(comb(n, 2) + 1):
            try:
                text = "".join(f"{g!r}\n" for g in graphs_of_order_and_size(n, m))
            except CapacityExceededError as exc:
                text = f"refused: {exc}\n"
            yield text, None


def recover():
    for r in range(3, 11):
        for k in range(8):
            instance, n = star_instance(r, k), r + k + 1
            for faults in combinations(range(1, n + 1), k):
                pairs = recovery_embedding(instance, faults)
                labels = [label for label, _ in pairs]
                images = [image for _, image in pairs]
                centre_row = instance.result.rows[images[0] - 1]
                ok = (labels == list(range(1, r + 2))
                      and len(set(images)) == r + 1
                      and all(1 <= v <= n and v not in faults for v in images)
                      and all(i <= v <= i + k for i, v in pairs)
                      and all(centre_row >> (v - 1) & 1 for v in images[1:]))
                yield repr(pairs), None if ok else f"recover r={r} k={k} faults={faults}"


SWEEPS = {"stab": stab, "certify": certify, "enumerate": enumerate_, "census": census,
          "recover": recover}


def main() -> int:
    status = 0
    for name, sweep in SWEEPS.items():
        calls, failures, digest = 0, [], hashlib.sha256()
        start = time.perf_counter()
        for text, failure in sweep():
            calls += 1
            digest.update(text.encode())
            if failure is not None:
                failures.append(failure)
        seconds = round(time.perf_counter() - start, 1)
        print(json.dumps({"sweep": name, "calls": calls, "failures": failures,
                          "seconds": seconds, "sha256": digest.hexdigest()}), flush=True)
        if failures or digest.hexdigest() != PINS[name]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
