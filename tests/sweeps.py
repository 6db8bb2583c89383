"""Whole-range CLI sweeps, too slow for the Tier-1 suite.

Each sweep runs ``starstab.cli.main(argv)`` in process for every pair (r, k)
of its range, in (r, k) order, and checks each exit code. It prints one JSON
line: the sweep's name, the pairs run, the failed calls, the seconds taken
and the sha256 of the concatenated stdout, which must equal its pin here.

- ``stab``: r = 3-11 at every k up to order 64, 513 calls, each exiting 0.
- ``certify``: the 87 pairs the census serves (r = 3 at k <= 60, r = 4 at
  k <= 14, r = 5 at k <= 4, r = 6 at k <= 1, r = 7-10 at k = 0), each
  exiting 0, then the first pair past them for each r = 4-11, each refused
  with exit code 2.

The script exits 1 when a call fails or a digest differs from its pin::

    python tests/sweeps.py

The module uses only the standard library and starstab; pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from starstab.cli import main as cli_main

# The largest k the census serves for each r.
CENSUS_SERVED = {3: 60, 4: 14, 5: 4, 6: 1, 7: 0, 8: 0, 9: 0, 10: 0}
PINS = {
    "stab": "7f7f23e47605cec41b75a8ddd08d9b929cb10a6f4466833e54c036b1ef039f57",
    "certify": "d805826e2b8174cc6a8e796271dfa6530fc89614dea77c48ab8290b52c632817",
}


def _run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _calls(tmp: str):
    """(sweep, argv, expected exit code) for every call, in order."""
    for r in range(3, 12):
        for k in range(64 - r):
            yield "stab", ["stab", "--r", str(r), "--k", str(k)], 0
    out = str(Path(tmp) / "cert.json")
    for r, last in CENSUS_SERVED.items():
        for k in range(last + 1):
            yield "certify", ["certify", "--r", str(r), "--k", str(k), "--out", out], 0
    for r in range(4, 12):
        k = CENSUS_SERVED.get(r, -1) + 1
        yield "certify", ["certify", "--r", str(r), "--k", str(k), "--out", out], 2


def main() -> int:
    results = {name: {"sweep": name, "pairs": 0, "failures": [], "seconds": 0.0,
                      "stdout": hashlib.sha256()} for name in PINS}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, expected in _calls(tmp):
            result = results[name]
            start = time.perf_counter()
            code, stdout = _run(argv)
            result["seconds"] += time.perf_counter() - start
            result["pairs"] += 1
            result["stdout"].update(stdout.encode())
            if code != expected:
                result["failures"].append(f"{' '.join(argv[:5])}: exit {code}")
    status = 0
    for name, result in results.items():
        digest = result.pop("stdout").hexdigest()
        print(json.dumps({**result, "seconds": round(result["seconds"], 1), "sha256": digest}))
        if result["failures"] or digest != PINS[name]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
