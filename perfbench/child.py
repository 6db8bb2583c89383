"""Child process of the starstab benchmark.

    python child.py certify R K   one cold certify(R, K); prints its
                                  certificate
    python child.py cli ARGS...   starstab.cli.main(ARGS), for traced runs

With PERFBENCH_TRACE set to a file path, spans are installed before the
call and their statistics are written to that file at exit.
"""

import dataclasses
import json
import os
import sys


def main() -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import starstab
    import starstab.cli

    try:
        if sys.argv[1] == "certify":
            r, k = int(sys.argv[2]), int(sys.argv[3])
            print(json.dumps(dataclasses.asdict(starstab.certify(r, k))))
            return 0
        return starstab.cli.main(sys.argv[2:])
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
