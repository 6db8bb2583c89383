"""Command-line front end.

JSON results go to stdout, diagnostics to stderr. Vertex labels in all CLI
input and output are 1-based; translation to the library's 0-based indices is
the only transformation applied. Exit codes: 0 success/verified, 1 refuted
certificate, 2 usage, file, or capacity errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .canon import canonical_form
from .certify import certify, enumerate_graphs_by_edges
from .construct import bch_construct, recovery_embedding, star_instance
from .errors import Graph6ParseError, StarstabError
from .graph import Graph, decode_graph6, encode_graph6, export_dot, star
from .stability import is_stable_general, is_star_stable
from .theorem import extremal_family, stab_result


# Well above the longest legal file, 350 bytes at order 64 with the >>graph6<< prefix.
_MAX_GRAPH_FILE_BYTES = 4096


def _read_graph_file(path: str) -> Graph:
    with open(path, "rb") as f:
        data = f.read(_MAX_GRAPH_FILE_BYTES + 1)
    if len(data) > _MAX_GRAPH_FILE_BYTES:
        raise Graph6ParseError(f"graph6 input is longer than {_MAX_GRAPH_FILE_BYTES} bytes")
    return decode_graph6(data)


def _int(text: str) -> int:
    """An optional ASCII '-' then ASCII digits; int() alone also reads '1_0' and ' 4'."""
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_ints(text: str, error: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; otherwise StarstabError names ``error``."""
    try:
        return tuple(map(_int, text.split(",")))
    except argparse.ArgumentTypeError:
        raise StarstabError(f"{error}, got {text!r}")


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_construct(args) -> int:
    pattern = star(args.r) if args.pattern is None else _read_graph_file(args.pattern)
    labelling = tuple(range(1, pattern.n + 1))
    if args.labelling is not None:
        labelling = _parse_ints(args.labelling, "labelling must be comma-separated integers")
    instance = bch_construct(pattern, args.k, labelling)
    print(encode_graph6(instance.result))
    if args.dot:
        print(export_dot(instance.result, index_base=1), end="")
    return 0


def _cmd_verify(args) -> int:
    g = _read_graph_file(args.graph)
    if args.pattern is not None:
        verdict = is_stable_general(g, _read_graph_file(args.pattern), args.k)
    else:
        verdict = is_star_stable(g, args.r, args.k)
    _emit({
        "stable": verdict.stable,
        "witness": None if verdict.witness is None else [v + 1 for v in verdict.witness],
        "checked_fault_sets": verdict.checked_fault_sets,
    })
    return 0


def _cmd_stab(args) -> int:
    result = stab_result(args.r, args.k)
    _emit({
        "r": result.r,
        "k": result.k,
        "case": result.case,
        "value": result.value,
        "k0": result.k0,
        "k1": result.k1,
        "extremal": [canonical_form(g) for g in extremal_family(args.r, args.k)],
    })
    return 0


def _cmd_extremal(args) -> int:
    result = stab_result(args.r, args.k)
    # Every graph is encoded before the directory is made, so a refused call
    # leaves nothing behind.
    texts = [encode_graph6(g) for g in extremal_family(args.r, args.k)]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for idx, (descriptor, text) in enumerate(zip(result.extremal_descriptors, texts)):
        path = outdir / f"extremal_r{args.r}_k{args.k}_{idx}_{descriptor.lower()}.g6"
        path.write_text(text + "\n")
        print(path)
    return 0


def _cmd_certify(args) -> int:
    from .certificate import write_certificate

    cert = certify(args.r, args.k)
    print(write_certificate(cert, args.out), end="")
    if cert.match and cert.minimality_ok:
        return 0
    print(f"refuted: minimality_ok={cert.minimality_ok} match={cert.match}", file=sys.stderr)
    return 1


def _cmd_recover(args) -> int:
    instance = star_instance(args.r, args.k)
    faults = _parse_ints(args.faults, "faults must be comma-separated labels")
    _emit({
        "r": args.r,
        "k": args.k,
        "faults": sorted(set(faults)),
        "mapping": [list(pair) for pair in recovery_embedding(instance, faults)],
    })
    return 0


def _cmd_enumerate(args) -> int:
    for code in enumerate_graphs_by_edges(args.edges, args.max_vertices):
        print(code)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starstab",
        description="Fault-tolerant star-graph constructions, stability checks, "
                    "minimum-size results, and exhaustive certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="spare-vertex expansion of a pattern")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--r", type=_int, help="number of star leaves")
    mode.add_argument("--pattern", help="graph6 file with the pattern graph")
    p.add_argument("--k", type=_int, required=True, help="fault budget")
    p.add_argument("--labelling", help="comma-separated labels in pattern-vertex order")
    p.add_argument("--dot", action="store_true", help="also print DOT (1-based labels)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="decide k-fault stability of a graph")
    p.add_argument("--graph", required=True, help="graph6 file to check")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--r", type=_int, help="number of star leaves")
    mode.add_argument("--pattern", help="graph6 file with a general pattern")
    p.add_argument("--k", type=_int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stab", help="minimum stable size and extremal family")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.set_defaults(func=_cmd_stab)

    p = sub.add_parser("extremal", help="write one graph6 file per extremal graph")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("certify", help="exhaustive minimality/extremal certification")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--out", required=True, help="certificate JSON path")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("recover", help="greedy re-embedding after faults")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--faults", required=True, help="comma-separated 1-based fault labels")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("enumerate", help="iso-class census by edge count")
    p.add_argument("--edges", type=_int, required=True)
    p.add_argument("--max-vertices", type=_int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StarstabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
