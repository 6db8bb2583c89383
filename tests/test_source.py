import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import starstab


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check the library promises
    # must raise explicitly instead
    offenders = []
    for path in sorted(Path(starstab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_cli_import_leaves_out_dataclasses():
    # Every CLI call pays for what `import starstab.cli` loads. Modules the
    # bare interpreter already holds (site hooks) are not counted.
    code = textwrap.dedent("""
        import sys
        bare = set(sys.modules)
        import starstab.cli
        print(sorted(set(sys.modules) - bare))

        import dataclasses
        import starstab
        from starstab import *
        assert Certificate is starstab.Certificate
        assert read_certificate is starstab.read_certificate
        assert write_certificate is starstab.write_certificate
        print(dataclasses.asdict(starstab.certify(3, 1))["extremal_found"])
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(starstab.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    loaded, extremal = proc.stdout.splitlines()
    assert "'starstab.cli'" in loaded
    assert "'dataclasses'" not in loaded
    assert "'inspect'" not in loaded
    assert extremal == "('D}o',)"


def test_public_names_are_pinned():
    # A change to the public API must edit this list.
    assert sorted(starstab.__all__) == [
        "CapacityExceededError", "Certificate", "Graph", "Graph6ParseError",
        "InvalidParameterError", "IsolatedPatternWarning", "LabeledInstance",
        "SchemaMismatchError", "StabCase", "StabResult", "StabilityVerdict", "StarstabError",
        "bch_construct", "canonical_form", "certify", "complement", "complete", "conjunction",
        "contains_subgraph", "decode_graph6", "empty", "encode_graph6",
        "enumerate_graphs_by_edges", "export_dot", "extremal_family", "from_edges",
        "graphs_of_order_and_size", "induced_delete", "is_stable_general", "is_star_stable",
        "k0", "k1", "near_complete_regular", "pad", "permute", "read_certificate",
        "recovery_embedding", "stab_case", "stab_result", "stab_value", "star", "star_stable",
        "with_edge", "write_certificate",
    ]
    for name in starstab.__all__:
        getattr(starstab, name)
