import ast
import importlib.util
import os
import subprocess
import sys
import textwrap
import types
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


def test_every_imported_name_is_used():
    # A deletion can leave an import behind; the package __init__ imports to
    # re-export, and __future__ imports bind no name.
    unused = []
    for path in sorted(Path(starstab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


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


def test_each_input_rule_is_worded_once():
    # The star size, fault budget and vertex rules are each checked by one
    # function in graph.py, which every caller uses, and the loop rule by the
    # Graph constructor alone.
    text = "".join(path.read_text() for path in Path(starstab.__file__).parent.glob("*.py"))
    for message in ("star size r must be", "fault budget k must be", "out of range for order",
                    "loop at vertex"):
        assert text.count(message) == 1, message


def test_only_the_package_declares_all():
    # The package __all__ is the one declaration of the public API.
    declaring = []
    for path in sorted(Path(starstab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                declaring.append(path.name)
    assert declaring == ["__init__.py"]


def test_only_the_cli_entry_point_has_a_defaulted_parameter():
    # A library call behaves one way for one argument list; main's argv
    # defaults to the command line for the console script.
    defaulted = []
    for path in sorted(Path(starstab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and (
                    node.args.defaults or any(node.args.kw_defaults)):
                defaulted.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    assert defaulted == ["cli.main"]


def test_no_module_imports_warnings():
    # The library has no warning channel: each input is served or refused
    # with an error, so nothing can turn into a failure under -W error.
    importing = []
    for path in sorted(Path(starstab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "warnings" for name in names):
                importing.append(f"{path.name}:{node.lineno}")
    assert importing == []


def test_public_names_are_pinned():
    # A change to the public API must edit this list.
    assert sorted(starstab.__all__) == [
        "CapacityExceededError", "Certificate", "Graph", "Graph6ParseError",
        "InvalidParameterError", "LabeledInstance",
        "SchemaMismatchError", "StabResult", "StabilityVerdict", "StarstabError",
        "bch_construct", "canonical_form", "certify", "complement", "complete", "conjunction",
        "decode_graph6", "empty", "encode_graph6",
        "enumerate_graphs_by_edges", "export_dot", "extremal_family", "from_edges",
        "graphs_of_order_and_size", "is_stable_general", "is_star_stable",
        "k0", "k1", "near_complete_regular", "read_certificate", "recovery_embedding",
        "stab_result", "stab_value", "star", "star_stable", "write_certificate",
    ]
    for name in starstab.__all__:
        getattr(starstab, name)
    # and the package binds no other public name, submodules aside
    assert not [name for name, value in vars(starstab).items() if not name.startswith("_")
                and not isinstance(value, types.ModuleType) and name not in starstab.__all__]


def test_every_name_the_benchmark_tracer_binds_resolves():
    # perfbench/tracing.py wraps these functions by name, so a deleted or
    # renamed one would otherwise show only in a traced benchmark pass. The
    # certify function shadows its module, so modules come from sys.modules.
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import starstab.cli  # noqa: F401  (loads every module the tracer patches)

    assert tracing.SPANS and tracing.GENERATORS
    missing = []
    for module, names in [*tracing.SPANS.items(), *tracing.GENERATORS.items()]:
        for name in names:
            if not callable(getattr(sys.modules.get(f"starstab.{module}"), name, None)):
                missing.append(f"starstab.{module}.{name}")
    assert missing == []
