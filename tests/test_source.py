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
