"""scipy and networkx are dev extras: the package must import without them.

Each is imported only where it is used (the user study's t-test and
``ScriptDAG.to_networkx``), so a host with numpy alone can run the CLI,
the harness and every engine.
"""

import os
import subprocess
import sys
import textwrap

import repro


def test_package_imports_with_scipy_and_networkx_blocked():
    program = textwrap.dedent(
        """
        import sys

        sys.modules["scipy"] = None  # any import of it now raises
        sys.modules["networkx"] = None
        import repro
        import repro.cli
        import repro.harness
        """
    )
    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
