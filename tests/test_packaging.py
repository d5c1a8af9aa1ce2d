"""The installed package runs on its declared dependencies alone."""

import os
import pathlib
import subprocess
import sys

import repro


def test_import_repro_does_not_load_networkx():
    """``pyproject.toml`` declares only numpy, so importing the package
    must not pull in the graph library the network layer once used."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('networkx' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "False"
