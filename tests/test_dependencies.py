"""numpy is the one runtime dependency: importing the package, the CLI,
the law suite and the serializers loads no other third-party module."""

import os
import subprocess
import sys
from pathlib import Path

import probmorph

SRC = str(Path(probmorph.__file__).resolve().parents[1])


def _top_level_modules(code: str) -> set:
    """The top-level names in ``sys.modules`` after a fresh interpreter
    runs ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sys.modules))"],
        capture_output=True, text=True, env=env, check=True, timeout=60)
    return {name.partition(".")[0] for name in proc.stdout.split()}


def test_numpy_is_the_only_third_party_module_the_package_loads():
    # Site hooks may load third-party modules of their own, so compare
    # with an interpreter that only starts.
    bare = _top_level_modules("")
    loaded = _top_level_modules(
        "import probmorph, probmorph.cli, probmorph.laws, probmorph.serialize")
    added = loaded - bare - set(sys.stdlib_module_names) - {"probmorph"}
    assert added == {"numpy"}
