"""Every demo script runs to completion against the library in ``src``, also
with only its runtime dependency (numpy) importable."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    proc = _run([str(path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


# blocks the test-only and schema-only packages, then runs every demo and one
# CLI call per subcommand in one interpreter; any nonzero exit code ends it
WITHOUT_OPTIONAL_DEPENDENCIES = """
import json, runpy, sys
for name in ("sympy", "jsonschema", "referencing", "hypothesis"):
    sys.modules[name] = None  # importing it raises ImportError
from folnerlab.cli import main
demos, calls = json.loads(sys.argv[1])
for demo in demos:
    runpy.run_path(demo, run_name="__main__")
for argv in calls:
    code = main(argv)
    if code:
        sys.exit(f"folnerlab {' '.join(argv)} exited {code}")
"""


def test_demos_and_cli_need_only_numpy(tmp_path):
    from folnerlab import algebra_for, dump_element
    from folnerlab.cli import build_parser

    def write(name, tag, terms):
        (tmp_path / name).write_text(dump_element(algebra_for(tag).group_element(terms)))
        return name

    lap = write("lap.json", "group:Z", {-1: -1, 0: 2, 1: -1})
    one_minus_x = write("omx.json", "group:Z", {0: 1, 1: -1})
    a = write("a.json", "group:Z", {0: 2, 1: 1})
    torsion = write("torsion.json", "group:ZxZ/2", {(0, 0): 1, (0, 1): -1})
    calls = [
        ["folner", "--ring", "su2", "--S", "1", "--epsilon", "1/2"],
        ["profile", "--ring", "group:Z", "--S", "[1,-1]", "--max-radius", "4",
         "--csv", "profile.csv"],
        ["kernel-dim", "--matrix", lap, "--window", "20"],
        ["zero-divisor", "--element", torsion, "--max-radius", "2"],
        ["ore-pair", "--a", a, "--s", one_minus_x, "--max-radius", "10"],
        ["tower", "--matrix", one_minus_x, "--moduli", "3,9,27,81", "--window", "10"],
        ["check-axioms", "--ring", "su2"],
    ]
    subcommands, = (action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert [call[0] for call in calls] == list(subcommands)
    payload = json.dumps([[str(path) for path in DEMOS], calls])
    proc = _run(["-c", WITHOUT_OPTIONAL_DEPENDENCIES, payload], tmp_path)
    assert proc.returncode == 0, proc.stderr
