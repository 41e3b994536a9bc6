"""Canonical JSON of every CLI subcommand, of a Haar report and of kernel
brackets over whole (non-ball) windows, pinned byte for byte against the
files in ``tests/golden/``.

Elements live in exact group-ring providers, and the rings without
coefficients (su2, finite:S3) only enter searches with integer weights, so
no byte depends on floating-point rounding. Each search has a certificate
case and an exhaustion or not-found case.

After an intended change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from folnerlab import (MatrixOverPol, algebra_for, conjugation_closure, dump_element,
                       group_quotient_tower, haar_approx_sequence, kernel_dim_estimate)
from folnerlab.cli import main
from folnerlab.serialize import canonical_dumps

from conftest import REPO_ROOT

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _inputs() -> dict:
    """The element and matrix files the CLI cases read, by file stem."""
    AZ = algebra_for("group:Z")
    AZ2 = algebra_for("group:Z^2")
    AZXZ2 = algebra_for("group:ZxZ/2")
    AHEIS = algebra_for("group:heisenberg")
    return {
        "omg": AZ.group_element({0: 1, 1: -1}),
        "ore_a": AZ.group_element({0: 2, 1: 1}),
        "z2_lap": AZ2.group_element({(0, 0): 4, (1, 0): -1, (-1, 0): -1,
                                     (0, 1): -1, (0, -1): -1}),
        "z_matrix": MatrixOverPol(AZ, [
            [AZ.group_element({0: 1, 1: -1}), AZ.group_element({0: Fraction(1, 2)})],
            [AZ.zero(), AZ.group_element({0: 1, -1: (Fraction(2, 3), Fraction(-1, 5))})]]),
        "heis_gauss": AHEIS.group_element({(0, 0, 0): (Fraction(1, 2), Fraction(1, 3)),
                                           (1, 0, 0): -1, (0, 1, 0): Fraction(2, 5)}),
        "heis_x": AHEIS.group_element({(1, 0, 0): 1}),
        "heis_y": AHEIS.group_element({(0, 1, 0): 1}),
        "heis_ore_a": AHEIS.group_element({(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): 1}),
        "heis_ore_s": AHEIS.group_element({(0, 0, 0): 1, (1, 0, 0): 1}),
        "zd": AZXZ2.group_element({(0, 0): 1, (0, 1): -1}),
        "zd_x": AZXZ2.group_element({(1, 0): 1}),
        "zd_s": AZXZ2.group_element({(0, 0): 1, (0, 1): 1}),
    }


# "{stem}" stands for the path of the input file of that stem
CLI_CASES = {
    "folner_certificate_su2": ["folner", "--ring", "su2", "--S", "1",
                               "--epsilon", "1/2"],
    "folner_certificate_s3": ["folner", "--ring", "finite:S3", "--S", '"std"',
                              "--epsilon", "1/10"],
    "folner_certificate_z2": ["folner", "--ring", "group:Z^2",
                              "--S", "[[1,0],[0,1]]", "--epsilon", "1/2"],
    "folner_exhaustion_z": ["folner", "--ring", "group:Z", "--S", "[1,-1]",
                            "--epsilon", "1/10", "--max-radius", "3"],
    "profile_z2": ["profile", "--ring", "group:Z^2", "--S", "[[1,0],[0,1]]",
                   "--max-radius", "4"],
    "profile_heisenberg": ["profile", "--ring", "group:heisenberg",
                           "--S", "[[1,0,0],[0,1,0]]", "--max-radius", "2"],
    "profile_su2": ["profile", "--ring", "su2", "--S", "1", "--max-radius", "5"],
    "kernel_dim_z2_laplacian": ["kernel-dim", "--matrix", "{z2_lap}",
                                "--window", "3"],
    "kernel_dim_z_matrix": ["kernel-dim", "--matrix", "{z_matrix}",
                            "--window", "2"],
    "kernel_dim_degenerate": ["kernel-dim", "--matrix", "{z2_lap}",
                              "--window", "0"],
    "kernel_dim_heisenberg_left": ["kernel-dim", "--matrix", "{heis_gauss}",
                                   "--window", "1", "--side", "left"],
    "zero_divisor_certificate": ["zero-divisor", "--element", "{zd}",
                                 "--max-radius", "2"],
    "zero_divisor_not_found": ["zero-divisor", "--element", "{omg}",
                               "--max-radius", "3"],
    "ore_pair_z": ["ore-pair", "--a", "{ore_a}", "--s", "{omg}",
                   "--max-radius", "10"],
    "ore_pair_zero_divisor": ["ore-pair", "--a", "{zd_x}", "--s", "{zd_s}",
                              "--max-radius", "4"],
    "ore_pair_heisenberg": ["ore-pair", "--a", "{heis_ore_a}", "--s", "{heis_ore_s}",
                            "--max-radius", "8"],
    "ore_pair_exhaustion": ["ore-pair", "--a", "{heis_x}", "--s", "{heis_y}",
                            "--max-radius", "1"],
    "tower_z": ["tower", "--matrix", "{omg}", "--moduli", "3,9,27",
                "--window", "4"],
    "tower_z2_non_injective": ["tower", "--matrix", "{z2_lap}", "--moduli", "2,4",
                               "--window", "2"],
    "tower_heisenberg": ["tower", "--matrix", "{heis_gauss}", "--moduli", "2,4",
                         "--window", "1", "--side", "left"],
    "check_axioms_s3": ["check-axioms", "--ring", "finite:S3"],
    "check_axioms_heisenberg": ["check-axioms", "--ring", "group:heisenberg",
                                "--generators", "[[1,0,0],[0,1,0]]",
                                "--limit", "1"],
}
CASES = sorted([*CLI_CASES, "haar_report", "kernel_dim_windows"])


def _window_estimates() -> list:
    """Kernel brackets over whole windows, which the CLI (ball windows only)
    never builds: a 3-term Gaussian element on the N = 4 box of Z^2, and a
    2x2 matrix with a zero block on a conjugation-closed Heisenberg window
    that is no ball, each on both sides."""
    AZ2 = algebra_for("group:Z^2")
    AHEIS = algebra_for("group:heisenberg")
    gauss = MatrixOverPol.from_element(AZ2.group_element(
        {(0, 0): (Fraction(3, 2), Fraction(-1)), (1, 1): 2, (-1, 0): (0, Fraction(1, 3))}))
    box = [(i, j) for i in range(-4, 5) for j in range(-4, 5)]
    block = MatrixOverPol(AHEIS, [
        [AHEIS.group_element({(0, 0, 0): 1, (1, 0, 0): -1}), AHEIS.zero()],
        [AHEIS.group_element({(0, 1, 0): (Fraction(1, 2), Fraction(2))}),
         AHEIS.group_element({(0, 0, 0): Fraction(-3, 4), (0, 1, 1): 1})]])
    window = conjugation_closure(AHEIS.ring, [(a, b, c) for a in range(-1, 3)
                                              for b in range(-1, 2) for c in range(0, 3)])
    return [kernel_dim_estimate(T, F, side=side).to_json()
            for T, F in ((gauss, box), (block, window)) for side in ("right", "left")]


def render(case: str, workdir: Path) -> str:
    """The canonical JSON text of one case."""
    if case == "haar_report":
        AZ = algebra_for("group:Z")
        a = AZ.group_element({0: (Fraction(1, 3), Fraction(-2, 7)), 4: 2, -1: 1})
        report = haar_approx_sequence(a, group_quotient_tower(AZ, [2, 4, 8]))
        return canonical_dumps(report.to_json())
    if case == "kernel_dim_windows":
        return canonical_dumps(_window_estimates())
    paths = {}
    for stem, element in _inputs().items():
        path = workdir / f"{stem}.json"
        path.write_text(dump_element(element))
        paths[stem] = str(path)
    out = workdir / "out.json"
    main([arg.format(**paths) for arg in CLI_CASES[case]] + ["--out", str(out)])
    return out.read_text()


@pytest.mark.parametrize("case", CASES)
def test_canonical_json_matches_golden(case, tmp_path):
    assert render(case, tmp_path).encode() == (GOLDEN_DIR / f"{case}.json").read_bytes()


_WITHOUT_SYMPY_OR_NUMPY = """
import sys
import folnerlab
from folnerlab.cli import main
from folnerlab.scalars import EXACT, QQi
wide = {(k, k + d): QQi(1 - 2 * d) for k in range(40) for d in (0, 1)}
M = folnerlab.ScalarMatrix.from_entries(wide, (40, 41), EXACT)
assert folnerlab.rank_nullity(M) == (40, 1)
main(sys.argv[1:])
assert "sympy" not in sys.modules, "sympy was imported"
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_exact_routes_import_neither_sympy_nor_numpy(tmp_path):
    # sympy is the tests' reference only and numpy serves the float SVD only:
    # the library's RREF and a CLI case that reaches it import neither
    case = "zero_divisor_certificate"
    stem = "zd"
    path = tmp_path / f"{stem}.json"
    path.write_text(dump_element(_inputs()[stem]))
    out = tmp_path / "out.json"
    argv = [arg.format(**{stem: str(path)}) for arg in CLI_CASES[case]] + ["--out", str(out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SYMPY_OR_NUMPY, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN_DIR / f"{case}.json").read_bytes()


def test_no_stale_golden_files():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == CASES


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.json"):
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (GOLDEN_DIR / f"{case}.json").write_bytes(render(case, Path(tmp)).encode())
    print(f"wrote {len(CASES)} files to {GOLDEN_DIR}")
