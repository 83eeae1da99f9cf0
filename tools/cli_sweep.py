"""Byte-identity sweep of the CLI against an earlier revision.

    python3 tools/cli_sweep.py [--rev REV]

Runs one fixed list of `effectframes` command lines in-process against the
`src/` of this checkout and against `git archive REV src` unpacked into a
temporary directory (REV defaults to HEAD), one subprocess per side.  Both
sides read the same input files, written here with numpy; each side writes
its `--out` files into a directory of its own, and later commands of a side
read what earlier ones wrote there (generated certificates are verified,
augmented bases validated).

Every command whose stdout, `--out` bytes, exit code or standard error
differs between the sides is listed; the stderr timing line is left out,
and each side's output directory is written as {out}.  A command that
raises past `main` is recorded as its traceback's last line.  The last
output line is a JSON summary; the exit code is 0 when no command differs,
1 otherwise.  Needs git, the standard library and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures"
CERTIFICATE_FIXTURES = ("certificate_d3_compact", "certificate_d3_random_ball",
                        "certificate_d3_signed_steps")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# ---------------------------------------------------------------------------
# Input files, the same for both sides
# ---------------------------------------------------------------------------

def _operator(mat: np.ndarray) -> dict:
    """The operator wire format {"dim": d, "entries": [[[re, im], ...], ...]}."""
    return {"dim": mat.shape[0],
            "entries": [[[float(z.real), float(z.imag)] for z in row] for row in mat]}


def _density(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def _qubit_sic() -> list:
    """The tetrahedral qubit MIC-POM (I + n.sigma) / 4."""
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]]))
    r = np.sqrt(2.0)
    directions = ((0, 0, 1), (2 * r / 3, 0, -1 / 3), (-r / 3, np.sqrt(2 / 3), -1 / 3),
                  (-r / 3, -np.sqrt(2 / 3), -1 / 3))
    return [(np.eye(2) + sum(c * s for c, s in zip(n, paulis))) / 4 for n in directions]


def write_inputs(folder: Path) -> None:
    """Write every input file the command list names under {in}."""
    def put(name: str, payload) -> None:
        text = payload if isinstance(payload, str) else json.dumps(payload)
        (folder / name).write_text(text, encoding="utf-8")

    half = np.eye(2) / 2
    for d in (2, 3, 4):
        for seed in (0, 1):
            rho = _density(d, seed)
            put(f"rho{d}_{seed}.json", _operator(rho))
            put(f"born{d}_{seed}.json", {"kind": "born", "dim": d, "rho": _operator(rho)})
    put("adversarial2.json", {"kind": "adversarial-square", "dim": 2, "rho": _operator(half)})
    put("adversarial3.json", {"kind": "adversarial-square", "dim": 3,
                              "rho": _operator(_density(3, 0))})
    sic = _qubit_sic()
    put("sic.json", {"dim": 2, "effects": [_operator(e) for e in sic]})
    put("tabulated2.json", {"kind": "tabulated", "dim": 2,
                            "basis": [_operator(e) for e in sic],
                            "values": [float(np.trace(_density(2, 0) @ e).real) for e in sic]})
    # json reads NaN and Infinity: a non-finite value in a file is invalid input.
    for token in ("NaN", "Infinity"):
        tabulated = json.loads((folder / "tabulated2.json").read_text(encoding="utf-8"))
        tabulated["values"][1] = token
        put(f"tabulated2_{token}.json", json.dumps(tabulated).replace(f'"{token}"', token))
    put("pom_halves.json", {"dim": 2, "effects": [_operator(half)] * 2})
    put("pom_overfull.json", {"dim": 2, "effects": [_operator(0.55 * np.eye(2))] * 2})
    put("pom_non_effect.json", {"dim": 2, "effects": [_operator(np.diag([1.5, -0.5])),
                                                      _operator(np.diag([-0.5, 1.5]))]})
    put("pom_mixed_dims.json", {"dim": 2, "effects": [_operator(half),
                                                      _operator(np.eye(3) / 2)]})
    put("non_hermitian.json", _operator(np.array([[1, 1], [0, 1]], dtype=complex)))
    put("malformed.json", "{not json")
    put("grid.json", {"kind": "grid", "a": "1/1", "n": 10,
                      "values": [f"{7 * k}/100" for k in range(11)]})
    put("grid_broken.json", {"kind": "grid", "a": "1/1", "n": 4,
                             "values": ["0/1", "1/4", "1/2", "1/1", "1/1"]})
    put("qsqrt2.json", {"kind": "qsqrt2", "alpha": "2/1", "beta": "-3/5"})
    for name in CERTIFICATE_FIXTURES:
        put(f"{name}.json", (FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    cert = json.loads((FIXTURES / "certificate_d3_signed_steps.json").read_text(encoding="utf-8"))
    cert["memberships"][0]["augmented"]["coeffs"] = [0.0] * 9
    put("cert_tampered.json", cert)
    cert["memberships"][0]["augmented"]["coeffs"] = "zero"
    put("cert_malformed.json", cert)
    cert = json.loads((FIXTURES / "certificate_d3_compact.json").read_text(encoding="utf-8"))
    cert["augmented"]["onb"][1][0][1] = "NaN"
    put("cert_onb_nan.json", json.dumps(cert).replace('"NaN"', "NaN"))
    # Numbers too large to convert: json reads 1e400 as inf, which int()
    # refuses, and float() refuses a 400-digit integer.
    put("op_too_large.json", '{"dim": 1e400, "entries": []}')
    put("pom_too_large.json", '{"dim": 1e400, "rows": [[1, 0, 0, 0]]}')
    put("grid_too_large.json", '{"kind": "grid", "a": "1/1", "n": 1e400, "values": ["0/1"]}')
    for key, number in (("rank", "1e400"), ("epsilon", "9" * 400)):
        cert = json.loads((FIXTURES / "certificate_d3_signed_steps.json").read_text(encoding="utf-8"))
        cert[key] = "TOO_LARGE"
        put(f"cert_{key}_too_large.json", json.dumps(cert).replace('"TOO_LARGE"', number))


# ---------------------------------------------------------------------------
# The command list: {in} is the input folder, {out} the side's own folder
# ---------------------------------------------------------------------------

def commands() -> list:
    cmds = []
    add = cmds.append
    for d in (2, 3, 4):
        for seed in range(8):
            add(["reconstruct", "--dim", str(d), "--seed", str(seed)])
        for seed in (0, 1):
            add(["reconstruct", "--dim", str(d), "--seed", "5",
                 "--state", f"{{in}}/rho{d}_{seed}.json"])
        add(["reconstruct", "--dim", str(d), "--seed", "3", "--out", f"{{out}}/rec{d}.json"])
        add(["reconstruct", "--dim", str(d), "--seed", "3", "--pretty"])
        add(["reconstruct", "--dim", str(d), "--seed", "1", "--tol-residual", "1e-16"])
    add(["reconstruct", "--dim", "2", "--seed", "1", "--mic", "{in}/sic.json"])
    add(["reconstruct", "--dim", "2", "--seed", "1", "--state", "{in}/rho2_1.json",
         "--mic", "{in}/sic.json", "--tol-residual", "1e-6"])
    add(["reconstruct", "--dim", "3", "--seed", "1", "--state", "{in}/rho2_0.json"])
    add(["reconstruct", "--dim", "2", "--seed", "1", "--state", "{in}/malformed.json"])
    add(["reconstruct", "--dim", "2"])

    for d in (2, 3, 4, 5):
        for seed in range(6):
            cert = f"{{out}}/cert{d}_{seed}.json"
            add(["certify-cone", "--dim", str(d), "--seed", str(seed), "--out", cert])
            add(["certify-cone", "--verify", cert])
        add(["certify-cone", "--dim", str(d), "--seed", "7"])
        add(["certify-cone", "--verify", f"{{out}}/cert{d}_0.json", "--tol-residual", "1e-14"])
    # One reused path, so a shorter report rewrites a longer one in place.
    for d in (5, 2):
        add(["certify-cone", "--dim", str(d), "--seed", "1", "--out", "{out}/reused.json"])
    for epsilon in ("1e-300", "10", "0.001", "1e-12", "1e-310", "5e-324", "0", "-1", "nan", "inf"):
        add(["certify-cone", "--dim", "3", "--seed", "1", "--epsilon", epsilon])
    for name in CERTIFICATE_FIXTURES:
        add(["certify-cone", "--verify", f"{{in}}/{name}.json"])
        add(["certify-cone", "--verify", f"{{in}}/{name}.json",
             "--out", f"{{out}}/{name}.verify.json"])
        add(["certify-cone", "--verify", f"{{in}}/{name}.json", "--pretty"])
    add(["certify-cone", "--verify", "{in}/cert_tampered.json"])
    add(["certify-cone", "--verify", "{in}/cert_malformed.json"])
    add(["certify-cone", "--verify", "{in}/cert_onb_nan.json"])
    add(["certify-cone", "--verify", "{in}/malformed.json"])
    add(["certify-cone", "--verify", "{in}/missing.json"])
    add(["certify-cone", "--dim", "3", "--seed", "1", "--tol-residual", "1e-17"])
    add(["certify-cone", "--dim", "3"])

    for d in (2, 3, 4, 5):
        add(["augbasis", "--dim", str(d), "--out", f"{{out}}/aug{d}.json"])
        add(["validate", "--kind", "augmented", "--in", f"{{out}}/aug{d}.json"])
        for seed in range(3):
            add(["augbasis", "--dim", str(d), "--seed", str(seed)])
        add(["augbasis", "--dim", str(d), "--seed", "4", "--pretty"])
    add(["augbasis", "--dim", "2", "--seed", "22", "--tol-residual", "2e-16"])
    add(["augbasis", "--dim", "3", "--seed", "1", "--tol-residual", "1e-17"])
    add(["augbasis", "--dim", "0"])

    for d in (2, 3, 4):
        for seed in (0, 1):
            add(["verify-frame", "--frame", f"{{in}}/born{d}_{seed}.json", "--trials", "30",
                 "--seed", str(seed)])
    for tol in ("1e-16", "1e-17"):
        add(["verify-frame", "--frame", "{in}/born2_0.json", "--tol-residual", tol])
    add(["verify-frame", "--frame", "{in}/adversarial2.json"])
    add(["verify-frame", "--frame", "{in}/adversarial3.json", "--trials", "10", "--pretty"])
    add(["verify-frame", "--frame", "{in}/tabulated2.json", "--out", "{out}/tabulated.json"])
    add(["verify-frame", "--frame", "{in}/sic.json"])
    for token in ("NaN", "Infinity"):
        add(["verify-frame", "--frame", f"{{in}}/tabulated2_{token}.json"])

    for a, n, v in (("1/1", "10", "7/100"), ("3/2", "6", "-1/3"), ("5/1", "1", "0/1"),
                    ("1/1", "400", "22/7"), ("7/3", "12", "1/1000000")):
        add(["cauchy", "grid", "--a", a, "--n", n, f"--v={v}"])
    add(["cauchy", "grid", "--a", "1/1", "--n", "4", "--v", "1/8", "--out", "{out}/grid.json"])
    add(["cauchy", "grid", "--a", "0/1", "--n", "4", "--v", "1/8"])
    add(["cauchy", "grid", "--a", "1/0", "--n", "4", "--v", "1/8"])
    for alpha, beta in (("1/1", "0/1"), ("0/1", "1/1"), ("-2/3", "5/7"), ("3/1", "-2/1")):
        for bound in ("10/1", "1000000/1", "-5/1"):
            add(["cauchy", "witness", f"--alpha={alpha}", f"--beta={beta}", f"--bound={bound}"])
    add(["cauchy", "witness", "--alpha", "1/1", "--beta", "0/1", "--bound", "10/1",
         "--interval", "1/1000000000000"])
    add(["cauchy", "witness", "--alpha", "0/1", "--beta", "0/1", "--bound", "1/1"])
    add(["cauchy", "witness", "--alpha", "0/1", "--beta", "0/1", "--bound=-1/1"])
    # Long walks: 1,306 and 5,225 steps to the bound, 391 and 5,615 inside
    # (0, 1/10**300] and (0, 1/10**4299], the smallest interval whose
    # denominator a rational argument can spell.  At 2/11 and 2/9, 1/a lies
    # in the entry bracket of the first and of the second Pell family.
    for digits in (1000, 4000):
        add(["cauchy", "witness", "--alpha", "1/1", "--beta", "0/1",
             "--bound", "1" + "0" * digits + "/1"])
    for interval in ("1/1" + "0" * 300, "1/1" + "0" * 4299, "2/11", "2/9"):
        add(["cauchy", "witness", "--alpha", "1/1", "--beta", "0/1", "--bound", "10/1",
             "--interval", interval])
    for x in ("5/2", "-5/2", "0/1", "7/10", "1000000/1", "1/3"):
        add(["cauchy", "extend", "--in", "{in}/grid.json", f"--x={x}"])
    add(["cauchy", "extend", "--in", "{in}/grid.json", "--x", "5/2", "--n", "25"])
    add(["cauchy", "extend", "--in", "{in}/grid.json", "--x", "5/2", "--n", "3"])
    # At 5/2 the grid's least modulus is 5, and 4 does not divide its index 25.
    for n in ("5", "4"):
        add(["cauchy", "extend", "--in", "{in}/grid.json", "--x", "5/2", "--n", n])
    add(["cauchy", "extend", "--in", "{in}/grid_broken.json", "--x", "1/2"])
    for x in ("7/2", "-7/2", "1/1000", "123456789/7"):
        add(["cauchy", "extend", "--in", "{in}/qsqrt2.json", f"--x={x}"])
    add(["cauchy", "extend", "--in", "{in}/qsqrt2.json", "--x", "7/2", "--n", "1"])
    # The least modulus of 7/2 on (0, 1] is 4: one below it, at it, and at -7/2.
    for x, n in (("7/2", "3"), ("7/2", "4"), ("-7/2", "4")):
        add(["cauchy", "extend", "--in", "{in}/qsqrt2.json", f"--x={x}", "--n", n])

    for kind, name in (("pom", "sic"), ("mic-pom", "sic"), ("pom", "pom_halves"),
                       ("mic-pom", "pom_halves"), ("pom", "pom_overfull"),
                       ("pom", "pom_non_effect"), ("pom", "pom_mixed_dims"),
                       ("operator", "rho3_0"), ("operator", "non_hermitian"),
                       ("pom", "malformed"), ("augmented", "sic"), ("pom", "missing")):
        add(["validate", "--kind", kind, "--in", f"{{in}}/{name}.json"])
    add(["validate", "--in", "{in}/sic.json", "--out", "{out}/validate.json", "--pretty"])
    add(["validate", "--kind", "pom", "--in", "{in}/pom_halves.json", "--tol-residual", "1e-16"])

    add([])
    add(["--help"])
    add(["frobnicate"])
    add(["reconstruct", "--dim", "2", "--seed", "1", "--bogus"])
    add(["cauchy"])
    add(["certify-cone", "--dim", "2", "--seed", "1", "--tol-residual", "nan"])
    # Options a mode does not take, each exit 2: the exact `cauchy` modes
    # have no tolerance, and `--verify` builds nothing.
    add(["cauchy", "grid", "--a", "1/1", "--n", "4", "--v", "1/8", "--tol-residual", "nan"])
    add(["cauchy", "witness", "--alpha", "1/1", "--beta", "0/1", "--bound", "10/1",
         "--tol-residual", "1e-3"])
    add(["cauchy", "extend", "--in", "{in}/grid.json", "--x", "5/2", "--tol-residual", "1e-3"])
    for extra in (["--dim", "7", "--seed", "1", "--epsilon", "1e9"], ["--dim", "3"],
                  ["--seed", "0"], ["--epsilon", "0.01"]):
        add(["certify-cone", "--verify", "{out}/cert3_0.json", *extra])
    # Numbers too large to convert are invalid input, exit 2.
    add(["validate", "--kind", "operator", "--in", "{in}/op_too_large.json"])
    add(["validate", "--kind", "pom", "--in", "{in}/pom_too_large.json"])
    add(["reconstruct", "--dim", "2", "--seed", "1", "--mic", "{in}/pom_too_large.json"])
    add(["cauchy", "extend", "--in", "{in}/grid_too_large.json", "--x", "1/2"])
    for key in ("rank", "epsilon"):
        add(["certify-cone", "--verify", f"{{in}}/cert_{key}_too_large.json"])
    return cmds


# ---------------------------------------------------------------------------
# One side: every command in-process, against one src folder
# ---------------------------------------------------------------------------

def _is_timing_line(line: str) -> bool:
    return line.startswith("# ") and " finished in " in line


def run_side(src: str, inputs: str, out: str) -> list:
    sys.path.insert(0, src)
    from effectframes import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {cli.__file__}, not the package under {src}")
    results = []
    for template in commands():
        argv = [arg.replace("{in}", inputs).replace("{out}", out) for arg in template]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback past main is a result too
                code = "raised: " + traceback.format_exception_only(type(exc), exc)[-1].strip()
        out_bytes = None
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            out_bytes = path.read_bytes().decode("latin-1") if path.is_file() else None
        errors = [line for line in stderr.getvalue().splitlines() if not _is_timing_line(line)]
        results.append({
            "argv": template,
            "exit": code,
            "stdout": stdout.getvalue().replace(out, "{out}"),
            "out": out_bytes,
            "stderr": "\n".join(errors).replace(out, "{out}"),
        })
    return results


# ---------------------------------------------------------------------------
# Comparing the two sides
# ---------------------------------------------------------------------------

def _unpack(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest / "src"


def _side(src: Path, inputs: Path, out: Path) -> list:
    out.mkdir()
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, __file__, "--side", str(src), str(inputs), str(out)],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"side {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="revision to compare with (default HEAD)")
    parser.add_argument("--side", nargs=3, metavar=("SRC", "INPUTS", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        json.dump(run_side(*args.side), sys.stdout)
        return 0
    with tempfile.TemporaryDirectory(prefix="cli-sweep-") as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        here = _side(REPO / "src", inputs, tmp / "out-here")
        there = _side(_unpack(args.rev, tmp / "rev"), inputs, tmp / "out-rev")
    differences = 0
    for mine, theirs in zip(here, there):
        fields = [key for key in ("exit", "stdout", "out", "stderr") if mine[key] != theirs[key]]
        if fields:
            differences += 1
            print(f"DIFF {' '.join(mine['argv'])}: {', '.join(fields)}")
            for key in fields:
                print(f"  {args.rev}: {key} = {str(theirs[key])[:300]!r}")
                print(f"  checkout: {key} = {str(mine[key])[:300]!r}")
    exits = Counter(str(result["exit"]) for result in here)
    subcommands = Counter(result["argv"][0] for result in here if result["argv"])
    print(json.dumps({"rev": args.rev, "commands": len(here), "differences": differences,
                      "exit_codes": dict(sorted(exits.items())),
                      "subcommands": dict(sorted(subcommands.items()))}))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
