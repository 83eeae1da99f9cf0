"""Command-line entry point.

One executable, six subcommands, deterministic JSON reports: identical
arguments and input files always produce byte-identical report bodies.
Exit code 0 means every check passed, 1 means a verification verdict
failed (the report names it), 2 means invalid input or arguments.
Timestamps never enter the report body; a metadata line goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from .operators import (
    DEFAULT_TOL,
    DimensionMismatchError,
    ToleranceConfig,
    numerical_rank,
    operator_from_jsonable,
    operator_to_jsonable,
    operators_from_jsonable,
    stacked_coordinates,
    tolerance_to_jsonable,
)
from .effects import (
    DensityOperator,
    MicPom,
    effect_checks,
    pom_from_jsonable,
    random_density,
    random_mic_pom,
    random_onb,
)
from .augmented import (
    augmented_basis_from_jsonable,
    augmented_basis_from_onb,
    augmented_basis_to_jsonable,
    validate_augmented,
)
from .cones import (
    CertificateError,
    certificate_from_jsonable,
    certificate_to_jsonable,
    intersection_span_certificate,
    verify_certificate,
)
from .frames import BornFrame, check_additivity, frame_from_jsonable, reconstruct_density
from .cauchy import (
    ExtensionView,
    QSqrt2Additive,
    as_fraction,
    check_linear,
    fraction_str,
    grid_from_unit,
    model_from_jsonable,
    unboundedness_witness,
)

_MIC_SEED_OFFSET = 1000003
_CONE_MIC_SEED_OFFSET = 7919
_TEST_SET_SEED = 1234
_TEST_SET_COUNT = 200


def _tolerances(args) -> ToleranceConfig:
    residual = getattr(args, "tol_residual", None)
    if residual is None:
        return DEFAULT_TOL
    return ToleranceConfig(residual=float(residual))


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(report: dict, args) -> None:
    """Write the report as strict JSON; a non-finite number raises ValueError."""
    if getattr(args, "pretty", False):
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (report, ok)
# ---------------------------------------------------------------------------

def _cmd_reconstruct(args) -> tuple[dict, bool]:
    tol = _tolerances(args)
    d = args.dim
    if args.state:
        rho = DensityOperator(operator_from_jsonable(_load_json(args.state)), tol)
        state_source = "file"
    else:
        rho = random_density(d, args.seed, tol)
        state_source = "generated"
    if args.mic:
        mic = MicPom(pom_from_jsonable(_load_json(args.mic), tol), tol)
        mic_source = "file"
    else:
        mic = random_mic_pom(d, args.seed + _MIC_SEED_OFFSET, tol)
        mic_source = "generated"
    if rho.dim != d or mic.dim != d:
        raise ValueError("state or MIC-POM dimension disagrees with --dim")
    report = reconstruct_density(
        BornFrame(rho), mic, tol=tol,
        test_count=_TEST_SET_COUNT, test_seed=_TEST_SET_SEED,
    )
    distance = float(np.linalg.norm(report.rho_hat.mat - rho.mat))
    body = {
        "subcommand": "reconstruct",
        "dim": d,
        "seed": args.seed,
        "state_source": state_source,
        "mic_source": mic_source,
        "trace": report.trace,
        "min_eigenvalue": report.min_eigenvalue,
        "max_deviation": report.max_deviation,
        "state_distance": distance,
        "rho_hat": operator_to_jsonable(report.rho_hat),
        "test_effects": {"count": _TEST_SET_COUNT, "seed": _TEST_SET_SEED},
        "tolerances": tolerance_to_jsonable(tol),
        "verdict": "pass" if report.verdict else "fail",
    }
    return body, report.verdict


def _cmd_certify_cone(args) -> tuple[dict, bool]:
    tol = _tolerances(args)
    if args.verify:
        try:
            cert = certificate_from_jsonable(_load_json(args.verify))
            used = cert.tol
            if args.tol_residual is not None:
                used = dataclasses.replace(cert.tol, residual=args.tol_residual)
            report = verify_certificate(cert, used)
            body = {
                "subcommand": "certify-cone",
                "mode": "verify",
                "verdict": "pass" if report.passed else "fail",
                "rank": report.rank,
                "failures": list(report.failures),
                "max_membership_residual": report.max_membership_residual,
                "min_coefficient": report.min_coefficient,
                "witness_count": report.witness_count,
                "tolerances": tolerance_to_jsonable(used),
            }
            return body, report.passed
        except CertificateError as exc:
            body = {
                "subcommand": "certify-cone",
                "mode": "verify",
                "verdict": "fail",
                "failures": [str(exc)],
                "tolerances": tolerance_to_jsonable(tol),
            }
            return body, False
    if args.dim is None or args.seed is None:
        raise ValueError("certificate generation needs --dim and --seed")
    d = args.dim
    basis = augmented_basis_from_onb(random_onb(d, args.seed), tol=tol)
    mic = random_mic_pom(d, args.seed + _CONE_MIC_SEED_OFFSET, tol)
    try:
        cert = intersection_span_certificate(
            basis, mic, epsilon=args.epsilon, seed=args.seed, tol=tol
        )
    except CertificateError as exc:
        body = {
            "subcommand": "certify-cone",
            "mode": "generate",
            "dim": d,
            "seed": args.seed,
            "verdict": "fail",
            "failed_stage": str(exc),
            "tolerances": tolerance_to_jsonable(tol),
        }
        return body, False
    body = {"subcommand": "certify-cone", "mode": "generate", "seed": args.seed,
            "verdict": "pass"}
    body.update(certificate_to_jsonable(cert))
    return body, True


def _cmd_augbasis(args) -> tuple[dict, bool]:
    tol = _tolerances(args)
    d = args.dim
    if args.seed is None:
        onb = np.eye(d, dtype=np.complex128)
    else:
        onb = random_onb(d, args.seed)
    basis = augmented_basis_from_onb(onb, tol=tol)
    report = validate_augmented(basis, tol)
    body = {
        "subcommand": "augbasis",
        "dim": d,
        "seed": args.seed,
        **augmented_basis_to_jsonable(basis),
        "completion": operator_to_jsonable(basis.completion.op),
        "sum_identity_gap": report.sum_identity_gap,
        "validation": {
            name: {"passed": res.passed, "witness": res.witness, "detail": res.detail}
            for name, res in report.conditions.items()
        },
        "tolerances": tolerance_to_jsonable(tol),
        "verdict": "pass" if report.passed else "fail",
    }
    return body, report.passed


def _cmd_verify_frame(args) -> tuple[dict, bool]:
    tol = _tolerances(args)
    frame = frame_from_jsonable(_load_json(args.frame), tol)
    report = check_additivity(frame, trials=args.trials, seed=args.seed, tol=tol)
    if report.max_violation > tol.residual:
        violated = "additivity"
    elif report.identity_deviation > tol.residual:
        violated = "identity-normalization"
    else:
        violated = None
    body = {
        "subcommand": "verify-frame",
        "kind": frame.kind,
        "dim": frame.dim,
        "trials": args.trials,
        "seed": args.seed,
        "max_violation": report.max_violation,
        "identity_deviation": report.identity_deviation,
        "violated": violated,
        "tolerances": tolerance_to_jsonable(tol),
        "verdict": "pass" if report.passed else "fail",
    }
    return body, report.passed


def _cmd_cauchy(args) -> tuple[dict, bool]:
    if args.mode == "grid":
        grid = grid_from_unit(as_fraction(args.a), args.n, as_fraction(args.v))
        result = check_linear(grid)
        body = {
            "subcommand": "cauchy",
            "mode": "grid",
            "a": fraction_str(grid.a),
            "n": grid.n,
            "v": fraction_str(as_fraction(args.v)),
            "is_linear": result.is_linear,
            "slope": fraction_str(result.slope),
            "f_a": fraction_str(grid.values[grid.n]),
            "verdict": "pass" if result.is_linear else "fail",
        }
        return body, result.is_linear
    if args.mode == "witness":
        model = QSqrt2Additive(as_fraction(args.alpha), as_fraction(args.beta))
        result = unboundedness_witness(
            model, as_fraction(args.bound), as_fraction(args.interval)
        )
        body = {
            "subcommand": "cauchy",
            "mode": "witness",
            "alpha": fraction_str(model.alpha),
            "beta": fraction_str(model.beta),
            "bound": fraction_str(as_fraction(args.bound)),
            "interval": fraction_str(as_fraction(args.interval)),
            "p": fraction_str(result.x.p),
            "q": fraction_str(result.x.q),
            "x_approx": result.x.approx(),
            "value": fraction_str(result.value),
            "steps": result.steps,
            "verdict": "pass",
        }
        return body, True
    if args.mode == "extend":
        model = model_from_jsonable(_load_json(args.infile))
        view = ExtensionView(model)
        x = as_fraction(args.x)
        n_used = args.n if args.n is not None else view.minimal_modulus(abs(x))
        body = {
            "subcommand": "cauchy",
            "mode": "extend",
            "x": fraction_str(x),
            "n_used": n_used,
            "f_plus": fraction_str(view.f_plus(x, args.n)) if x >= 0 else None,
            "f_real": fraction_str(view.f_real(x, args.n)),
            "verdict": "pass",
        }
        return body, True
    raise ValueError(f"unknown cauchy mode {args.mode!r}")


def _validate_pom_like(mats, tol: ToleranceConfig, need_rank: bool) -> tuple[dict, str | None]:
    d = mats.shape[-1]
    details: dict = {"dim": d, "count": len(mats)}
    if len(mats) < 2:
        return details, "size"
    for check in effect_checks(mats, tol):
        if not check.ok:
            details["offending_eigenvalue"] = check.witness
            return details, "effect-spectrum"
    dev = float(np.linalg.norm(mats.sum(axis=0) - np.eye(d)))
    details["sum_deviation"] = dev
    if dev > tol.residual:
        return details, "sum-to-identity"
    if need_rank:
        if len(mats) != d * d:
            return details, "element-count"
        svals = np.linalg.svd(stacked_coordinates(mats), compute_uv=False)
        details["rank"] = numerical_rank(svals, tol)
        if details["rank"] != d * d:
            return details, "linear-independence"
    return details, None


def _cmd_validate(args) -> tuple[dict, bool]:
    tol = _tolerances(args)
    payload = _load_json(args.infile)
    violated: str | None = None
    details: dict = {}
    if args.kind == "operator":
        op = operator_from_jsonable(payload)
        details = {"dim": op.dim, "trace": op.trace()}
    elif args.kind in ("pom", "mic-pom"):
        if not isinstance(payload, dict) or "effects" not in payload:
            raise ValueError("POM JSON must carry an 'effects' list")
        items = payload["effects"]
        if not items:
            raise ValueError("POM JSON carries no effects")
        try:
            mats = operators_from_jsonable(items)
        except DimensionMismatchError:
            details = {"dim": int(items[0]["dim"]), "count": len(items)}
            violated = "dimension-mismatch"
        else:
            details, violated = _validate_pom_like(mats, tol, need_rank=args.kind == "mic-pom")
    elif args.kind == "augmented":
        report = validate_augmented(augmented_basis_from_jsonable(payload, tol), tol)
        details = {
            name: {"passed": res.passed, "witness": res.witness}
            for name, res in report.conditions.items()
        }
        failing = [name for name, res in report.conditions.items() if not res.passed]
        violated = failing[0] if failing else None
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    body = {
        "subcommand": "validate",
        "kind": args.kind,
        "violated": violated,
        "details": details,
        "tolerances": tolerance_to_jsonable(tol),
        "verdict": "pass" if violated is None else "fail",
    }
    return body, violated is None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="effectframes",
        description="Effect-algebra pipelines with deterministic JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--pretty", action="store_true", help="indent the report")
        p.add_argument(
            "--tol-residual", type=float, default=None,
            help="override the residual tolerance (default 1e-8)",
        )

    p = sub.add_parser("reconstruct", help="recover a state from frame values on a MIC-POM")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--state", help="operator JSON file with the density operator")
    p.add_argument("--mic", help="POM JSON file with the MIC-POM")
    common(p)
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("certify-cone", help="build or re-check an intersection-span certificate")
    p.add_argument("--dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--verify", help="re-verify a serialized certificate instead")
    common(p)
    p.set_defaults(handler=_cmd_certify_cone)

    p = sub.add_parser("augbasis", help="construct and validate an augmented basis")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="random vector family; omit for the computational basis")
    common(p)
    p.set_defaults(handler=_cmd_augbasis)

    p = sub.add_parser("verify-frame", help="probe a frame function for additivity")
    p.add_argument("--frame", required=True, help="frame JSON file")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_verify_frame)

    p = sub.add_parser("cauchy", help="exact additive-function tooling")
    cauchy_sub = p.add_subparsers(dest="mode", required=True)

    pg = cauchy_sub.add_parser("grid", help="build a grid table and check linearity")
    pg.add_argument("--a", required=True, help="interval endpoint, 'p/q'")
    pg.add_argument("--n", type=int, required=True, help="number of grid steps")
    pg.add_argument("--v", required=True, help="value at a/n, 'p/q'")
    common(pg)
    pg.set_defaults(handler=_cmd_cauchy)

    pw = cauchy_sub.add_parser("witness", help="unboundedness witness for the quadratic model")
    pw.add_argument("--alpha", required=True, help="'p/q'")
    pw.add_argument("--beta", required=True, help="'p/q'")
    pw.add_argument("--bound", required=True, help="'p/q'")
    pw.add_argument("--interval", default="1/1", help="search inside (0, a], 'p/q'")
    common(pw)
    pw.set_defaults(handler=_cmd_cauchy)

    pe = cauchy_sub.add_parser("extend", help="evaluate the line extension of a model file")
    pe.add_argument("--in", dest="infile", required=True, help="model JSON file")
    pe.add_argument("--x", required=True, help="evaluation point, 'p/q'")
    pe.add_argument("--n", type=int, default=None, help="override the extension modulus")
    common(pe)
    pe.set_defaults(handler=_cmd_cauchy)

    p = sub.add_parser("validate", help="check invariants of a serialized object")
    p.add_argument("--in", dest="infile", required=True, help="input JSON file")
    p.add_argument(
        "--kind", choices=("pom", "mic-pom", "augmented", "operator"), default="pom"
    )
    common(p)
    p.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.monotonic()
    try:
        report, ok = args.handler(args)
        _emit(report, args)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    elapsed = time.monotonic() - started
    print(f"# {args.command} finished in {elapsed:.3f}s at {stamp}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
