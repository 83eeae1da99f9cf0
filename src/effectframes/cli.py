"""Command-line entry point.

One executable, six subcommands, deterministic JSON reports: identical
arguments and input files always produce byte-identical report bodies.
Exit code 0 means every check passed, 1 means a verification verdict
failed (the report names it) or a search or solver gave up (an `error:`
line on stderr names it), 2 means invalid input or arguments.
Timestamps never enter the report body; a metadata line goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from functools import lru_cache
from typing import TYPE_CHECKING

# Only the exact half is imported with the CLI.  The numerical modules load
# numpy, so each numerical handler imports what it uses when it is called
# (after the first call, a lookup in sys.modules).
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

if TYPE_CHECKING:
    from .operators import ToleranceConfig

_MIC_SEED_OFFSET = 1000003
_CONE_MIC_SEED_OFFSET = 7919


def _tolerances(args) -> ToleranceConfig:
    from .operators import DEFAULT_TOL, ToleranceConfig

    residual = args.tol_residual
    if residual is None:
        return DEFAULT_TOL
    # psd_slack may not exceed the residual: a smaller positive X lowers it too.
    slack = min(DEFAULT_TOL.psd_slack, residual) if residual > 0 else DEFAULT_TOL.psd_slack
    return ToleranceConfig(residual=residual, psd_slack=slack)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(report: dict, args) -> None:
    """Write the report as strict JSON; a non-finite number raises ValueError.

    An existing `--out` file is rewritten in place: opened without
    truncation, written, then cut to the written length, which is much
    cheaper than truncating it to zero first on a file system that discards
    freed blocks.  Only a regular file is cut, so `--out /dev/null` works.
    Neither way of writing is atomic: a reader, or a crash, during the
    write can see a file that is partly the old report.
    """
    if getattr(args, "pretty", False):
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
    out = getattr(args, "out", None)
    if out:
        with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write((text + "\n").encode("utf-8"))
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (report, ok); `main` adds the report's
# subcommand and its verdict, "pass" exactly when ok.  A numerical handler
# also gets the run's tolerances from `main`, which reports them.
# ---------------------------------------------------------------------------

def _generation_failed(args, **named) -> tuple[dict, bool]:
    """The fail report of a generated object that fails a check at the run's tolerances."""
    return {"dim": getattr(args, "dim", None), "seed": args.seed, **named}, False


def _cmd_reconstruct(args, tol: ToleranceConfig) -> tuple[dict, bool]:
    from .effects import (
        DensityOperator,
        GenerationRetryError,
        MicPom,
        NotADensityError,
        pom_stack_from_jsonable,
        random_density,
        random_mic_pom,
    )
    from .frames import TEST_EFFECT_COUNT, TEST_EFFECT_SEED, BornFrame, reconstruct_density
    from .operators import hs_distance, operator_from_jsonable, operator_to_jsonable

    d = args.dim
    # An object the library generated that fails its own check at the
    # caller's tolerances is a verdict; a file that fails is invalid input.
    if args.state:
        rho = DensityOperator(operator_from_jsonable(_load_json(args.state)), tol)
        state_source = "file"
    else:
        try:
            rho = random_density(d, args.seed, tol)
        except NotADensityError as exc:
            return _generation_failed(args, failed_stage=f"stage state: {exc}")
        state_source = "generated"
    if args.mic:
        mic = MicPom(pom_stack_from_jsonable(_load_json(args.mic)), tol)
        mic_source = "file"
    else:
        try:
            mic = random_mic_pom(d, args.seed + _MIC_SEED_OFFSET, tol)
        except GenerationRetryError as exc:
            if exc.__cause__ is None:  # no failed check to report: the search gave up
                raise
            stage = f"stage mic-pom: {exc}; last attempt: {exc.__cause__}"
            return _generation_failed(args, failed_stage=stage)
        mic_source = "generated"
    if rho.dim != d or mic.dim != d:
        raise ValueError("state or MIC-POM dimension disagrees with --dim")
    report = reconstruct_density(BornFrame(rho), mic, tol)
    distance = hs_distance(report.rho_hat, rho.op)
    body = {
        "dim": d,
        "seed": args.seed,
        "state_source": state_source,
        "mic_source": mic_source,
        "trace": report.trace,
        "min_eigenvalue": report.min_eigenvalue,
        "max_deviation": report.max_deviation,
        "state_distance": distance,
        "rho_hat": operator_to_jsonable(report.rho_hat),
        "test_effects": {"count": TEST_EFFECT_COUNT, "seed": TEST_EFFECT_SEED},
    }
    return body, report.verdict


def _cmd_certify_cone(args, tol: ToleranceConfig) -> tuple[dict, bool]:
    from .augmented import NotOrthonormalError, augmented_basis_from_onb
    from .cones import (
        CertificateError,
        certificate_from_jsonable,
        certificate_to_jsonable,
        intersection_span_certificate,
        verify_certificate,
    )
    from .effects import random_mic_pom, random_onb

    if args.verify:
        given = [f"--{name}" for name in ("dim", "seed", "epsilon")
                 if getattr(args, name) is not None]
        if given:
            raise ValueError(f"--verify takes no generation options, got {', '.join(given)}")
        # Judged by the caller's tolerances, never by those in the file.
        try:
            cert = certificate_from_jsonable(_load_json(args.verify), tol)
            report = verify_certificate(cert, tol)
            body = {
                "mode": "verify",
                "rank": report.rank,
                "failures": list(report.failures),
                "max_membership_residual": report.max_membership_residual,
                "min_coefficient": report.min_coefficient,
                "witness_count": report.witness_count,
            }
            return body, report.passed
        except CertificateError as exc:
            return {"mode": "verify", "failures": [str(exc)]}, False
    if args.dim is None or args.seed is None:
        raise ValueError("certificate generation needs --dim and --seed")
    d = args.dim
    # A generated vector family that fails its own check at the caller's
    # tolerances is a verdict, not invalid input.
    try:
        basis = augmented_basis_from_onb(random_onb(d, args.seed), tol=tol)
        mic = random_mic_pom(d, args.seed + _CONE_MIC_SEED_OFFSET, tol)
        cert = intersection_span_certificate(basis, mic, epsilon=args.epsilon, tol=tol)
    except NotOrthonormalError as exc:
        stage = f"stage onb-orthonormal: {exc}"
        return _generation_failed(args, mode="generate", failed_stage=stage)
    except CertificateError as exc:
        return _generation_failed(args, mode="generate", failed_stage=str(exc))
    body = {"mode": "generate", "seed": args.seed}
    body.update(certificate_to_jsonable(cert))
    return body, True


def _cmd_augbasis(args, tol: ToleranceConfig) -> tuple[dict, bool]:
    import numpy as np

    from .augmented import (
        NotOrthonormalError,
        augmented_basis_from_onb,
        augmented_basis_to_jsonable,
        validate_augmented,
    )
    from .effects import random_onb
    from .operators import operator_to_jsonable

    d = args.dim
    if args.seed is None:
        onb = np.eye(d, dtype=np.complex128)
    else:
        onb = random_onb(d, args.seed)
    try:
        basis = augmented_basis_from_onb(onb, tol=tol)
    except NotOrthonormalError as exc:  # the library's own family, not the caller's input
        return _generation_failed(args, violated="onb-orthonormal", detail=str(exc))
    report = validate_augmented(basis, tol)
    body = {
        "dim": d,
        "seed": args.seed,
        **augmented_basis_to_jsonable(basis),
        "completion": operator_to_jsonable(basis.completion),
        "sum_identity_gap": report.sum_identity_gap,
        "validation": {
            name: {"passed": res.passed, "witness": res.witness, "detail": res.detail}
            for name, res in report.conditions.items()
        },
    }
    return body, report.passed


def _cmd_verify_frame(args, tol: ToleranceConfig) -> tuple[dict, bool]:
    from .effects import NotAnEffectError
    from .frames import check_additivity, frame_from_jsonable

    # A frame file that fails its own check at the caller's tolerances is
    # invalid input; a sampled pair that fails is a verdict.
    frame = frame_from_jsonable(_load_json(args.frame), tol)
    try:
        report = check_additivity(frame, trials=args.trials, seed=args.seed, tol=tol)
    except NotAnEffectError as exc:
        return _generation_failed(args, kind=frame.kind, dim=frame.dim, trials=args.trials,
                                  failed_stage=f"stage coexisting-pair: {exc}")
    body = {
        "kind": frame.kind,
        "dim": frame.dim,
        "trials": args.trials,
        "seed": args.seed,
        "max_violation": report.max_violation,
        "identity_deviation": report.identity_deviation,
        "violated": report.violated,
    }
    return body, report.passed


def _cmd_cauchy(args) -> tuple[dict, bool]:
    if args.mode == "grid":
        grid = grid_from_unit(as_fraction(args.a), args.n, as_fraction(args.v))
        result = check_linear(grid)
        body = {
            "mode": "grid",
            "a": fraction_str(grid.a),
            "n": grid.n,
            "v": fraction_str(as_fraction(args.v)),
            "is_linear": result.is_linear,
            "slope": fraction_str(result.slope),
            "f_a": fraction_str(grid.values[grid.n]),
        }
        return body, result.is_linear
    if args.mode == "witness":
        model = QSqrt2Additive(as_fraction(args.alpha), as_fraction(args.beta))
        result = unboundedness_witness(
            model, as_fraction(args.bound), as_fraction(args.interval)
        )
        body = {
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
        }
        return body, True
    # args.mode == "extend", the one mode left that argparse admits.
    model = model_from_jsonable(_load_json(args.infile))
    view = ExtensionView(model)
    x = as_fraction(args.x)
    n_used = args.n if args.n is not None else view.minimal_modulus(abs(x))
    body = {
        "mode": "extend",
        "x": fraction_str(x),
        "n_used": n_used,
        "f_plus": fraction_str(view.f_plus(x, args.n)) if x >= 0 else None,
        "f_real": fraction_str(view.f_real(x, args.n)),
    }
    return body, True


def _cmd_validate(args, tol: ToleranceConfig) -> tuple[dict, bool]:
    from .augmented import augmented_basis_from_jsonable, validate_augmented
    from .effects import check_pom, pom_stack_from_jsonable
    from .operators import DimensionMismatchError, operator_from_jsonable

    payload = _load_json(args.infile)
    violated: str | None = None
    details: dict = {}
    if args.kind == "operator":
        op = operator_from_jsonable(payload)
        details = {"dim": op.dim, "trace": op.trace()}
    elif args.kind in ("pom", "mic-pom"):
        try:
            mats = pom_stack_from_jsonable(payload)
        except DimensionMismatchError:  # only an 'effects' list can mix dimensions
            items = payload["effects"]
            details = {"dim": int(items[0]["dim"]), "count": len(items)}
            violated = "dimension-mismatch"
        else:
            details, violated = check_pom(mats, tol, mic=args.kind == "mic-pom")[:2]
    else:  # "augmented", the one kind left that argparse admits
        report = validate_augmented(augmented_basis_from_jsonable(payload, tol), tol)
        details = {
            name: {"passed": res.passed, "witness": res.witness}
            for name, res in report.conditions.items()
        }
        failing = [name for name, res in report.conditions.items() if not res.passed]
        violated = failing[0] if failing else None
    body = {
        "kind": args.kind,
        "violated": violated,
        "details": details,
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

    def common(p: argparse.ArgumentParser, numerical: bool = True) -> None:
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--pretty", action="store_true", help="indent the report")
        if numerical:  # the exact `cauchy` tooling has no tolerance
            p.add_argument(
                "--tol-residual", type=float, default=None,
                help="override the residual tolerance (default 1e-8); "
                     "psd_slack becomes min(1e-9, this value)",
            )

    p = sub.add_parser("reconstruct", help="recover a state from frame values on a MIC-POM")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--state", help="operator JSON file with the density operator")
    p.add_argument("--mic", help="POM JSON file with the MIC-POM")
    common(p)
    p.set_defaults(handler=_cmd_reconstruct, parser=p)

    p = sub.add_parser("certify-cone", help="build or re-check an intersection-span certificate")
    p.add_argument("--dim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--verify", help="re-verify a serialized certificate instead")
    common(p)
    p.set_defaults(handler=_cmd_certify_cone, parser=p)

    p = sub.add_parser("augbasis", help="construct and validate an augmented basis")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="random vector family; omit for the computational basis")
    common(p)
    p.set_defaults(handler=_cmd_augbasis, parser=p)

    p = sub.add_parser("verify-frame", help="probe a frame function for additivity")
    p.add_argument("--frame", required=True, help="frame JSON file")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(handler=_cmd_verify_frame, parser=p)

    p = sub.add_parser("cauchy", help="exact additive-function tooling")
    cauchy_sub = p.add_subparsers(dest="mode", required=True)

    pg = cauchy_sub.add_parser("grid", help="build a grid table and check linearity")
    pg.add_argument("--a", required=True, help="interval endpoint, 'p/q'")
    pg.add_argument("--n", type=int, required=True, help="number of grid steps")
    pg.add_argument("--v", required=True, help="value at a/n, 'p/q'")
    common(pg, numerical=False)
    pg.set_defaults(handler=_cmd_cauchy, parser=pg)

    pw = cauchy_sub.add_parser("witness", help="unboundedness witness for the quadratic model")
    pw.add_argument("--alpha", required=True, help="'p/q'")
    pw.add_argument("--beta", required=True, help="'p/q'")
    pw.add_argument("--bound", required=True, help="'p/q'")
    pw.add_argument("--interval", default="1/1", help="search inside (0, a], 'p/q'")
    common(pw, numerical=False)
    pw.set_defaults(handler=_cmd_cauchy, parser=pw)

    pe = cauchy_sub.add_parser("extend", help="evaluate the line extension of a model file")
    pe.add_argument("--in", dest="infile", required=True, help="model JSON file")
    pe.add_argument("--x", required=True, help="evaluation point, 'p/q'")
    pe.add_argument("--n", type=int, default=None, help="override the extension modulus")
    common(pe, numerical=False)
    pe.set_defaults(handler=_cmd_cauchy, parser=pe)

    p = sub.add_parser("validate", help="check invariants of a serialized object")
    p.add_argument("--in", dest="infile", required=True, help="input JSON file")
    p.add_argument(
        "--kind", choices=("pom", "mic-pom", "augmented", "operator"), default="pom"
    )
    common(p)
    p.set_defaults(handler=_cmd_validate, parser=p)

    return parser


def main(argv=None) -> int:
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:  # refused by the chosen mode's parser, so its usage is printed
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.monotonic()
    try:
        if "tol_residual" in args:
            from .operators import tolerance_to_jsonable

            tol = _tolerances(args)
            report, ok = args.handler(args, tol)
            report["tolerances"] = tolerance_to_jsonable(tol)
        else:
            report, ok = args.handler(args)
        report["subcommand"] = args.command
        report["verdict"] = "pass" if ok else "fail"
        _emit(report, args)
    except (ValueError, TypeError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # input too large for this machine: no check ran
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a search or solver gave up: no verdict reached
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    elapsed = time.monotonic() - started
    print(f"# {args.command} finished in {elapsed:.3f}s at {stamp}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
