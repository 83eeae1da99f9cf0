import functools
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import effectframes

from effectframes import (
    POM,
    AdversarialSquareFrame,
    BornFrame,
    DensityOperator,
    MicPom,
    NotAnEffectError,
    PomIdentityError,
    SingularBasisError,
    check_pom,
    hermitian_stack,
    operators_to_rows,
    frame_to_jsonable,
    grid_from_unit,
    grid_to_jsonable,
    identity,
    certificate_from_jsonable,
    operator_to_jsonable,
    operators_to_jsonable,
    pom_to_jsonable,
    random_density,
    random_mic_pom,
    sic_mic_pom,
)
from effectframes.cli import main

from conftest import full_layout


def _full_layout_file(cert_path):
    """Rewrite a written certificate in the full layout and return its payload."""
    payload = full_layout(certificate_from_jsonable(json.loads(cert_path.read_text())))
    cert_path.write_text(json.dumps(payload))
    return payload


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reconstruct_passes(capsys):
    code, out, err = run_cli(capsys, "reconstruct", "--dim", "2", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["max_deviation"] < 1e-8
    assert report["trace"] == pytest.approx(1.0, abs=1e-10)
    assert "tolerances" in report


def test_reconstruct_deterministic_bytes(capsys):
    _, out1, _ = run_cli(capsys, "reconstruct", "--dim", "3", "--seed", "9")
    _, out2, _ = run_cli(capsys, "reconstruct", "--dim", "3", "--seed", "9")
    assert out1 == out2


def test_reconstruct_timestamp_only_on_stderr(capsys):
    code, out, err = run_cli(capsys, "reconstruct", "--dim", "2", "--seed", "4")
    assert code == 0
    assert "T" in err and "finished" in err
    # the report body itself carries no clock values
    report = json.loads(out)
    assert "timestamp" not in json.dumps(report)


def test_reconstruct_with_state_file(capsys, tmp_path):
    rho = random_density(2, 5)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(operator_to_jsonable(rho.op)))
    code, out, _ = run_cli(
        capsys, "reconstruct", "--dim", "2", "--seed", "5", "--state", str(state)
    )
    assert code == 0
    report = json.loads(out)
    assert report["state_source"] == "file"
    assert report["state_distance"] < 1e-8


def test_reconstruct_dim_mismatch_is_exit_2(capsys, tmp_path):
    rho = random_density(3, 5)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(operator_to_jsonable(rho.op)))
    code, out, err = run_cli(
        capsys, "reconstruct", "--dim", "2", "--seed", "5", "--state", str(state)
    )
    assert code == 2
    assert "error" in err


def test_certify_cone_and_verify_round_trip(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "certify-cone", "--dim", "2", "--seed", "1", "--out", str(cert_path)
    )
    assert code == 0
    stored = json.loads(cert_path.read_text())
    assert stored["rank"] == 4
    assert stored["verdict"] == "pass"

    code, out, _ = run_cli(capsys, "certify-cone", "--verify", str(cert_path))
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "verify"
    assert report["rank"] == 4


def test_certify_cone_verify_flags_tampering(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify-cone", "--dim", "2", "--seed", "2", "--out", str(cert_path))
    payload = _full_layout_file(cert_path)
    payload["memberships"][0]["augmented"]["coeffs"] = [0.0] * 4
    cert_path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "certify-cone", "--verify", str(cert_path))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["failures"]


def test_certify_cone_verify_uses_tol_residual(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify-cone", "--dim", "2", "--seed", "1", "--out", str(cert_path))
    payload = _full_layout_file(cert_path)
    # Move one stored coefficient so that its residual lands between the
    # default tolerance (1e-8) and the override (1e-5).
    payload["memberships"][0]["mic"]["coeffs"][0] += 1e-6
    cert_path.write_text(json.dumps(payload))

    code, out, _ = run_cli(capsys, "certify-cone", "--verify", str(cert_path))
    assert code == 1
    report = json.loads(out)
    assert "witness-0-mic-residual" in report["failures"]
    assert report["tolerances"] == payload["tolerances"]

    code, out, _ = run_cli(
        capsys, "certify-cone", "--verify", str(cert_path), "--tol-residual", "1e-5"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["tolerances"] == dict(payload["tolerances"], residual=1e-5)


# -- the compact certificate layout ------------------------------------------

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.mark.parametrize("name", ["certificate_d3_signed_steps", "certificate_d3_random_ball"])
def test_certify_cone_verifies_full_layout_files_unchanged(capsys, tmp_path, name):
    # Full-layout files, with witnesses one signed step from E_delta
    # (signed_steps) and drawn at random (random_ball), each committed with
    # the report the full-layout reader gave.
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "certify-cone", "--verify", str(FIXTURES / f"{name}.json"), "--out", str(out)
    )
    assert code == 0
    assert out.read_bytes() == (FIXTURES / f"{name}.verify.json").read_bytes()


def test_certify_cone_compact_file_is_under_30_percent_of_full(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys, "certify-cone", "--dim", "8", "--seed", "1", "--out", str(cert_path)
    )
    assert code == 0
    payload = json.loads(cert_path.read_text())
    assert {"witnesses", "memberships"}.isdisjoint(payload)
    assert "elements" not in payload["augmented"]
    full = dict(payload)
    full.update(full_layout(certificate_from_jsonable(payload)))
    encode = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    assert len(encode(payload)) <= 0.3 * len(encode(full))


@pytest.mark.parametrize("column", ["scaled", "repeated"])
def test_certify_cone_verify_bad_vector_family_is_a_verdict(capsys, tmp_path, column):
    # Scaled, the family is not orthonormal; repeated, the augmented family
    # derived from it would be singular.  Either way the file fails.
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify-cone", "--dim", "3", "--seed", "1", "--out", str(cert_path))
    payload = json.loads(cert_path.read_text())
    onb = np.array(payload["augmented"]["onb"])
    onb[:, 1] = 1.01 * onb[:, 1] if column == "scaled" else onb[:, 0]
    payload["augmented"]["onb"] = onb.tolist()
    cert_path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "certify-cone", "--verify", str(cert_path))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert "Gram deviation" in report["failures"][0]
    assert "Traceback" not in err


def test_certify_cone_verify_non_numeric_step_is_exit_2(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify-cone", "--dim", "2", "--seed", "1", "--out", str(cert_path))
    payload = json.loads(cert_path.read_text())
    payload["steps"][0] = "a step"
    cert_path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "certify-cone", "--verify", str(cert_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "steps" in err and "Traceback" not in err


def test_certify_cone_verifies_a_compact_file_with_mic_effects_unchanged(capsys, tmp_path):
    # A compact file whose MIC-POM is stored as a list of effects, as
    # written before the MIC rows, committed with the report its writer's
    # reader gave.
    name = "certificate_d3_compact"
    assert "effects" in json.loads((FIXTURES / f"{name}.json").read_text())["mic"]
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "certify-cone", "--verify", str(FIXTURES / f"{name}.json"), "--out", str(out)
    )
    assert code == 0
    assert out.read_bytes() == (FIXTURES / f"{name}.verify.json").read_bytes()


@pytest.mark.parametrize("fault", ["short-row", "non-finite", "nested"])
def test_certify_cone_verify_malformed_mic_rows_is_exit_2(capsys, tmp_path, fault):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify-cone", "--dim", "2", "--seed", "1", "--out", str(cert_path))
    payload = json.loads(cert_path.read_text())
    rows = payload["mic"]["rows"]
    if fault == "short-row":
        rows[1] = rows[1][:-1]
    elif fault == "non-finite":
        rows[2][0] = float("nan")
    else:
        payload["mic"]["rows"] = [[[x] for x in row] for row in rows]
    cert_path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "certify-cone", "--verify", str(cert_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "fault", ["e-delta-entry", "witness-entry", "coefficient", "residual", "mic-dimension"]
)
def test_certify_cone_verify_malformed_blocks_is_exit_2(capsys, tmp_path, fault):
    # Every block is parsed before any is checked: a malformed one is invalid input.
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify-cone", "--dim", "2", "--seed", "1", "--out", str(cert_path))
    if fault in ("e-delta-entry", "mic-dimension"):
        payload = json.loads(cert_path.read_text())
        if fault == "e-delta-entry":
            payload["e_delta"]["entries"][0][0] = ["x", 0]
        else:
            payload["mic"] = pom_to_jsonable(random_mic_pom(3, 1))
    else:
        payload = _full_layout_file(cert_path)
        if fault == "witness-entry":
            payload["witnesses"][0]["entries"][0][0] = ["x", 0]
        elif fault == "coefficient":
            payload["memberships"][0]["mic"]["coeffs"][0] = "x"
        else:  # a stored residual is never trusted, but must still be a number
            payload["memberships"][0]["augmented"]["residual"] = "x"
    cert_path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "certify-cone", "--verify", str(cert_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("reconstruct", "--dim", "2", "--seed", "0", "--tol-residual", "inf"),
        ("certify-cone", "--dim", "2", "--seed", "0", "--tol-residual", "inf"),
        ("augbasis", "--dim", "2", "--tol-residual", "inf"),
        ("certify-cone", "--dim", "2", "--seed", "0", "--epsilon", "inf"),
    ],
    ids=["reconstruct", "certify-cone", "augbasis", "epsilon"],
)
def test_non_finite_tolerance_or_epsilon_is_exit_2_up_front(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numerical warning on the way
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "got inf" in err
    assert "JSON" not in err and "Traceback" not in err


@pytest.mark.parametrize("epsilon", ["1e-310", "1e-318", "5e-324"])
def test_epsilon_halved_to_zero_is_a_failed_interior_point_stage(capsys, epsilon):
    code, out, err = run_cli(capsys, "certify-cone", "--dim", "2", "--seed", "0",
                             "--epsilon", epsilon)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["failed_stage"].startswith("stage interior-point:")


@pytest.mark.parametrize("epsilon", ["0", "-1", "nan"])  # inf: the test above
def test_non_positive_or_non_finite_epsilon_is_exit_2(capsys, epsilon):
    code, out, err = run_cli(capsys, "certify-cone", "--dim", "2", "--seed", "0",
                             "--epsilon", epsilon)
    assert (code, out) == (2, "")
    assert err.startswith("error: epsilon must be finite and positive, got ")


# The exception POM and MicPom raise for each condition `validate` reports.
POM_CHECK_ERRORS = {
    "size": ValueError,
    "effect-spectrum": NotAnEffectError,
    "sum-to-identity": PomIdentityError,
    "element-count": ValueError,
    "linear-independence": SingularBasisError,
}


def _pom_check_cases():
    eye, sic = np.eye(2), sic_mic_pom().stack
    return {
        "size": ("pom", [eye]),
        "effect-spectrum": ("pom", [np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])]),
        "sum-to-identity": ("pom", [0.55 * eye, 0.55 * eye]),
        "element-count": ("mic-pom", [sic[0], sic[1], eye - sic[0] - sic[1]]),
        "linear-independence": ("mic-pom", [eye / 4] * 4),
        None: ("mic-pom", list(sic)),
    }


@pytest.mark.parametrize("violated", list(_pom_check_cases()))
def test_pom_constructors_and_validate_agree(capsys, tmp_path, violated):
    kind, mats = _pom_check_cases()[violated]
    stack = hermitian_stack(mats)
    path = tmp_path / "pom.json"
    path.write_text(json.dumps({"dim": 2, "rows": operators_to_rows(stack)}))
    code, out, _ = run_cli(capsys, "validate", "--kind", kind, "--in", str(path))
    report = json.loads(out)
    assert report["violated"] == violated == check_pom(stack, mic=kind == "mic-pom").violated
    family = MicPom if kind == "mic-pom" else POM
    if violated is None:
        assert code == 0 and report["verdict"] == "pass"
        assert family(stack).stack is stack
        return
    assert code == 1
    with pytest.raises(Exception) as err:
        family(stack)
    assert type(err.value) is POM_CHECK_ERRORS[violated]


@pytest.mark.parametrize("fault", ["dropped-row", "merged-rows"])
def test_certify_cone_verify_mic_rows_of_a_wrong_pom_fail(capsys, tmp_path, fault):
    # Well-formed rows whose MIC-POM is wrong are a verdict, not invalid input.
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify-cone", "--dim", "2", "--seed", "1", "--out", str(cert_path))
    payload = json.loads(cert_path.read_text())
    rows = payload["mic"]["rows"]
    if fault == "dropped-row":
        del rows[0]  # the effects no longer sum to I
    else:
        rows[0] = [a + b for a, b in zip(rows[0], rows.pop(1))]  # a POM of 3 effects
    cert_path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "certify-cone", "--verify", str(cert_path))
    assert code == 1, err
    report = json.loads(out)
    assert report["verdict"] == "fail"
    expected = "sum to identity" if fault == "dropped-row" else "4 effects"
    assert any(expected in failure for failure in report["failures"]), report["failures"]


def test_validate_reads_a_pom_as_rows_or_as_effects(capsys, tmp_path):
    mic = random_mic_pom(3, 1)
    reports = []
    for layout in (pom_to_jsonable(mic),
                   {"dim": 3, "effects": operators_to_jsonable(mic.stack)}):
        path = tmp_path / "mic.json"
        path.write_text(json.dumps(layout))
        code, out, _ = run_cli(capsys, "validate", "--kind", "mic-pom", "--in", str(path))
        assert code == 0
        reports.append(out)
    assert "rows" in pom_to_jsonable(mic) and reports[0] == reports[1]


def test_certify_cone_verify_fails_a_non_orthonormal_family_in_both_layouts(capsys, tmp_path):
    from effectframes import certificate_to_jsonable, intersection_span_certificate

    from conftest import non_orthonormal_basis

    cert = intersection_span_certificate(non_orthonormal_basis(), random_mic_pom(3, 1 + 7919))
    for layout, payload in (("compact", certificate_to_jsonable(cert)),
                            ("full", full_layout(cert))):
        cert_path = tmp_path / f"{layout}.json"
        cert_path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "certify-cone", "--verify", str(cert_path))
        assert code == 1, layout
        report = json.loads(out)
        assert report["verdict"] == "fail"
        expected = "augmented-basis" if layout == "full" else "Gram deviation"
        assert any(expected in failure for failure in report["failures"]), layout
        assert "Traceback" not in err


def test_certify_cone_needs_dim_and_seed(capsys):
    code, _, err = run_cli(capsys, "certify-cone")
    assert code == 2


def test_augbasis_report(capsys):
    code, out, _ = run_cli(capsys, "augbasis", "--dim", "2")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["gamma"] == pytest.approx(2.0 + 2.0 ** -0.5, abs=1e-12)
    assert len(report["elements"]) == 4
    assert report["sum_identity_gap"] > 0.0
    assert set(report["validation"]) == {
        "scaled-projectors", "sum-effect", "rank-one", "linear-independence",
    }


def test_augbasis_validate_round_trip(capsys, tmp_path):
    aug_path = tmp_path / "aug.json"
    code, _, _ = run_cli(
        capsys, "augbasis", "--dim", "3", "--seed", "4", "--out", str(aug_path)
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "validate", "--kind", "augmented", "--in", str(aug_path)
    )
    assert code == 0
    assert json.loads(out)["violated"] is None


def test_verify_frame_adversarial(capsys, tmp_path):
    rho = DensityOperator(identity(2) * 0.5)
    frame_path = tmp_path / "adv.json"
    frame_path.write_text(json.dumps(frame_to_jsonable(AdversarialSquareFrame(rho))))
    code, out, _ = run_cli(capsys, "verify-frame", "--frame", str(frame_path))
    assert code == 1
    report = json.loads(out)
    assert report["violated"] == "additivity"
    assert report["max_violation"] >= 0.1


def test_verify_frame_born(capsys, tmp_path):
    rho = random_density(2, 3)
    frame_path = tmp_path / "born.json"
    frame_path.write_text(json.dumps(frame_to_jsonable(BornFrame(rho))))
    code, out, _ = run_cli(
        capsys, "verify-frame", "--frame", str(frame_path), "--trials", "50"
    )
    assert code == 0
    report = json.loads(out)
    assert report["violated"] is None
    assert report["max_violation"] < 1e-12


@pytest.mark.parametrize("tolerance", ["1e-16", "1e-17"])
def test_verify_frame_sampled_pair_failing_caller_tolerance_is_a_verdict(
    capsys, tmp_path, tolerance
):
    # The frame passes its checks; a sampled effect's top eigenvalue is
    # 1 + 4.4e-16 (at 1e-16) or its lowest -6.9e-17 (at 1e-17).
    frame_path = tmp_path / "born.json"
    frame_path.write_text(json.dumps(frame_to_jsonable(BornFrame(random_density(3, 3)))))
    code, out, err = run_cli(
        capsys, "verify-frame", "--frame", str(frame_path), "--tol-residual", tolerance
    )
    assert code == 1
    assert "error" not in err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["subcommand"] == "verify-frame" and report["verdict"] == "fail"
    assert (report["kind"], report["dim"], report["trials"]) == ("born", 3, 100)
    assert report["failed_stage"].startswith("stage coexisting-pair: element")
    assert "eigenvalue 1 lies" not in report["failed_stage"]
    assert report["tolerances"]["residual"] == float(tolerance)


def test_verify_frame_sampler_square_root_holds_at_tight_tolerance(capsys, tmp_path):
    # The square root of I - E1 comes from E1's own checked spectrum; a
    # second decomposition of I - E1 gave eigenvalue -1.4e-15 here.
    frame_path = tmp_path / "born.json"
    frame_path.write_text(json.dumps(frame_to_jsonable(BornFrame(random_density(2, 3)))))
    code, out, _ = run_cli(
        capsys, "verify-frame", "--frame", str(frame_path), "--tol-residual", "1e-15"
    )
    assert code == 0
    assert json.loads(out)["violated"] is None


def test_verify_frame_file_failing_caller_tolerance_is_exit_2(capsys, tmp_path):
    # The state's trace is 1 + 2.2e-16.
    frame_path = tmp_path / "born.json"
    frame_path.write_text(json.dumps(frame_to_jsonable(BornFrame(random_density(2, 0)))))
    code, out, err = run_cli(
        capsys, "verify-frame", "--frame", str(frame_path), "--tol-residual", "1e-17"
    )
    assert (code, out) == (2, "") and err.startswith("error: trace")


def test_validate_overfull_pom(capsys, tmp_path):
    bad = {
        "dim": 2,
        "effects": [
            operator_to_jsonable(identity(2) * 0.55),
            operator_to_jsonable(identity(2) * 0.55),
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "validate", "--kind", "pom", "--in", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["violated"] == "sum-to-identity"


def test_validate_non_effect_element(capsys, tmp_path):
    bad = {
        "dim": 2,
        "effects": [
            operator_to_jsonable(identity(2) * 1.5),
            operator_to_jsonable(identity(2) * -0.5),
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "validate", "--kind", "pom", "--in", str(path))
    assert code == 1
    assert json.loads(out)["violated"] == "effect-spectrum"


def test_validate_sic_as_mic_pom(capsys, tmp_path):
    path = tmp_path / "sic.json"
    path.write_text(json.dumps(pom_to_jsonable(sic_mic_pom())))
    code, out, _ = run_cli(capsys, "validate", "--kind", "mic-pom", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["violated"] is None
    assert report["details"]["rank"] == 4
    # POMs on C^2 that are not MIC-POMs, one per remaining verdict.
    for count, violated in ((1, "size"), (3, "element-count"), (4, "linear-independence")):
        effect = operator_to_jsonable(identity(2) * (1.0 / count))
        path.write_text(json.dumps({"dim": 2, "effects": [effect] * count}))
        code, out, _ = run_cli(capsys, "validate", "--kind", "mic-pom", "--in", str(path))
        report = json.loads(out)
        assert (code, report["violated"]) == (1, violated)
        assert report["details"]["count"] == count
    assert report["details"]["rank"] == 1


def test_validate_operator(capsys, tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(operator_to_jsonable(identity(3))))
    code, out, _ = run_cli(capsys, "validate", "--kind", "operator", "--in", str(path))
    assert code == 0
    assert json.loads(out)["details"]["dim"] == 3


def test_validate_malformed_json_is_exit_2(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", "--kind", "pom", "--in", str(path))
    assert code == 2


def test_cauchy_grid_report(capsys):
    code, out, _ = run_cli(
        capsys, "cauchy", "grid", "--a", "1/1", "--n", "10", "--v", "7/100"
    )
    assert code == 0
    report = json.loads(out)
    assert report["slope"] == "7/10"
    assert report["f_a"] == "7/10"
    assert report["is_linear"] is True


def test_cauchy_witness_report(capsys):
    code, out, _ = run_cli(
        capsys, "cauchy", "witness",
        "--alpha", "1/1", "--beta", "0/1", "--bound", "10/1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["p"] == "17/1"
    assert report["q"] == "-12/1"
    assert report["value"] == "17/1"
    assert 0.029 < report["x_approx"] < 0.030


def test_cauchy_witness_linear_model_is_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "cauchy", "witness",
        "--alpha", "0/1", "--beta", "0/1", "--bound", "1/1",
    )
    assert code == 2


def test_cauchy_extend_grid(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid_to_jsonable(grid_from_unit(1, 10, "7/100"))))
    code, out, _ = run_cli(
        capsys, "cauchy", "extend", "--in", str(path), "--x", "5/2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["f_plus"] == "7/4"
    assert report["f_real"] == "7/4"
    assert report["n_used"] == 5

    code, out, _ = run_cli(
        capsys, "cauchy", "extend", "--in", str(path), "--x=-5/2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["f_plus"] is None
    assert report["f_real"] == "-7/4"


def test_cauchy_extend_qsqrt2_model(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "qsqrt2", "alpha": "2/1", "beta": "0/1"}))
    code, out, _ = run_cli(
        capsys, "cauchy", "extend", "--in", str(path), "--x", "7/2"
    )
    assert code == 0
    assert json.loads(out)["f_real"] == "7/1"


def test_cauchy_extend_off_grid_is_exit_2(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid_to_jsonable(grid_from_unit(1, 10, "7/100"))))
    code, _, err = run_cli(
        capsys, "cauchy", "extend", "--in", str(path), "--x", "1/3"
    )
    assert code == 2


def test_unknown_flag_is_exit_2(capsys):
    code, _, _ = run_cli(capsys, "reconstruct", "--dim", "2", "--seed", "1", "--frobnicate")
    assert code == 2


def test_unknown_subcommand_is_exit_2(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_pretty_output_is_indented(capsys):
    code, out, _ = run_cli(capsys, "augbasis", "--dim", "2", "--pretty")
    assert code == 0
    assert out.startswith("{\n  ")
    json.loads(out)


def test_tolerance_override_lands_in_report(capsys):
    code, out, _ = run_cli(
        capsys, "reconstruct", "--dim", "2", "--seed", "1", "--tol-residual", "1e-6"
    )
    assert code == 0
    assert json.loads(out)["tolerances"]["residual"] == 1e-6


def test_tolerance_below_default_psd_slack_lowers_it(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "reconstruct", "--dim", "2", "--seed", "1", "--tol-residual", "1e-10"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["tolerances"]["residual"] == 1e-10
    assert report["tolerances"]["psd_slack"] == 1e-10

    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify-cone", "--dim", "3", "--seed", "1", "--out", str(cert_path))
    code, out, _ = run_cli(
        capsys, "certify-cone", "--verify", str(cert_path), "--tol-residual", "1e-10"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["tolerances"] == dict(
        json.loads(cert_path.read_text())["tolerances"], residual=1e-10, psd_slack=1e-10
    )


def test_out_file_writing(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "augbasis", "--dim", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["verdict"] == "pass"


def test_shared_parser_gives_same_output_as_fresh_parser(capsys, tmp_path):
    from effectframes.cli import _build_parser

    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify-cone", "--dim", "2", "--seed", "3", "--out", str(cert_path))
    calls = [
        ("augbasis", "--dim", "2", "--pretty"),
        ("augbasis", "--dim", "2"),
        ("reconstruct", "--dim", "2", "--seed", "1", "--tol-residual", "1e-6"),
        ("reconstruct", "--dim", "2", "--seed", "1"),
        ("certify-cone", "--verify", str(cert_path), "--tol-residual", "1e-5"),
        ("certify-cone", "--verify", str(cert_path)),
        ("cauchy", "grid", "--a", "1/1", "--n", "4", "--v", "1/8", "--pretty"),
        ("reconstruct", "--dim", "2", "--seed", "1", "--frobnicate"),
        ("augbasis", "--dim", "3", "--seed", "2"),
    ]
    shared = [run_cli(capsys, *argv)[:2] for argv in calls]
    alone = []
    for argv in calls:
        _build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv)[:2])
    assert shared == alone
    assert shared[0][1] != shared[1][1]
    assert json.loads(shared[2][1])["tolerances"]["residual"] == 1e-6
    assert json.loads(shared[3][1])["tolerances"]["residual"] == 1e-8


def test_validate_operator_overflowing_on_symmetrization_is_exit_2(capsys, tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"dim": 2, "entries": [[[1e308, 0.0]] * 2] * 2}))
    code, out, err = run_cli(capsys, "validate", "--kind", "operator", "--in", str(path))
    assert code == 2
    assert out == ""
    assert "error" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_report_value_is_exit_2(capsys, tmp_path):
    # Every entry and the symmetrized matrix are finite; only the trace
    # overflows.  The report would carry "trace": Infinity.
    path = tmp_path / "op.json"
    big = operator_to_jsonable(identity(3) * 8.9e307)
    path.write_text(json.dumps(big))
    code, out, err = run_cli(capsys, "validate", "--kind", "operator", "--in", str(path))
    assert code == 2
    assert out == ""
    assert "error" in err and "Traceback" not in err


def test_validate_pom_with_mixed_dimensions_is_a_verdict(capsys, tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({
        "dim": 2,
        "effects": [
            operator_to_jsonable(identity(2) * 0.5),
            operator_to_jsonable(identity(3) * 0.5),
        ],
    }))
    code, out, _ = run_cli(capsys, "validate", "--kind", "pom", "--in", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["violated"] == "dimension-mismatch"
    assert report["details"] == {"dim": 2, "count": 2}


# -- the exact half: hangs, display values and error exits -------------------

def test_cauchy_extend_huge_point_on_grid_model_is_fast(capsys, tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid_to_jsonable(grid_from_unit(1, 24, "7/100"))))
    started = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "cauchy", "extend", "--in", str(path), "--x", "1000000000000000000/1"
    )
    assert time.perf_counter() - started < 1.0
    assert code == 0
    report = json.loads(out)
    # x = 24 * 10**18 grid steps; 24 divides it, so n = 10**18 and x/n = 1.
    assert report["n_used"] == 10**18
    assert report["f_real"] == f"{168 * 10**16}/1"


def test_cauchy_witness_tiny_interval_reports_rounded_point(capsys):
    code, out, err = run_cli(
        capsys, "cauchy", "witness",
        "--alpha", "1/1", "--beta", "0/1", "--bound", "1/1", "--interval", "1/1" + "0" * 340,
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["x_approx"] == 0.0  # x < 1e-340 rounds to zero, once
    assert len(report["p"]) > 340


@pytest.mark.parametrize("argv", [
    ("grid", "--a", "1/0", "--n", "4", "--v", "1/1"),
    ("witness", "--alpha", "1/1", "--beta", "0/1", "--bound", "1/1", "--interval", "1/0"),
])
def test_cauchy_zero_denominator_is_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "cauchy", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def _no_pell_witness(monkeypatch):
    from effectframes import cli, unboundedness_witness

    monkeypatch.setattr(
        cli, "unboundedness_witness", functools.partial(unboundedness_witness, max_steps=3)
    )
    return ("cauchy", "witness", "--alpha", "1/1", "--beta", "0/1", "--bound", "10000/1")


def _no_mic_pom(monkeypatch):
    from effectframes import GenerationRetryError, effects

    def give_up(*args, **kwargs):
        raise GenerationRetryError("no MIC-POM within the retry budget")

    monkeypatch.setattr(effects, "random_mic_pom", give_up)
    return ("reconstruct", "--dim", "2", "--seed", "1")


def _no_eigh(monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", diverge)
    return ("augbasis", "--dim", "2", "--seed", "5")


@pytest.mark.parametrize("setup, message", [
    (_no_pell_witness, "no witness within 3 Pell steps"),
    (_no_mic_pom, "no MIC-POM within the retry budget"),
    (_no_eigh, "eigendecomposition failed"),
])
def test_runtime_errors_exit_1_without_traceback(capsys, monkeypatch, setup, message):
    code, out, err = run_cli(capsys, *setup(monkeypatch))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_certify_cone_verify_ignores_tolerances_in_the_file(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(capsys, "certify-cone", "--dim", "2", "--seed", "1", "--out", str(cert_path))
    payload = _full_layout_file(cert_path)
    defaults = dict(payload["tolerances"])
    for item in payload["memberships"]:
        item["augmented"]["coeffs"] = [0.0] * 4
        item["mic"]["coeffs"] = [5.0] * 4
    payload["tolerances"].update(residual=1e3, psd_slack=1e3)
    cert_path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "certify-cone", "--verify", str(cert_path))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert "witness-0-augmented-residual" in report["failures"]
    assert report["tolerances"] == defaults


# -- numpy is loaded on first numerical use ----------------------------------

def _python(code: str) -> str:
    src = str(Path(effectframes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cauchy_cli_does_not_load_numpy():
    out = _python(
        "import sys, effectframes, effectframes.cli\n"
        "code = effectframes.cli.main(['cauchy', 'grid', '--a', '1/1', '--n', '4', '--v', '1/8'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert out.splitlines()[-1] == "0 []"


def test_numerical_subcommands_run_with_scipy_refused(tmp_path):
    out = _python(
        "import importlib.abc, json, sys\n"
        "class Refuse(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ModuleNotFoundError(f'{name} refused')\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "from effectframes.cli import main\n"
        f"cert, rep = {str(tmp_path / 'cert.json')!r}, {str(tmp_path / 'report.json')!r}\n"
        "def run(out, *argv):\n"
        "    code = main([*argv, '--out', out])\n"
        "    with open(out) as fh:\n"
        "        return code, json.load(fh)['verdict']\n"
        "results = []\n"
        "for d in (2, 3, 4, 5):\n"
        "    results.append(run(cert, 'certify-cone', '--dim', str(d), '--seed', '1'))\n"
        "    results.append(run(rep, 'certify-cone', '--verify', cert))\n"
        "results.append(run(rep, 'reconstruct', '--dim', '3', '--seed', '1'))\n"
        "print(json.dumps(results), 'scipy' in sys.modules)\n"
    )
    results, scipy_loaded = out.splitlines()[-1].rsplit(" ", 1)
    assert json.loads(results) == [[0, "pass"]] * 9
    assert scipy_loaded == "False"


def test_reconstruction_loads_no_certificate_module():
    out = _python(
        "import contextlib, io, sys\n"
        "import effectframes as ef\n"
        "from effectframes import cli\n"
        "assert 'numpy' not in sys.modules\n"
        "certificate = ['effectframes.augmented', 'effectframes.cones']\n"
        "def loaded():\n"
        "    return [m for m in certificate if m in sys.modules]\n"
        "rho, mic = ef.random_density(3, 1), ef.random_mic_pom(3, 2)\n"
        "report = ef.reconstruct_density(ef.BornFrame(rho), mic)\n"
        "assert report.verdict and ef.hs_distance(report.rho_hat, rho.op) < 1e-8\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = cli.main(['reconstruct', '--dim', '3', '--seed', '1'])\n"
        "print(code, loaded())\n"
        "try:\n"
        "    ef.consistency_DT(ef.BornFrame(rho), None, mic, None)\n"
        "except AttributeError:\n"
        "    pass\n"
        "print(loaded())\n"
        "import numpy as np\n"
        "basis, sic = ef.augmented_basis_from_onb(np.eye(2, dtype=complex)), ef.sic_mic_pom()\n"
        "cert = ef.intersection_span_certificate(basis, sic)\n"
        "print(ef.consistency_DT(ef.BornFrame(ef.random_density(2, 4)), basis, sic, cert) < 1e-10)\n"
    )
    after_reconstruct, after_call, works = out.splitlines()[-3:]
    assert after_reconstruct == "0 []"
    assert after_call == "['effectframes.augmented', 'effectframes.cones']"
    assert works == "True"


def test_star_import_is_the_union_of_the_module_lists():
    from effectframes import augmented, cauchy, cones, effects, frames, operators

    namespace: dict = {}
    exec("from effectframes import *", namespace)
    namespace.pop("__builtins__")
    modules = (operators, effects, augmented, cones, frames, cauchy)
    union = {name for module in modules for name in module.__all__}
    assert set(namespace) == union
    assert sorted(effectframes.__all__) == sorted(union)
    assert union <= set(dir(effectframes))
    for module in modules:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)


def test_tracer_leaves_no_wrapper_in_the_package_after_first_access():
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    out = _python(
        "import importlib.util, sys\n"
        "import effectframes as ef\n"
        "assert 'effectframes.operators' not in sys.modules\n"
        f"spec = importlib.util.spec_from_file_location('perfbench_tracer', {str(tracer)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "resolved = [tracer._resolve(t) for t in tracer.TARGETS]\n"
        "originals = {attr: f for owner, attr, f in resolved\n"
        "             if not isinstance(owner, type) and attr in ef.__all__}\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "wrappers = [getattr(owner, attr) for owner, attr, _ in t._saved]\n"
        "seen = {n: getattr(ef, n) for n in originals}\n"
        "traced = [n for n, f in seen.items() if f.__wrapped__ is originals[n]]\n"
        "t.uninstall()\n"
        "leftover = [n for n, f in originals.items() if getattr(ef, n) is not f]\n"
        "leftover += [k for k, v in vars(ef).items() if any(v is w for w in wrappers)]\n"
        "print(len(seen), len(traced), leftover)\n"
    )
    seen, traced, leftover = out.split(maxsplit=2)
    assert int(seen) > 10 and traced == seen
    assert leftover.strip() == "[]"


@pytest.mark.parametrize("d, seed", [(4, 449), (5, 262), (5, 318), (5, 356)])
def test_certify_cone_former_failures_certify_and_verify(capsys, tmp_path, d, seed):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys, "certify-cone", "--dim", str(d), "--seed", str(seed), "--out", str(cert_path)
    )
    assert code == 0
    assert json.loads(cert_path.read_text())["verdict"] == "pass"
    code, out, _ = run_cli(capsys, "certify-cone", "--verify", str(cert_path))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass" and report["rank"] == d * d


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "command, named, expected",
    [
        ("certify-cone", "failed_stage", "stage onb-orthonormal: Gram deviation from identity"),
        ("augbasis", "violated", "onb-orthonormal"),
    ],
)
def test_generated_onb_failing_caller_tolerance_is_a_verdict(capsys, command, named, expected):
    # The generated family's Gram deviation (8.5e-16) exceeds the tolerance.
    code, out, err = run_cli(
        capsys, command, "--dim", "3", "--seed", "1", "--tol-residual", "1e-17"
    )
    assert code == 1
    assert "error" not in err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["verdict"] == "fail"
    assert report[named].startswith(expected)
    assert report["tolerances"]["residual"] == 1e-17
    assert report["tolerances"]["psd_slack"] == 1e-17


@pytest.mark.parametrize("dim, seed, tolerance, stage", [
    # Every MIC-POM draw sums to the identity only within rounding.
    ("3", "1", "1e-17", "stage mic-pom: no MIC-POM found for dim 3 after 32 attempts"),
    # The generated state's trace is 1 + 2.2e-16.
    ("2", "0", "1e-17", "stage state: trace 1.0000000000000002 differs from 1"),
])
def test_reconstruct_generated_object_failing_caller_tolerance_is_a_verdict(
    capsys, dim, seed, tolerance, stage
):
    code, out, err = run_cli(
        capsys, "reconstruct", "--dim", dim, "--seed", seed, "--tol-residual", tolerance
    )
    assert code == 1
    assert "error" not in err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["subcommand"] == "reconstruct" and report["verdict"] == "fail"
    assert report["failed_stage"].startswith(stage)
    assert report["tolerances"]["residual"] == float(tolerance)


def test_reconstruct_below_rounding_fails_on_deviation(capsys):
    # State and MIC-POM pass their checks at 1e-16; the reconstruction's
    # rounding error over the verification effects does not.
    code, out, err = run_cli(
        capsys, "reconstruct", "--dim", "3", "--seed", "1", "--tol-residual", "1e-16"
    )
    assert code == 1
    assert "error" not in err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["verdict"] == "fail" and "failed_stage" not in report
    assert report["max_deviation"] > 1e-16


def test_reconstruct_files_failing_caller_tolerance_are_exit_2(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(operator_to_jsonable(random_density(2, 0).op)))
    code, out, err = run_cli(
        capsys, "reconstruct", "--dim", "2", "--seed", "0", "--state", str(state),
        "--tol-residual", "1e-17",
    )
    assert (code, out) == (2, "") and err.startswith("error: trace")
    mic = tmp_path / "mic.json"
    mic.write_text(json.dumps(pom_to_jsonable(random_mic_pom(3, 1000004))))
    code, out, err = run_cli(
        capsys, "reconstruct", "--dim", "3", "--seed", "1", "--mic", str(mic),
        "--tol-residual", "1e-17",
    )
    assert (code, out) == (2, "") and err.startswith("error: effects sum to identity")


@pytest.mark.parametrize("argv", [
    # The closed-form directions have Gram deviation 2.2e-16 to 4.4e-16.
    ("certify-cone", "--dim", "4", "--seed", "15", "--tol-residual", "4.3e-16"),
    ("certify-cone", "--dim", "2", "--seed", "26", "--tol-residual", "1e-16"),
    ("certify-cone", "--dim", "3", "--seed", "18", "--tol-residual", "2e-16"),
    # The completion I - sum(B_j) has eigenvalue -5.2e-16.
    ("augbasis", "--dim", "2", "--seed", "22", "--tol-residual", "2e-16"),
])
def test_generated_objects_at_tight_tolerances_give_a_verdict(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1)
    assert "error:" not in err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["verdict"] == ("pass" if code == 0 else "fail")


@pytest.mark.parametrize("dim", ["0", "1"])
def test_augbasis_dimension_below_two_is_exit_2(capsys, dim):
    code, out, err = run_cli(capsys, "augbasis", "--dim", dim)
    assert (code, out) == (2, "")
    assert err == "error: dimension must be at least 2\n"
