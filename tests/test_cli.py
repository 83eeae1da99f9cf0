import json

import pytest

from effectframes import (
    AdversarialSquareFrame,
    BornFrame,
    DensityOperator,
    frame_to_jsonable,
    grid_from_unit,
    grid_to_jsonable,
    identity,
    operator_to_jsonable,
    pom_to_jsonable,
    random_density,
    sic_mic_pom,
)
from effectframes.cli import main


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
    payload = json.loads(cert_path.read_text())
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
    payload = json.loads(cert_path.read_text())
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
    path.write_text(json.dumps(pom_to_jsonable(sic_mic_pom().pom)))
    code, out, _ = run_cli(capsys, "validate", "--kind", "mic-pom", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["violated"] is None
    assert report["details"]["rank"] == 4


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


def test_out_file_writing(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "augbasis", "--dim", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["verdict"] == "pass"
