import numpy as np
import pytest

from effectframes import HermitianOperator, certificate_to_jsonable
from effectframes.augmented import augmented_basis_to_jsonable
from effectframes.operators import operators_to_jsonable, stacked_coordinates

# Filled by the acceptance tests; echoed after the run so the one-line
# verdicts survive pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, d, scale=1.0):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(scale * (x + x.conj().T) / 2.0)


def full_layout(cert) -> dict:
    """The certificate in the layout that also stores what a reader derives.

    The augmented elements, the witnesses and both decompositions of every
    witness, as certificates were written before the compact layout, in
    place of the signed steps; the MIC-POM as a list of effects, as those
    certificates stored it.  Each stored residual is recomputed from the
    certificate's arrays.
    """
    payload = certificate_to_jsonable(cert)
    payload.pop("steps", None)
    payload["augmented"] = augmented_basis_to_jsonable(cert.augmented)
    payload["mic"] = {"dim": cert.mic.dim, "effects": operators_to_jsonable(cert.mic.stack)}
    payload["witnesses"] = operators_to_jsonable(cert.witness_stack)
    sides = [
        [{"coeffs": c.tolist(), "residual": float(r)} for c, r in zip(coeffs, residuals)]
        for coeffs, residuals in zip(cert.coefficients, witness_residuals(cert))
    ]
    payload["memberships"] = [{"augmented": a, "mic": m} for a, m in zip(*sides)]
    return payload


def witness_residuals(cert) -> tuple:
    """Per family, each witness's distance from the combination of its coefficients."""
    targets = stacked_coordinates(cert.witness_stack)
    return tuple(
        np.linalg.norm(coeffs @ stacked_coordinates(family) - targets, axis=1)
        for coeffs, family in zip(cert.coefficients, (cert.augmented.stack, cert.mic.stack))
    )


def non_orthonormal_basis():
    """An augmented basis grown from 0.98 times an orthonormal family.

    Its elements are the completed projectors of the scaled vectors, scaled
    by 1/Gamma of their own sum, so they match the family they store: only
    the family's orthonormality is wrong.
    """
    from effectframes import AugmentedBasis, random_onb
    from effectframes.augmented import _projector_stack, _scaled_family

    onb = 0.98 * random_onb(3, 1)
    projs = _projector_stack(onb)
    gamma = float(np.linalg.eigvalsh(projs.sum(axis=0))[-1])
    return AugmentedBasis(onb=onb, ops=_scaled_family(projs, 1.0 / gamma), c=1.0 / gamma,
                          gamma=gamma)
