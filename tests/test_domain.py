"""Non-finite input meets a named error, not a NaN result."""

import math

import numpy as np
import pytest

from spincs import (ACoords, FiducialVector, FockVector, HamiltonianSpec, MonomialTerm,
                    NotFinite, NotHermitian, NotNormalized, NotUnitary, RotationMatrix, Spin,
                    SubsidiaryViolation, ZCoords, build_grid, euler_from_su2, make_fiducial,
                    make_fock, normal_ordered_matrix, transition_amplitude)

nan = math.nan


def _transition_from_nan_ket():
    spin = Spin(1)
    spec = HamiltonianSpec(spin, (MonomialTerm(0, 1, 0, 1.0),))
    return transition_amplitude(make_fiducial(spin, [1.0, 0.0]), spec, [nan, 0.0],
                                [1.0, 0.0], 0.0, 1.0, build_grid(spin), 2)


@pytest.mark.parametrize("call, error", [
    (lambda: FiducialVector(Spin(2), [nan, 0.0, 0.0]), NotNormalized),
    (lambda: make_fiducial(Spin(1), [nan, 1.0]), NotFinite),
    (lambda: FockVector([nan, 0.0]), NotNormalized),
    (lambda: make_fock([nan, 1.0]), NotFinite),
    (lambda: RotationMatrix(Spin(1), np.full((2, 2), nan)), NotUnitary),
    (lambda: ZCoords(nan, 1.0), SubsidiaryViolation),
    (lambda: ACoords(nan, 0.0), NotUnitary),
    (lambda: HamiltonianSpec(Spin(1), (MonomialTerm(0, 1, 0, nan),)), NotHermitian),
    (lambda: normal_ordered_matrix([(1, 1, nan)], 3), NotHermitian),
    (lambda: euler_from_su2(np.full((2, 2), nan)), NotUnitary),
    (_transition_from_nan_ket, NotNormalized),
], ids=["FiducialVector", "make_fiducial", "FockVector", "make_fock", "RotationMatrix",
        "ZCoords", "ACoords", "HamiltonianSpec", "normal_ordered_matrix", "euler_from_su2",
        "transition_amplitude"])
def test_nan_input_raises_named_error(call, error):
    # every one of these checks read `defect > bound`, which a NaN defect
    # passes; make_fiducial raised IndexError, transition_amplitude a
    # NumericalFailure that blamed kernel overflow, the rest returned NaN
    with pytest.raises(error):
        call()
