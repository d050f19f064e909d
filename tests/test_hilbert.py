import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambdadet.errors import InvalidCutoffError
from lambdadet.hilbert import (
    ComplexOperator,
    annihilation,
    build_space,
    photon_number,
    qubit_lowering,
    qubit_number,
)


def test_dimensions():
    assert build_space(1).dim == 4
    assert build_space(9).dim == 20


def test_invalid_cutoff():
    with pytest.raises(InvalidCutoffError):
        build_space(0)
    with pytest.raises(InvalidCutoffError):
        build_space(-3)


@given(st.integers(min_value=1, max_value=12))
def test_basis_bijective(n_max):
    space = build_space(n_max)
    labels = space.labels()
    for idx, (q, n) in enumerate(labels):
        assert space.index(q, n) == idx
    assert len(set(labels)) == space.dim


def test_basis_ordering():
    space = build_space(2)
    assert space.labels()[:4] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_annihilation_elements():
    space = build_space(2)
    a = annihilation(space)
    g0, g1, g2 = space.index(0, 0), space.index(0, 1), space.index(0, 2)
    assert a[g0, g1] == pytest.approx(1.0)
    assert a[g1, g2] == pytest.approx(np.sqrt(2.0))
    # a'a diagonal equals the photon number
    num = a.conj().T @ a
    assert np.allclose(np.diag(num), [n for _, n in space.labels()])
    assert np.allclose(num, photon_number(space))


def test_qubit_lowering_elements():
    space = build_space(1)
    sm = qubit_lowering(space)
    for n in (0, 1):
        assert sm[space.index(0, n), space.index(1, n)] == 1.0
    assert np.allclose(sm @ sm, 0.0)
    assert np.allclose(np.diag(sm.conj().T @ sm), np.diag(qubit_number(space)))


def test_ladder_operators_tagged():
    space = build_space(3)
    a = ComplexOperator(annihilation(space), space)
    sm = ComplexOperator(qubit_lowering(space), space)
    assert a.space == space and sm.space == space
    assert a.matrix.shape == (8, 8)


def test_operator_shape_mismatch():
    with pytest.raises(ValueError):
        ComplexOperator(np.eye(3), build_space(1))


def test_operator_immutable():
    space = build_space(1)
    op = ComplexOperator(annihilation(space), space)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0
