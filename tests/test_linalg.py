import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclectx.linalg import normalized
from linalg_reference import ShapeError, commutator_norm

def proj(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


P1 = proj([1, -1, 1])
P2 = proj([1, 1, 0])
P3 = proj([0, 0, 1])


class TestCommutatorNorm:
    def test_identity_commutes_with_anything(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert commutator_norm(np.eye(4), a) == 0.0

    def test_orthogonal_projectors_commute(self):
        assert commutator_norm(P1, P2) <= 1e-12

    def test_overlapping_projectors_do_not(self):
        # |<v1|v3>|^2 = 1/3, giving norm sqrt(2 c^2 (1 - c^2)) = 2/3
        n = commutator_norm(P1, P3)
        assert n > 0.1
        assert abs(n - 2.0 / 3.0) < 1e-12

    def test_strided_input(self):
        # a conjugate transpose is a non-contiguous view
        assert abs(commutator_norm(P1.conj().T, P3) - commutator_norm(P1, P3)) <= 1e-15
        bad = np.full((3, 3), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            commutator_norm(bad.T, P3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            commutator_norm(np.eye(2), np.eye(3))
        with pytest.raises(ShapeError):
            commutator_norm(np.ones((2, 3)), np.ones((2, 3)))


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    def test_unitary_preserves_norm(self, d, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u, _ = np.linalg.qr(m)
        v = normalized(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        assert abs(np.linalg.norm(u @ v) - 1.0) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2**31 - 1))
    def test_commutator_norm_symmetric(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert abs(commutator_norm(a, b) - commutator_norm(b, a)) <= 1e-12
