import pathlib
import re

import numpy as np
import pytest
import scipy.linalg

from lrlab.linalg import expm_hermitian, is_hermitian, op_norm

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "lrlab"


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@pytest.mark.parametrize("dim", [1, 7, 32])
def test_expm_hermitian_matches_scipy_expm(dim):
    rng = np.random.default_rng(dim)
    m = random_matrix(rng, dim)
    h = (m + m.conj().T) / (2.0 * np.sqrt(dim))
    for scale in (-1j, -0.4j, 0.3):
        assert np.abs(expm_hermitian(h, scale) - scipy.linalg.expm(scale * h)).max() <= 1e-12


@pytest.mark.parametrize("dim", [1, 7, 32])
def test_op_norm_matches_largest_singular_value(dim):
    rng = np.random.default_rng(10 + dim)
    m = random_matrix(rng, dim)
    for a in (m, m + m.conj().T):
        want = scipy.linalg.svdvals(a).max()
        assert abs(op_norm(a) - want) <= 1e-12 * max(1.0, want)
    assert op_norm(np.zeros((0, 0))) == 0.0


def test_no_scipy_linalg_in_the_package():
    # every dense decomposition goes through numpy's LAPACK (see lrlab.linalg)
    pattern = re.compile(r"scipy\.linalg|from\s+scipy\s+import[^\n]*\blinalg\b")
    offenders = [
        path.name for path in sorted(SRC.rglob("*.py")) if pattern.search(path.read_text())
    ]
    assert offenders == []


@pytest.mark.parametrize("shape", [(8, 56), (56, 8), (1, 3)])
def test_op_norm_of_a_rectangular_block(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = scipy.linalg.svdvals(a).max()
    assert abs(op_norm(a) - want) <= 1e-12 * want


def test_rectangular_matrix_is_not_hermitian():
    assert not is_hermitian(np.zeros((2, 3)))
    assert not is_hermitian(np.ones((3, 1)))
    assert is_hermitian(np.eye(3))
