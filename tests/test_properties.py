"""Identities the theory promises, checked on drawn inputs with hypothesis.

Each test draws (seed, m, n, field, self_dual) and builds its pair with the
seeded conftest generators.  derandomize=True fixes the examples, so every
run checks the same ones.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import framekit as fk

from conftest import random_parseval, random_parseval_ovf, rng_for

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)
SEEDS = st.integers(0, 2**32 - 1)
FIELDS = st.sampled_from(["real", "complex"])


@st.composite
def sizes(draw):
    """(m, n) with 1 <= m <= 8 and m <= n <= m + 8."""
    m = draw(st.integers(1, 8))
    return m, draw(st.integers(m, m + 8))


@PROPERTY
@given(seed=SEEDS, mn=sizes(), field=FIELDS, self_dual=st.booleans())
def test_a_dilation_compresses_back_to_the_input(seed, mn, field, self_dual):
    m, n = mn
    fp = random_parseval(rng_for(seed), m, n, field, self_dual=self_dual)
    big = fk.dilate(fp).big
    assert fk.classify(big).orthonormal_frame
    assert np.array_equal(big.X[:m], fp.X) and np.array_equal(big.T[:m], fp.T)


@PROPERTY
@given(seed=SEEDS, m=st.integers(1, 6), d=st.integers(1, 3), spare=st.integers(0, 6), field=FIELDS)
def test_an_ovf_dilation_compresses_back_to_the_input(seed, m, d, spare, field):
    n = -(-m // d) + spare  # enough members that n d >= m
    op = random_parseval_ovf(rng_for(seed), m, d, n, field)
    big = fk.dilate_ovf(op)
    assert fk.verify_ovf(big).orthonormal_ovf
    assert np.array_equal(big.theta_A[:, :m], op.theta_A)
    assert np.array_equal(big.theta_Psi[:, :m], op.theta_Psi)
