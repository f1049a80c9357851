"""The three-case singular-value thresholding against the full-SVD formula,
and the nuclear norm it returns against that of its result."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_impls import ref_prox_nuclear
from typespace.objective import nuclear_norm
from typespace.optimize import GRAM_MIN_TAU, prox_nuclear


@st.composite
def _matrices(draw):
    """A random n x n matrix with a low-rank, clustered or 14-decade
    spectrum, scaled by 10^[-3, 3]; returns it with its singular values."""
    n = draw(st.integers(2, 50))
    kind = draw(st.sampled_from(["low_rank", "clustered", "decay"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "low_rank":
        s = np.zeros(n)
        rank = draw(st.integers(1, n))
        s[:rank] = rng.uniform(0.1, 10.0, size=rank)
    elif kind == "clustered":
        # One dominant value over a tight cluster: the Gram route's hard case
        # when tau falls inside the cluster.
        level = 10.0 ** -draw(st.floats(0.0, 6.0))
        spread = 10.0 ** -draw(st.floats(3.0, 14.0))
        s = np.concatenate([[1.0], level * (1.0 + spread * rng.uniform(-1.0, 1.0, size=n - 1))])
    else:
        s = np.logspace(0.0, -14.0, n)
    s = np.sort(s)[::-1] * 10.0 ** draw(st.floats(-3.0, 3.0))
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q1 * s) @ q2.T, s


def _tau(draw, m, s):
    """tau/sigma_1 in [1e-12, 10], or tau on a case boundary: ||M||_F (zero
    case), GRAM_MIN_TAU * ||M||_F (Gram route), or a singular value (kept or
    not), each one ulp either side too."""
    fro = float(np.sqrt(np.vdot(m, m)))
    where = draw(st.sampled_from(["ratio", "fro", "gram", "sigma"]))
    if where == "ratio":
        return float(s[0] * 10.0 ** draw(st.floats(-12.0, 1.0)))
    tau = {"fro": fro, "gram": GRAM_MIN_TAU * fro, "sigma": float(s[draw(st.integers(0, len(s) - 1))])}[where]
    step = draw(st.sampled_from([-np.inf, 0.0, np.inf]))
    return float(np.nextafter(tau, step)) if step else tau


def _draw_case(draw):
    m, s = draw(_matrices())
    tau = _tau(draw, m, s)
    if tau <= 0.0:  # a zero singular value as the threshold
        tau = float(np.nextafter(0.0, 1.0))
    return m, tau


class TestProxNuclearProperty:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_full_svd_formula(self, data):
        m, tau = _draw_case(data.draw)
        err = np.linalg.norm(prox_nuclear(m, tau)[0] - ref_prox_nuclear(m, tau))
        assert err <= 1e-12 * np.linalg.norm(m)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_returned_norm_is_nuclear_norm_of_result(self, data):
        m, tau = _draw_case(data.draw)
        x, norm = prox_nuclear(m, tau)
        assert abs(norm - nuclear_norm(x)) <= 1e-12 * np.linalg.norm(m)
