import json
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, settings, strategies as st

from sparse_ctrb import SystemModel

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
DATA = pathlib.Path(__file__).resolve().parent / "data"

# Two exactly uncontrollable integer Jordan systems (N = 20 and 24) whose
# float staircase is full; only the eigenvalue probe sweep finds the drop.
with open(DATA / "near-defective-jordan.json", encoding="utf-8") as fh:
    NEAR_DEFECTIVE_DATA = json.load(fh)
NEAR_DEFECTIVE = [
    SystemModel(D=np.array(d["D"], float), H=np.array(d["H"], float))
    for d in NEAR_DEFECTIVE_DATA
]


def load_fixture(name: str) -> SystemModel:
    with open(FIXTURES / f"{name}.json", encoding="utf-8") as fh:
        data = json.load(fh)
    return SystemModel(
        D=np.array(data["D"], dtype=float),
        H=np.array(data["H"], dtype=float),
        A=np.array(data["A"], dtype=float) if "A" in data else None,
    )


@pytest.fixture(scope="session")
def inequality_blocked():
    return load_fixture("inequality-blocked")


@pytest.fixture(scope="session")
def no_common_support():
    return load_fixture("no-common-support")


@pytest.fixture(scope="session")
def nilpotent_chain():
    return load_fixture("nilpotent-chain")


@pytest.fixture(scope="session")
def output_blocked():
    return load_fixture("output-blocked")


@pytest.fixture(scope="session")
def output_reachable():
    return load_fixture("output-reachable")


@pytest.fixture(scope="session")
def standard_form_reference():
    return load_fixture("standard-form-reference")


def inequality_blocked_output():
    """N = 4, m = 3 output system that the paper's inequality rules out at
    s = 1: rank(A D [D^(K-2) H, ..., H]) + s = 2 + 1 < 3 at every K >= 3,
    while K = 1, 2 fail the capacity pre-check."""
    return SystemModel(
        D=np.array([[0, 0, 1, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]], float),
        H=np.array([[-1, 1], [-1, 0], [1, 0], [1, 1]], float),
        A=np.array([[-1, -1, 1, 1], [1, -1, 1, 0], [-1, 0, -1, 0]], float),
    )


def kernel_blocked_output(width=2):
    """N = 5, m = 4 output system that only the kernel's cut rules out.
    H repeats e1, e2 to ``width`` channels; A D^p H lies on one output axis
    for every p >= 2, so at s = 1 a schedule reaches output rank 3 of 4,
    while rank(A D [D^(K-2) H, ..., H]) + s = 3 + 1 leaves the paper's
    inequality satisfied at every K.  At s = 1 the pre-checks skip K = 1..3
    and the kernel rules out each K >= 4 with one tick."""
    d = np.zeros((5, 5))
    d[2, 0] = d[3, 1] = d[4, 2] = d[4, 3] = d[4, 4] = 1
    a = np.array([[1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    h = np.tile(np.eye(5)[:, :2], width // 2)
    return SystemModel(D=d, H=h, A=a.astype(float))


def _dense_spectral(seed, n, l):
    """Dense ``Q diag(0.5 + i/N) Q^-1`` with distinct eigenvalues and a dense
    random H: controllable, and its N-block Krylov matrix is far too
    ill-conditioned to rank."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, n))
    d = q @ np.diag(0.5 + np.arange(n) / n) @ np.linalg.inv(q)
    return SystemModel(D=d, H=rng.standard_normal((n, l)))


def int_matrix(rows, cols, lo=-1, hi=1):
    """Strategy for a rows x cols integer-entried float matrix."""
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda rows_: np.array(rows_, dtype=float))


@st.composite
def small_systems(draw, max_n=3, max_l=3, lo=-1, hi=1, with_output=False):
    """Random small integer systems; H is never all-zero columns-free."""
    n = draw(st.integers(2, max_n))
    l = draw(st.integers(1, max_l))
    d = draw(int_matrix(n, n, lo, hi))
    h = draw(int_matrix(n, l, lo, hi))
    a = None
    if with_output:
        m = draw(st.integers(1, n - 1))
        a = draw(int_matrix(m, n, lo, hi))
    return SystemModel(D=d, H=h, A=a)


@st.composite
def invertible_matrices(draw, n, lo=-2, hi=2, max_cond=1e6):
    m = draw(int_matrix(n, n, lo, hi))
    from hypothesis import assume

    assume(abs(np.linalg.det(m)) > 1e-9)
    assume(np.linalg.cond(m) < max_cond)
    return m


def _unit_triangular(draw, n, lower):
    t = np.eye(n, dtype=np.int64)
    for i in range(n):
        for j in range(i):
            t[(i, j) if lower else (j, i)] = draw(st.integers(-1, 1))
    return t


@st.composite
def jordan_systems(draw, max_n=12, max_block=6):
    """Integer ``(P J P^-1, P H_J)`` with unimodular P (a product of unit
    triangular factors): Jordan blocks of size up to ``max_block`` at small
    integer eigenvalues, so repeated and defective eigenvalues are common,
    and an integer H_J whose zero rows leave modes unreachable."""
    n = draw(st.integers(2, max_n))
    j_mat = np.zeros((n, n), dtype=np.int64)
    row = 0
    while row < n:
        size = draw(st.integers(1, min(max_block, n - row)))
        lam = draw(st.integers(-2, 2))
        for i in range(row, row + size):
            j_mat[i, i] = lam
            if i + 1 < row + size:
                j_mat[i, i + 1] = 1
        row += size
    h_j = draw(int_matrix(n, draw(st.integers(1, 3)), -1, 1)).astype(np.int64)
    p = _unit_triangular(draw, n, True) @ _unit_triangular(draw, n, False)
    p_inv = np.rint(np.linalg.inv(p)).astype(np.int64)
    assume(np.array_equal(p @ p_inv, np.eye(n, dtype=np.int64)))
    return SystemModel(
        D=(p @ j_mat @ p_inv).astype(float), H=(p @ h_j).astype(float)
    )
