"""The 2 x 2 kernels of ``linalg`` against generic loops, to the bit.

Vector fibres are rank 2, so ``linalg`` spells out each operation for 2 x 2
matrices and pairs only.  Each reference below is the generic loop over any
size, written out here; at rank 2 the kernel must give its result (value,
sign of zero and type), NaN where the loop gives NaN, and the same exception
where the loop raises.  ``vec_sub`` and ``max_abs`` take any length.
"""

import math
import random

import pytest

from fibretransport import linalg

SPECIAL = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5)
INFINITE = (math.inf, -math.inf)


# -- the generic loops, written out -----------------------------------------

def ref_matvec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def ref_matmul(a, b):
    cols = range(len(b[0]))
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in cols)
        for i in range(len(a)))


def ref_lin_comb(lam, u, mu, v):
    return tuple(lam * u[i] + mu * v[i] for i in range(len(u)))


def ref_vec_sub(u, v):
    return tuple(u[i] - v[i] for i in range(len(u)))


def ref_max_abs(v):
    return max(abs(x) for x in v) if v else 0.0


def ref_dot(u, v):
    return sum(u[i] * v[i] for i in range(len(u)))


def ref_solve(m, rhs):
    n = len(m)
    a = [list(row) + [rhs[i]] for i, row in enumerate(m)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                f = a[r][col] / a[col][col]
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def ref_inverse(m):
    n = len(m)
    cols = [ref_solve(m, tuple(1.0 if i == j else 0.0 for i in range(n)))
            for j in range(n)]
    return tuple(tuple(cols[i][j] for i in range(n)) for j in range(n))


# -- comparison to the bit -----------------------------------------------------

def same(a, b) -> bool:
    """Equal to the bit: value, type, sign of zero; NaN matches NaN."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if type(a) is not type(b):
        return False
    if math.isnan(a):
        return math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ZeroDivisionError as exc:
        return ("raised", str(exc))


def agree(kernel, reference, *args) -> bool:
    got, want = outcome(kernel, *args), outcome(reference, *args)
    return got[0] == want[0] and (got[0] == "raised" and got == want
                                  or same(got[1], want[1]))


def mat(e):
    return ((e[0], e[1]), (e[2], e[3]))


# -- operand sets ----------------------------------------------------------------

def random_entries(rng, k):
    return tuple(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8)
                 for _ in range(k))


def drawn(values, k, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.choice(values) for _ in range(k)) for _ in range(count)]


def operands(k, seed):
    """Random finite entries, the special values combined, and both
    mixed with infinities and NaN."""
    rng = random.Random(seed)
    out = [random_entries(rng, k) for _ in range(300)]
    out += drawn(SPECIAL, k, 1500, seed)
    out += drawn(SPECIAL + INFINITE, k, 1500, seed + 1)
    out += drawn(SPECIAL + INFINITE + (math.nan,), k, 500, seed + 2)
    return out


# -- the kernels -------------------------------------------------------------------

def test_matvec_kernel_is_the_generic_loop():
    for e in operands(6, 1):
        assert agree(linalg.matvec, ref_matvec, mat(e), e[4:]), e


def test_matmul_kernel_is_the_generic_loop():
    for e in operands(8, 2):
        assert agree(linalg.matmul, ref_matmul, mat(e), mat(e[4:])), e


def test_lin_comb_kernel_is_the_generic_loop():
    for e in operands(6, 3):
        args = (e[0], e[1:3], e[3], e[4:])
        assert agree(linalg.lin_comb, ref_lin_comb, *args), e


def test_vec_sub_and_dot_kernels_are_the_generic_loops():
    for e in operands(4, 4):
        assert agree(linalg.vec_sub, ref_vec_sub, e[:2], e[2:]), e
        assert agree(linalg.dot, ref_dot, e[:2], e[2:]), e


def test_max_abs_kernel_is_the_generic_loop_on_numbers():
    for e in operands(2, 5):
        if not any(map(math.isnan, e)):
            assert agree(linalg.max_abs, ref_max_abs, e), e


def test_sums_of_two_negative_zeros_are_positive_as_in_the_loop():
    z = ((-0.0, -0.0), (-0.0, -0.0))
    assert same(linalg.matvec(((1.0, 1.0), (1.0, 1.0)), (-0.0, -0.0)),
                (0.0, 0.0))
    assert same(linalg.matmul(((1.0, 1.0), (1.0, 1.0)), z),
                ((0.0, 0.0), (0.0, 0.0)))
    assert same(linalg.dot((1.0, -1.0), (-0.0, 0.0)), 0.0)


def test_integer_operands_stay_integers_as_in_the_loop():
    assert same(linalg.matvec(((1, 2), (3, 4)), (5, 6)), (17, 39))
    assert same(linalg.dot((1, 2), (3, 4)), 11)


def test_solve_and_inverse_kernels_are_the_generic_loop():
    for e in operands(6, 6):
        assert agree(linalg.solve, ref_solve, mat(e), e[4:]), e
        assert agree(linalg.inverse, ref_inverse, mat(e)), e


def test_solve_keeps_the_first_row_on_a_pivot_tie():
    rng = random.Random(7)
    for _ in range(500):
        a, b, d, r0, r1 = random_entries(rng, 5)
        for c in (a, -a):
            m = ((a, b), (c, d))
            assert agree(linalg.solve, ref_solve, m, (r0, r1)), m
            assert agree(linalg.inverse, ref_inverse, m), m
    # a tie whose answer depends on the row kept
    m = ((1.0, 1e-17), (-1.0, 1.0))
    assert same(linalg.solve(m, (0.1, 0.3)), ref_solve(m, (0.1, 0.3)))


@pytest.mark.parametrize("m", [
    ((0.0, 0.0), (0.0, 0.0)),
    ((0.0, 1.0), (-0.0, 2.0)),      # first column zero: the first check
    ((1.0, 2.0), (2.0, 4.0)),       # dependent rows: the second check
    ((0.5, 1.0), (1.0, 2.0)),
    ((2.0, 0.0), (3.0, 0.0)),
])
def test_singular_matrices_raise_as_in_the_loop(m):
    for rhs in ((1.0, 0.0), (0.3, -0.7)):
        assert outcome(linalg.solve, m, rhs) == outcome(ref_solve, m, rhs)
        assert outcome(linalg.solve, m, rhs)[0] == "raised"
    assert outcome(linalg.inverse, m) == ("raised", "singular matrix")


@pytest.mark.parametrize("n", [1, 3, 4])
def test_vec_sub_and_max_abs_keep_the_generic_loop_at_other_lengths(n):
    rng = random.Random(n)
    for _ in range(100):
        u, v = random_entries(rng, n), random_entries(rng, n)
        assert same(linalg.vec_sub(u, v), ref_vec_sub(u, v))
        assert same(linalg.max_abs(u), ref_max_abs(u))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_max_abs_is_nan_for_a_nan_in_any_position(n):
    for i in range(n):
        for fill in (0.0, 1.0, math.inf):
            v = [fill] * n
            v[i] = math.nan
            assert math.isnan(linalg.max_abs(tuple(v))), v


def test_max_abs_of_nothing_is_zero():
    assert same(linalg.max_abs(()), 0.0)
