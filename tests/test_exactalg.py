"""Exact linear algebra: frozen examples plus algebraic property tests."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from covcat.exactalg import (
    PRIME_BOUND,
    FieldSpec,
    GF,
    Matrix,
    QQ,
    _is_prime,
    echelon_basis,
    express_in_echelon,
    kernel_basis,
    rank_and_inverse,
)

from oracles import matrix_sum, naive_rank


def test_field_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        FieldSpec("Fp", 6)
    with pytest.raises(ValueError):
        FieldSpec("Fp")
    with pytest.raises(ValueError):
        FieldSpec("R")
    with pytest.raises(ValueError):
        FieldSpec("Q", 5)


@pytest.mark.parametrize("p", [2, 3, 41, 43, 2**31 - 1, 2**61 - 1])
def test_field_spec_accepts_primes(p):
    assert GF(p).p == p


# 561 is a Carmichael number; the others are the least strong pseudoprimes
# to the first 4, 9 and 12 prime bases, so fewer Miller–Rabin bases than
# the 13 used would accept them.
@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_field_spec_rejects_strong_pseudoprimes(n):
    with pytest.raises(ValueError, match="must be a prime"):
        GF(n)


def test_field_spec_rejects_moduli_beyond_the_primality_bound():
    for _ in range(2):  # a memoized primality test must not remember a pass
        with pytest.raises(ValueError, match="primality bound"):
            GF(2**127 - 1)
        with pytest.raises(ValueError, match="primality bound"):
            GF(PRIME_BOUND)


def test_is_prime_matches_trial_division_below_5000():
    def by_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(5000) if _is_prime(n)] == \
        [n for n in range(5000) if by_division(n)]


def test_scalar_parse_and_format_round_trip():
    assert QQ.parse("-3/2") == Fraction(-3, 2)
    assert QQ.format(Fraction(-3, 2)) == "-3/2"
    assert QQ.format(Fraction(4, 2)) == "2"
    f5 = GF(5)
    assert f5.parse("7") == 2
    assert f5.parse("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert f5.format(3) == "3"


# int() alone would read "1_0" as 10 and the Arabic-Indic "٣" as 3
NOT_EXACT = ["1_0", "\u0663", "1/\u0662", "\uff11", "1 /2", " 3", "3\n", "",
             "-", "+", "1/", "/2", "1//2", "1/2/3", "1.5", "1e3", "0x10", "--1"]


@pytest.mark.parametrize("text", NOT_EXACT)
def test_parse_accepts_only_a_sign_and_ascii_digits(text):
    for field in (QQ, GF(7)):
        with pytest.raises(ValueError):
            field.parse(text)


def test_parse_reads_signs_on_either_side():
    assert QQ.parse("+3") == 3 and QQ.parse("-0") == 0
    assert QQ.parse("1/-2") == QQ.parse("-1/2") == Fraction(-1, 2)
    assert QQ.parse("+6/+4") == Fraction(3, 2)
    assert GF(7).parse("-1") == 6 and GF(7).parse("007") == 0


def test_integral_rationals_are_ints():
    assert type(QQ.parse("4/2")) is int and QQ.parse("4/2") == 2
    assert type(QQ.scalar(Fraction(3))) is int
    assert type(QQ.inv(2)) is Fraction and QQ.inv(2) == Fraction(1, 2)
    assert QQ.format(QQ.parse("-6/4")) == "-3/2"
    assert QQ.format(QQ.parse("-6/3")) == "-2"


def test_field_equality_and_hash_are_on_kind_and_modulus():
    assert FieldSpec("Q") == QQ and hash(FieldSpec("Q")) == hash(QQ)
    assert hash(GF(7)) == hash(FieldSpec("Fp", 7))
    assert GF(7) == FieldSpec("Fp", 7)
    assert GF(7) != GF(11)
    assert GF(7) != QQ


def test_fields_survive_pickling():
    for field in (QQ, GF(7)):
        copy = pickle.loads(pickle.dumps(field))
        assert copy == field
        assert copy.add(3, 5) == field.add(3, 5)
        assert copy.inv(2) == field.inv(2)


_Q_SCALARS = st.one_of(st.integers(-40, 40),
                       st.builds(Fraction, st.integers(-40, 40),
                                 st.integers(1, 12)))


@settings(max_examples=200, deadline=None)
@given(a=_Q_SCALARS, b=_Q_SCALARS)
def test_rational_arithmetic_is_fraction_arithmetic_and_never_a_float(a, b):
    fa, fb = Fraction(a), Fraction(b)
    pairs = [(QQ.add(a, b), fa + fb), (QQ.sub(a, b), fa - fb),
             (QQ.mul(a, b), fa * fb), (QQ.neg(a), -fa)]
    if b != 0:
        pairs += [(QQ.inv(b), 1 / fb), (QQ.div(a, b), fa / fb)]
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(b)
    for got, want in pairs:
        assert type(got) in (int, Fraction)
        assert got == want


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(QQ, 3))[0] == []


def test_kernel_over_f2_forced():
    m = Matrix.from_rows(GF(2), [[1, 1]])
    assert kernel_basis(m)[0] == [(1, 1)]


def test_kernel_of_rank_one_matrix_matches_row_reduction_oracle():
    rows = [[1, 2, 3], [2, 4, 6]]
    m = Matrix.from_rows(QQ, rows)
    oracle_rank = naive_rank([[Fraction(x) for x in r] for r in rows], QQ)
    assert oracle_rank == 1
    kernel = kernel_basis(m)[0]
    assert len(kernel) == 3 - oracle_rank  # dimension 2
    for v in kernel:
        assert m.apply(v) == (Fraction(0), Fraction(0))
    assert naive_rank([list(v) for v in kernel], QQ) == len(kernel)


def test_rank_and_inverse_identity():
    for n in (1, 2, 4):
        rank, inv = rank_and_inverse(Matrix.identity(QQ, n))
        assert rank == n
        assert inv == Matrix.identity(QQ, n)


def test_rank_and_inverse_zero_matrix():
    rank, inv = rank_and_inverse(Matrix.zeros(QQ, 2, 2))
    assert rank == 0
    assert inv is None


def test_inverse_over_f2_verified_by_multiplication():
    m = Matrix.from_rows(GF(2), [[1, 1], [0, 1]])
    rank, inv = rank_and_inverse(m)
    assert rank == 2
    assert m @ inv == Matrix.identity(GF(2), 2)
    assert inv @ m == Matrix.identity(GF(2), 2)
    assert inv == Matrix.from_rows(GF(2), [[1, 1], [0, 1]])


def test_non_square_has_no_inverse():
    rank, inv = rank_and_inverse(Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0]]))
    assert rank == 2
    assert inv is None
    # full column rank, and still no inverse
    rank, inv = rank_and_inverse(Matrix.from_rows(QQ, [[1, 0], [0, 1], [1, 1]]))
    assert rank == 2
    assert inv is None
    assert rank_and_inverse(Matrix.zeros(QQ, 2, 0)) == (0, None)
    assert rank_and_inverse(Matrix.zeros(QQ, 0, 2)) == (0, None)


def test_express_in_echelon_round_trip():
    rows = [(Fraction(1), Fraction(0), Fraction(2)),
            (Fraction(0), Fraction(1), Fraction(-1))]
    pivots = echelon_basis(QQ, rows)[1]
    assert pivots == (0, 1)
    coeffs = express_in_echelon(list(rows), pivots,
                                (Fraction(3), Fraction(2), Fraction(4)), QQ)
    assert coeffs == (Fraction(3), Fraction(2))
    with pytest.raises(ValueError):
        express_in_echelon(list(rows), pivots,
                           (Fraction(0), Fraction(0), Fraction(1)), QQ)


FIELDS = [QQ, GF(2), GF(5)]


def _entries(field):
    if field.kind == "Q":
        # ints, integral Fractions and non-integral Fractions
        return st.one_of(st.integers(-4, 4),
                         st.builds(Fraction, st.integers(-4, 4),
                                   st.integers(1, 3)))
    return st.integers(0, field.p - 1)


def _matrices(field, max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(_entries(field), min_size=c, max_size=c),
                min_size=r, max_size=r)))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F2", "F5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_nullity(field, data):
    rows = data.draw(_matrices(field))
    m = Matrix.from_rows(field, rows)
    assert naive_rank([list(r) for r in m.entries], field) \
        + len(kernel_basis(m)[0]) == m.ncols


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F2", "F5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_is_canonical_and_annihilated(field, data):
    rows = data.draw(_matrices(field))
    m1 = Matrix.from_rows(field, rows)
    m2 = Matrix.from_rows(field, rows)
    (k1, pivots), (k2, _) = kernel_basis(m1), kernel_basis(m2)
    assert k1 == k2
    zero = (field.zero,) * m1.nrows
    for v in k1:
        assert m1.apply(v) == zero
    # leading entries strictly increase and are normalized to one
    leads = [next(i for i, c in enumerate(v) if c != field.zero) for v in k1]
    assert leads == sorted(leads) and len(set(leads)) == len(leads)
    for v, lead in zip(k1, leads):
        assert v[lead] == field.one
    # the pivots returned are the leading positions, one per dimension of
    # the kernel, and the basis is already the reduced echelon form
    assert pivots == tuple(leads)
    assert len(pivots) == m1.ncols - naive_rank(
        [[field.scalar(x) for x in r] for r in rows], field)
    assert echelon_basis(field, k1) == (k1, pivots)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F2", "F5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matrix_arithmetic_identities(field, data):
    n = data.draw(st.integers(1, 3))
    draw_sq = st.lists(st.lists(_entries(field), min_size=n, max_size=n),
                       min_size=n, max_size=n)
    a = Matrix.from_rows(field, data.draw(draw_sq))
    b = Matrix.from_rows(field, data.draw(draw_sq))
    c = Matrix.from_rows(field, data.draw(draw_sq))
    assert matrix_sum(a, b) @ c == matrix_sum(a @ c, b @ c)
    assert a @ matrix_sum(b, c) == matrix_sum(a @ b, a @ c)
    assert (a @ b) @ c == a @ (b @ c)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F2", "F5"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_is_two_sided_when_present(field, data):
    n = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(
        st.lists(_entries(field), min_size=n, max_size=n),
        min_size=n, max_size=n))
    m = Matrix.from_rows(field, rows)
    rank, inv = rank_and_inverse(m)
    assert rank == naive_rank([[field.scalar(x) for x in r] for r in rows], field)
    if inv is not None:
        ident = Matrix.identity(field, n)
        assert m @ inv == ident
        assert inv @ m == ident
