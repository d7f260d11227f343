import random

import pytest
from hypothesis import given, settings, strategies as st

import qlat.matrices
from qlat.laurent import LaurentPoly, QFraction, QTElement
from qlat.matrices import QMatrix, _det_bareiss_laurent, _det_cofactor, det_one_plus_xs


def L(*terms):
    return LaurentPoly.from_terms(terms)


one = LaurentPoly.one()
q = LaurentPoly.q_power(1)
zero = LaurentPoly.zero()


def worked_gram():
    return QMatrix([[one, zero, q],
                    [zero, one, q],
                    [q, q, L((0, 1), (2, 2))]])


def test_det_examples():
    assert worked_gram().det() == one
    m = QMatrix([[L((0, 1), (2, 1)), -one], [-one, LaurentPoly.from_int(2)]])
    assert m.det() == L((0, 1), (2, 2))
    assert QMatrix.identity(5, one).det() == one


def test_det_non_square():
    with pytest.raises(ValueError):
        QMatrix([[one, zero]]).det()


def test_star_examples():
    m = QMatrix([[q, zero], [one, LaurentPoly.q_power(-1)]])
    assert m.star() == QMatrix([[LaurentPoly.q_power(-1), one], [zero, q]])
    assert QMatrix.identity(3, one).star() == QMatrix.identity(3, one)
    sym = QMatrix([[LaurentPoly.from_int(2), one], [one, LaurentPoly.from_int(3)]])
    assert sym.star() == sym


def test_star_is_antihomomorphism():
    rng = random.Random(5)

    def rp():
        return LaurentPoly.from_terms((k, rng.randint(-2, 2)) for k in range(-1, 2))

    for _ in range(50):
        a = QMatrix([[rp() for _ in range(3)] for _ in range(3)])
        b = QMatrix([[rp() for _ in range(3)] for _ in range(3)])
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a


def test_inverse_worked_example():
    ginv = worked_gram().inverse("unit")
    expect = QMatrix([
        [L((0, 1), (2, 1)), L((2, 1)), LaurentPoly.q_power(1, -1)],
        [L((2, 1)), L((0, 1), (2, 1)), LaurentPoly.q_power(1, -1)],
        [LaurentPoly.q_power(1, -1), LaurentPoly.q_power(1, -1), one]])
    assert ginv == expect
    assert worked_gram() * ginv == QMatrix.identity(3, one)


def test_inverse_diag_units():
    d = QMatrix([[q, zero], [zero, LaurentPoly.q_power(-1)]])
    assert d.inverse("unit") == QMatrix([[LaurentPoly.q_power(-1), zero], [zero, q]])


def test_inverse_fraction_mode():
    r = QMatrix([[L((0, 1), (2, 2))]])
    inv = r.inverse("fraction")
    assert inv[0, 0] == QFraction(one, L((0, 1), (2, 2)))
    with pytest.raises(ValueError, match="fraction"):
        r.inverse("unit")


def test_inverse_singular():
    s = QMatrix([[one, one], [one, one]])
    with pytest.raises(ValueError):
        s.inverse("unit")
    with pytest.raises(ValueError):
        s.inverse("fraction")


def test_bareiss_matches_cofactor():
    rng = random.Random(3)

    def rp():
        return LaurentPoly.from_terms((k, rng.randint(-2, 2)) for k in range(-1, 2))

    for _ in range(40):
        n = rng.choice([2, 3, 4, 5, 6])
        ent = [[rp() for _ in range(n)] for _ in range(n)]
        assert _det_cofactor(ent, zero) == _det_bareiss_laurent(ent)


def test_det_star_and_signed_permutation_invariance():
    rng = random.Random(4)

    def rp():
        return LaurentPoly.from_terms((k, rng.randint(-2, 2)) for k in range(-1, 2))

    for _ in range(40):
        n = rng.choice([2, 3, 4])
        m = QMatrix([[rp() for _ in range(n)] for _ in range(n)])
        assert m.star().det() == m.det().bar()
        perm = list(range(n))
        rng.shuffle(perm)
        ent = [[zero] * n for _ in range(n)]
        for i, p in enumerate(perm):
            ent[p][i] = one if rng.random() < 0.5 else -one
        pm = QMatrix(ent)
        assert (pm.transpose() * m * pm).det() == m.det()


def test_unit_inverse_identity_check_randomized():
    # any matrix with unit determinant inverts exactly in the ring
    rng = random.Random(6)
    for _ in range(30):
        n = rng.choice([2, 3])
        # build a unimodular matrix as a product of elementary ones
        m = QMatrix.identity(n, one)
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            ent = [[one if a == b else zero for b in range(n)] for a in range(n)]
            ent[i][j] = LaurentPoly.from_terms(
                (k, rng.randint(-1, 1)) for k in range(-1, 2))
            m = m * QMatrix(ent)
        d = m.det()
        assert d.unit_value() is not None
        assert m * m.inverse("unit") == QMatrix.identity(n, one)


def test_qt_determinant_and_inverse():
    g = QMatrix([[QTElement.one(), QTElement.zero(), QTElement.monomial(1, 1, 1)],
                 [QTElement.zero(), QTElement.one(), QTElement.monomial(1, 1, 1)],
                 [QTElement.monomial(1, 1, 1), QTElement.monomial(1, 1, 1),
                  QTElement(L((0, 1), (2, 2)))]])
    assert g.det() == QTElement.one()
    assert g * g.inverse("unit") == QMatrix.identity(3, QTElement.one())


def test_qt_det_matches_t_specializations():
    rng = random.Random(7)

    def rqt():
        return QTElement(
            LaurentPoly.from_terms((k, rng.randint(-1, 1)) for k in range(0, 2)),
            LaurentPoly.from_terms((k, rng.randint(-1, 1)) for k in range(0, 2)))

    for _ in range(30):
        n = rng.choice([2, 3, 5])
        m = QMatrix([[rqt() for _ in range(n)] for _ in range(n)])
        d = m.det()
        assert d.specialize(t_val=1) == m.specialize_t(1).det()
        assert d.specialize(t_val=-1) == m.specialize_t(-1).det()


def test_block_triangular_multiplicativity():
    a = QMatrix([[one, q], [zero, L((0, 1), (2, 1))]])
    c = QMatrix([[L((0, 2)), zero], [q, L((1, 1), (0, 3))]])
    big = QMatrix([[a[0, 0], a[0, 1], q, q],
                   [a[1, 0], a[1, 1], one, zero],
                   [zero, zero, c[0, 0], c[0, 1]],
                   [zero, zero, c[1, 0], c[1, 1]]])
    assert big.det() == a.det() * c.det()


def test_empty_matrix():
    e = QMatrix([])
    assert e.det() == 1
    assert e.rows == 0 and e.cols == 0


def test_zero_row_matrix_shape():
    m = QMatrix([], row_labels=(), col_labels=(1, 2, 3))
    assert m.rows == 0 and m.cols == 3
    assert m.transpose().rows == 3 and m.transpose().cols == 0


def test_labels_unique_required():
    with pytest.raises(ValueError):
        QMatrix([[one, zero]], row_labels=(1,), col_labels=(1, 1))


def test_dimension_and_mode_errors():
    a = QMatrix([[one, zero]])
    b = QMatrix([[one, zero]])
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + QMatrix([[one]])
    with pytest.raises(ValueError):
        QMatrix([[one]]).inverse("bogus")
    with pytest.raises(ValueError):
        a.mul_vector((one,))
    with pytest.raises(ValueError):
        QMatrix([[one, zero], [one]])


# -- det(I + x S): the integer kernel against Laurent Bareiss ----------------


def laurent_det_one_plus_qks(s, k):
    """det(I + q^k S) by Bareiss over Z[q,q^-1]: the oracle."""
    if not s:
        return one
    return QMatrix([[LaurentPoly.q_power(k, x) + (i == j) for j, x in enumerate(row)]
                    for i, row in enumerate(s)]).det()


def kernel_det(s, k):
    return LaurentPoly.from_terms((k * i, c) for i, c in enumerate(det_one_plus_xs(s)))


def random_symmetric(rng, r, lo, hi):
    s = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1):
            s[i][j] = s[j][i] = rng.randint(lo, hi)
    return s


def test_det_one_plus_xs_examples():
    assert det_one_plus_xs([]) == [1]
    assert det_one_plus_xs([[5]]) == [1, 5]
    assert det_one_plus_xs([[0, 0], [0, 0]]) == [1, 0, 0]
    # e_1 = trace, e_2 = det: 1 + 4x + (2 - 9)x^2
    assert det_one_plus_xs([[1, 3], [3, 2]]) == [1, 3, -7]
    with pytest.raises(ValueError, match="symmetric"):
        det_one_plus_xs([[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        det_one_plus_xs([[0, 1]])


def test_det_one_plus_xs_matches_laurent_bareiss_randomized():
    rng = random.Random(401)
    cases = [([], 2), ([[0]], 1), ([[-3]], -2), ([[7]], 5)]
    for _ in range(400):
        cases.append((random_symmetric(rng, rng.randint(1, 9), -3, 3),
                      rng.choice((-3, -2, -1, 1, 2, 5))))
    for s, k in cases:
        assert kernel_det(s, k) == laurent_det_one_plus_qks(s, k), (s, k)


def test_det_one_plus_xs_large_entries_take_several_primes(monkeypatch):
    rng = random.Random(12)
    s = random_symmetric(rng, 12, -10 ** 9, 10 ** 9)
    primes = []
    real = qlat.matrices._charpoly_mod
    monkeypatch.setattr(qlat.matrices, "_charpoly_mod", lambda s, p: primes.append(p) or real(s, p))
    e = det_one_plus_xs(s)
    assert len(primes) >= 3
    assert e[1] == sum(s[i][i] for i in range(12)) and e[12] == QMatrix(s).det()
    assert kernel_det(s, 1) == laurent_det_one_plus_qks(s, 1)


def test_det_one_plus_xs_reports_an_exhausted_prime_table(monkeypatch):
    monkeypatch.setattr(qlat.matrices, "_PRIMES", qlat.matrices._PRIMES[:1])
    assert det_one_plus_xs([[3, 1], [1, 2]]) == [1, 5, 5]
    with pytest.raises(ValueError, match="too large"):
        det_one_plus_xs(random_symmetric(random.Random(3), 12, -10 ** 9, 10 ** 9))


def is_prime_below_3e24(n):
    """Miller-Rabin with the 13 prime bases 2..41: a proof of primality for
    n < 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, 2017)."""
    assert n < 3317044064679887385961981
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_crt_primes_are_prime():
    assert is_prime_below_3e24(2417851639229258349412301)  # 2^81 - 51
    assert not is_prime_below_3e24(2 ** 81 - 1)
    assert not is_prime_below_3e24(3825123056546413051)  # a strong pseudoprime to bases 2..23
    primes = qlat.matrices._PRIMES
    assert len(set(primes)) == len(primes) == 48
    assert all(is_prime_below_3e24(p) for p in primes)


@st.composite
def symmetric_and_exponent(draw):
    r = draw(st.integers(0, 7))
    entries = {(i, j): draw(st.integers(-20, 20)) for i in range(r) for j in range(i + 1)}
    s = [[entries[max(i, j), min(i, j)] for j in range(r)] for i in range(r)]
    return s, draw(st.integers(-4, 4).filter(bool))


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(symmetric_and_exponent())
def test_det_one_plus_xs_property(case):
    s, k = case
    assert kernel_det(s, k) == laurent_det_one_plus_qks(s, k)
