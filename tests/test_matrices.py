import random

import pytest

from qlat.laurent import LaurentPoly, QFraction, QTElement
from qlat.matrices import QMatrix, _det_bareiss_laurent, _det_cofactor


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
