"""Four independent routes to the characteristic polynomial must agree.

On random small integer arrangements, some of whose independent subsets
have every maximal minor divisible by one prime (small or large):

- the Mobius sum over L(A), chi(A, t) = sum_X mu(X) t^(dim X);
- the nbc sets under a random hyperplane order, whose counts by size are
  the Whitney numbers |w_k| (Orlik-Terao, Arrangements of Hyperplanes,
  Ch. 3);
- point counts over admissible primes, interpolated (Athanasiadis, Adv.
  Math. 122, 1996);
- deletion-restriction, pi(A) = pi(A') + t pi(A'') for a random H.
"""

from hypothesis import given, settings, strategies as st

from cmarr.freeness import deletion, restriction
from cmarr.lattice import (Arrangement, admissible_primes, bad_primes,
                           build_lattice, char_poly_finite_field,
                           characteristic_polynomial, poincare_polynomial)
from cmarr.osalg import nbc_basis


@st.composite
def shared_prime_arrangements(draw):
    """Up to 7 covectors in Q^d, 2 <= d <= 4: small rows, plus for a few
    pairs (v, w) of them the row v + p w.  The 2x2 minors of {v, v + p w}
    are p times those of {v, w}, so p divides all of them and p is a bad
    prime whenever v and w are independent."""
    d = draw(st.integers(2, 4))
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    rows = draw(st.lists(vec, min_size=1, max_size=5))
    p = draw(st.sampled_from([2, 3, 5, 7, 10007]))
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.sampled_from(rows))
        w = draw(st.sampled_from(rows))
        row = [a + p * b for a, b in zip(v, w)]
        if any(row):
            rows.append(row)
    return Arrangement(d, rows), draw(st.randoms())


@settings(deadline=None, max_examples=120)
@given(shared_prime_arrangements())
def test_four_routes_agree(case):
    arr, rng = case
    lat = build_lattice(arr)
    chi = characteristic_polynomial(lat)
    pi = poincare_polynomial(lat)
    n = len(arr)

    order = list(range(n))
    rng.shuffle(order)
    assert nbc_basis(arr, order).sizes == pi.coeffs

    primes = admissible_primes(arr, arr.dim + 2)
    assert not bad_primes(arr).intersection(primes)
    assert char_poly_finite_field(arr, primes) == chi

    if n:
        h = rng.randrange(n)
        p_del = poincare_polynomial(build_lattice(deletion(arr, h)))
        p_rst = poincare_polynomial(build_lattice(restriction(arr, h)))
        assert pi == p_del + p_rst.shift(1)


def test_large_shared_prime_is_bad():
    # {(1, 0), (1, 10007)} has the single 2x2 minor 10007; the other two
    # pairs have minor +-1
    arr = Arrangement(2, [(1, 0), (0, 1), (1, 10007)])
    assert bad_primes(arr) == {10007}
    assert char_poly_finite_field(arr, [2, 3, 5]) \
        == characteristic_polynomial(build_lattice(arr))
