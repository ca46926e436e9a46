"""Integer primality and factorization."""

from hypothesis import given, strategies as st

from ffzeta.integers import _pollard_rho, factorint, is_prime


def test_is_prime_anchors():
    primes = (2, 3, 37, 41, 65537, 2**31 - 1, 2**61 - 1, 2305843009213693921)
    assert all(is_prime(n) for n in primes)
    # Carmichael numbers and strong pseudoprimes to the first few bases
    composites = (0, 1, 4, 561, 41041, 3215031751, 2**64 + 1, 65537**2)
    assert not any(is_prime(n) for n in composites)


def test_pollard_rho_splits_semiprime():
    n = 1000003 * 1000033
    f, steps = _pollard_rho(n, 2**20)
    assert f in (1000003, 1000033) and 0 < steps <= 2**20


def test_pollard_rho_reports_exhausted_budget():
    f, steps = _pollard_rho(4294967311 * 4294967357, 256)
    assert f is None and steps >= 256


@given(st.integers(1, 2**64))
def test_factorint_reassembles(n):
    out = factorint(n)
    prod = 1
    for r, k in out.items():
        assert is_prime(r) and k >= 1
        prod *= r**k
    assert prod == n
