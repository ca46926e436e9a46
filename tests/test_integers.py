"""Integer primality and factorization."""

import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from ffzeta import errors, integers
from ffzeta.integers import _pollard_rho, factor_group_order, factorint, is_prime


def test_is_prime_anchors():
    primes = (2, 3, 37, 41, 65537, 2**31 - 1, 2**61 - 1, 2305843009213693921)
    assert all(is_prime(n) for n in primes)
    # Carmichael numbers and strong pseudoprimes to the first few bases
    composites = (0, 1, 4, 561, 41041, 3215031751, 2**64 + 1, 65537**2)
    assert not any(is_prime(n) for n in composites)


def test_is_prime_past_base_37():
    # psi_12 and psi_13: the least strong pseudoprimes to the primes up to
    # 37 and up to 41; the first needs base 41, the second the Lucas test
    psi12 = 399165290221 * 798330580441
    psi13 = 3317044064679887385961981
    assert not is_prime(psi12) and not is_prime(psi13)
    assert factorint(psi12) == {399165290221: 1, 798330580441: 1}
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)
    assert not is_prime((2**89 - 1) * (2**61 - 1)) and not is_prime((2**89 - 1) ** 2)


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


@pytest.mark.parametrize("n", [0, -1, -(2**70)])
def test_factorint_rejects_nonpositive(n):
    # trial division would divide 0 by 2 for ever
    with pytest.raises(errors.MalformedInputError, match="n >= 1"):
        factorint(n)


@pytest.mark.parametrize("q,delta", [(7, 0), (7, -3), (1, 4), (0, 1), (-5, 2)])
def test_group_order_rejects_bad_arguments(q, delta):
    # delta = 0 makes q^0 - 1 = 0, and q = 1 makes every q^j - 1 = 0
    with pytest.raises(errors.MalformedInputError, match="q >= 2, delta >= 1"):
        factor_group_order(q, delta)


@given(st.integers(2, 2**12), st.integers(1, 24))
def test_group_order_split_reassembles(q, delta):
    """The Phi_j(q) split gives the factorization of q^delta - 1; q = 2
    has Phi_1(2) = 1.  Up to 2^64, where factorint always succeeds."""
    assume(q**delta <= 2**64)
    assert factor_group_order(q, delta) == factorint(q**delta - 1)


def test_group_order_shares_one_budget(monkeypatch):
    """Each rho call gets what the earlier ones in the call left over."""
    real, seen = integers._pollard_rho, []

    def recording(n, budget):
        f, steps = real(n, budget)
        seen.append((budget, steps))
        return f, steps

    monkeypatch.setattr(integers, "_pollard_rho", recording)
    # q = 1 mod ab and q = -1 mod cd, so both parts of q^2 - 1 = (q - 1)(q + 1)
    # hold a product of two 20-bit primes past trial division
    a, b, c, d = 1000003, 1000033, 1000037, 1000039
    q = 1 + a * b * (-2 * pow(a * b, -1, c * d) % (c * d))
    assert set(factor_group_order(q, 2)) >= {a, b, c, d}
    assert len(seen) >= 2 and seen[0][0] == integers.RHO_BUDGET
    for (budget, steps), (after, _) in zip(seen, seen[1:]):
        assert after == budget - steps


FULL_TABLE = integers._trial_primes(integers.TRIAL_BOUND)
FULL_BLOCKS = integers._trial_table(integers.TRIAL_BOUND)


def _prime_below(b):
    p = b - 1
    while not is_prime(p):
        p -= 1
    return p


# 13 * 17 and the squares of the largest primes below each table size are
# the numbers whose last trial prime sits at the top of a sized table
SIEVE_EDGES = [13 * 17, 2**32 + 1, 65521**2 * 65537, 65537**2, 2**64 + 1] + [
    _prime_below(1 << k) ** 2 for k in range(4, 17)
]


def factored(f, *args, full):
    """(f(*args), the numbers left for is_prime after trial division); with
    full, trial division runs over every prime below 2^16."""
    seen = []

    def recording(m):
        seen.append(m)
        return is_prime(m)

    table = (lambda bound: FULL_BLOCKS) if full else integers._trial_table
    with mock.patch.object(integers, "is_prime", recording), mock.patch.object(
        integers, "_trial_table", table
    ):
        return f(*args), seen


def test_sized_tables_are_prefixes_of_the_full_one():
    for k in range(4, 17):
        table = integers._trial_primes(1 << k)
        assert table == FULL_TABLE[: len(table)]
        assert table[-1] == _prime_below(1 << k)


@given(st.integers(1, 2**34))
def test_sized_sieve_factors_as_the_full_table(n):
    """The table sized to n leaves trial division the same cofactors; up to
    2^34 every table size from 16 to 2^16 is drawn."""
    assert factored(factorint, n, full=False) == factored(factorint, n, full=True)


@pytest.mark.parametrize("n", SIEVE_EDGES)
def test_sized_sieve_edges(n):
    assert factored(factorint, n, full=False) == factored(factorint, n, full=True)


@given(st.integers(2, 2**12), st.integers(1, 24))
def test_sized_sieve_group_orders_as_the_full_table(q, delta):
    assume(q**delta <= 2**64)
    got = factored(factor_group_order, q, delta, full=False)
    assert got == factored(factor_group_order, q, delta, full=True)


def loop_parts(n: int, parts: tuple) -> dict:
    """``integers._factor_parts`` with trial division by every table prime
    in turn, the loop that the block gcds replace: the reference for it.  It calls ``is_prime`` and ``_pollard_rho`` through
    the module, so a spy sees both."""
    out: dict = {}
    for d in (2, 3, 5):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    bound = min(integers.TRIAL_BOUND, max(16, 1 << math.isqrt(n).bit_length()))
    for d in integers._trial_primes(bound):
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    stack = []
    for m in parts:
        for ell in out:
            while m % ell == 0:
                m //= ell
        stack.append(m)
    budget = integers.RHO_BUDGET
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if integers.is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f, steps = integers._pollard_rho(m, budget)
        if f is None:
            raise errors.CapExceededError(
                f"the budget of {integers.RHO_BUDGET} Pollard rho steps ran out "
                f"on a {m.bit_length()}-bit composite factor"
            )
        budget -= steps
        stack.append(f)
        stack.append(m // f)
    return out


def spied(f, *args, parts=None):
    """(f(*args) or the CapExceededError message, the arguments of every
    ``_pollard_rho`` call, in order); parts, if given, stands in for
    ``integers._factor_parts``."""
    seen, real = [], integers._pollard_rho

    def rho(n, budget):
        seen.append((n, budget))
        return real(n, budget)

    with mock.patch.object(integers, "_pollard_rho", rho), mock.patch.object(
        integers, "_factor_parts", parts or integers._factor_parts
    ):
        try:
            out = f(*args)
        except errors.CapExceededError as ex:
            out = str(ex)
    return out, seen


# the first and last prime of every block of the full table, and the two
# largest primes below 2^16
BLOCK_EDGES = sorted(
    {block[0] for _, block in FULL_BLOCKS[1]} | {block[-1] for _, block in FULL_BLOCKS[1]}
    | {65519, 65521}
)
# primes past the trial bound, up to 2^20
PAST_BOUND = [65537, 65539, 65543, 65551, 1000003, 1000033, 1048573]
PRIME_POWERS = st.sampled_from(FULL_TABLE[:40]).flatmap(
    lambda d: st.integers(1, math.floor(math.log(65535, d))).map(lambda k: d**k)
)


def products(*lists):
    return st.tuples(*lists).map(lambda xs: math.prod(v for x in xs for v in x))


@settings(max_examples=300)
@given(
    st.one_of(
        products(
            st.lists(st.sampled_from(BLOCK_EDGES), max_size=4),
            st.lists(PRIME_POWERS, max_size=3),
            st.lists(st.sampled_from(PAST_BOUND), max_size=3),
            st.lists(st.sampled_from([2, 3, 5]), max_size=6),
        ),
        # past 2^32 with no factor below 2^16
        products(st.lists(st.sampled_from(PAST_BOUND), min_size=2, max_size=4)).filter(
            lambda n: n > 2**32
        ),
    )
)
def test_block_gcds_divide_as_the_loop(n):
    """The same factorization and the same ``_pollard_rho`` calls as trial
    division by every table prime in turn, on n built from the primes at
    the block edges, prime powers below 2^16 and primes past 2^16."""
    assert BLOCK_EDGES[0] == 7 and BLOCK_EDGES[-1] == 65521
    assert spied(factorint, n) == spied(factorint, n, parts=loop_parts)


@given(st.integers(2, 2**20), st.integers(1, 8))
def test_block_gcds_split_group_orders_as_the_loop(q, delta):
    assert spied(factor_group_order, q, delta) == spied(
        factor_group_order, q, delta, parts=loop_parts
    )


def test_unfactorable_parts_end_as_the_loop():
    """Phi_3(q) of the CLI's 61-bit CUBIC_Q has a part that rho does not
    split within its budget: the same rho calls, and the same
    CapExceededError."""
    q = 2244298144489180309
    got = spied(factor_group_order, q, 3)
    assert got[0].startswith(f"the budget of {integers.RHO_BUDGET} Pollard rho steps ran out")
    assert got == spied(factor_group_order, q, 3, parts=loop_parts)
