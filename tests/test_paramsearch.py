from __future__ import annotations

import math

import pytest

from steinerkit.errors import BadParams, Budget
from steinerkit.gf import is_prime
from steinerkit.paramsearch import (
    CyclicAssemblyParams,
    SpectrumWitness,
    cyclic_assembly_params,
    is_admissible,
    prime_for_even_group,
    prime_for_odd_group,
    realized_order,
    spectrum_bound,
    spectrum_plan,
    split_by_prime_support,
    td_available,
    witness_for,
)


def test_is_admissible():
    assert is_admissible(7, 3)
    assert not is_admissible(8, 3)
    assert is_admissible(6859, 3)
    assert is_admissible(13, 4)
    assert not is_admissible(10, 4)


def test_admissible_pair_type():
    from steinerkit.paramsearch import AdmissiblePair

    assert AdmissiblePair(7, 3).v == 7
    with pytest.raises(ValueError):
        AdmissiblePair(8, 3)


def test_prime_for_odd_group_examples():
    assert prime_for_odd_group(3, 3) == (19, 3)
    assert prime_for_odd_group(3, 1) == (7, 1)
    assert prime_for_odd_group(3, 5) == (31, 5)


def test_prime_for_odd_group_postconditions():
    for k, h in [(3, 1), (3, 3), (3, 5), (3, 7), (4, 3), (5, 1), (5, 3)]:
        p, t = prime_for_odd_group(k, h)
        assert is_prime(p)
        assert p == 1 + k * (k - 1) * t
        assert t % 2 == 1 and t % h == 0
        assert (p - 1 - k * (k - 1) * h) % (2 * k * (k - 1) * h) == 0


def test_prime_for_even_group_k3_h4():
    p, n = prime_for_even_group(3, 4)
    assert (p, n) == (19, 9)


def test_prime_for_even_group_rejects_13():
    # p=13 gives n=6 and n(n-1)=30, not divisible by 4k=12
    assert 13 == 1 + 2 * 6
    assert (6 * 5) % 12 != 0
    p, _ = prime_for_even_group(3, 4)
    assert p != 13


def test_prime_for_even_group_k5_conditions():
    k, h = 5, 4
    p, n = prime_for_even_group(k, h)
    assert is_prime(p) and p > h
    assert p == 1 + (k - 1) * n
    assert (n * (n - 1)) % k == 0
    if k % 4 == 3:
        assert (n * (n - 1)) % (4 * k) == 0
    assert math.gcd(p - 1, h) == math.gcd(k - 1, h)


def test_prime_for_even_group_preconditions():
    with pytest.raises(ValueError):
        prime_for_even_group(3, 6)  # not a multiple of 4
    with pytest.raises(BadParams, match=r"gcd\(k,h\) = 4 != 1"):
        prime_for_even_group(4, 8)  # gcd(k,h) != 1
    with pytest.raises(ValueError, match="k must be at least 3"):
        prime_for_even_group(1, 4)  # p = 1 + (k-1)n would never grow


@pytest.mark.parametrize("h", [0, -3, -4])
@pytest.mark.parametrize("search", [prime_for_odd_group, prime_for_even_group,
                                    cyclic_assembly_params])
def test_group_order_below_1_is_refused(search, h):
    # an odd h < 0 made the odd scan step downwards, below SCAN_LIMIT forever
    with pytest.raises(BadParams, match=f"^group order h={h} must be at least 1$"):
        search(3, h)


def test_split_by_prime_support():
    assert split_by_prime_support(2, 3) == (1, 2)
    assert split_by_prime_support(12, 6) == (12, 1)
    assert split_by_prime_support(20, 4) == (4, 5)


def test_cyclic_assembly_params_k3_h2():
    params = cyclic_assembly_params(3, 2)
    assert (params.h0, params.h_coprime, params.pi, params.q) == (1, 2, 9, 7)
    assert params.s == 1
    assert (params.p, params.y, params.w) == (379, 19, 21)
    assert params.p == 1 + 21 * 18


def test_cyclic_assembly_params_k3_h2_s2():
    params = cyclic_assembly_params(3, 2, s_min=2)
    assert params.s == 2
    assert (params.p, params.y, params.w) == (757, 37, 21)
    assert params.p == 1 + 21 * 36


def test_cyclic_assembly_params_gcd_violation():
    with pytest.raises(BadParams, match=r"gcd\(k-1, h\) = 3 has an odd factor"):
        cyclic_assembly_params(4, 3)


def test_cyclic_assembly_params_strict_case():
    params = cyclic_assembly_params(4, 4)
    assert params.gcd_condition_ok
    g = math.gcd(params.p - 1, params.h)
    # every prime of the gcd divides k
    while g % 2 == 0:
        g //= 2
    assert g == 1


def test_td_available():
    assert td_available(3, 6)
    assert not td_available(4, 6)
    assert td_available(5, 9)
    assert td_available(3, 2)
    assert td_available(4, 1)
    assert not td_available(4, 2)


def test_realized_order_formula():
    # plug a=49, t=0 and a=49, t=48 into the realized-order formula
    assert realized_order(3, 7, 7, 49, 0) == 7 + 7 * 7 * 6 * 49 == 14413
    assert realized_order(3, 7, 7, 49, 48) == 14413 + 6 * 48
    # consecutive a intervals abut: max at a meets min at a+1
    assert realized_order(3, 7, 7, 49, 48) + 6 == realized_order(3, 7, 7, 50, 0)


def test_interval_abutment_inequality():
    # for a >= w*x1, interval [a] end + k(k-1) >= interval [a+1] start
    k, w, x1 = 3, 7, 7
    kk = k * (k - 1)
    for a in range(w * x1, w * x1 + 20):
        end_a = realized_order(k, w, x1, a, a - 1)
        start_next = realized_order(k, w, x1, a + 1, 0)
        assert end_a + kk >= start_next


def test_witness_invariants():
    w = witness_for(3, 7, 7, realized_order(3, 7, 7, 49, 17))
    assert isinstance(w, SpectrumWitness)
    assert (w.a, w.t) == (49, 17)
    assert w.y > 3 * w.x and w.a >= 49


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_spectrum_plan_covers_window():
    k, w = 3, 7
    x1s = [7, 9]
    bound = spectrum_bound(k, w, x1s)
    plan = spectrum_plan(k, w, x1s, (bound, bound + 2000))
    assert plan.uncovered == ()
    admissible = [u for u in range(bound, bound + 2001) if is_admissible(u, 3)]
    assert len(plan.witnesses) == len(admissible)
    for wit in plan.witnesses:
        assert wit.u % 6 == wit.x1 % 6


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_spectrum_plan_uncovered_class():
    k, w = 3, 7
    bound = spectrum_bound(k, w, [7])
    plan = spectrum_plan(k, w, [7], (bound, bound + 600))
    # u = 3 mod 6 values are admissible but in no provided class
    assert plan.uncovered
    assert all(u % 6 == 3 for u in plan.uncovered)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_spectrum_plan_window_below_bound():
    bound = spectrum_bound(3, 7, [7])
    with pytest.raises(BadParams, match=f"^window starts below coverage bound {bound}$"):
        spectrum_plan(3, 7, [7], (100, 200))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_spectrum_plan_refuses_an_empty_window():
    bound = spectrum_bound(3, 7, [7])
    with pytest.raises(BadParams, match=rf"^window \[{bound}, {bound - 5}\] is empty$"):
        spectrum_plan(3, 7, [7], (bound, bound - 5))
