"""Exact-arithmetic tests for the admissibility module.

Expected values are frozen from hand derivations (documented alongside the
repository notes): with p = q = 2, n = 1 the critical weights are 3/4 and 7/8,
the second-order beta window at mu = 9/10 is (5/8, 7/10), and the fourth-order
window at mu = 19/20, eps = 0 is (19/24, 13/15).
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from parabolab.exponents import (DEFAULT_EPSILON, BetaWindow, ExponentConfig, Exponents,
                                 StructureExponents, admissibility_report, as_number, beta_window,
                                 check_dimensional, check_F2_exponents, kappa_exponent)


def cfg2(mu="9/10", p=2, q=2, n=1):
    return ExponentConfig(p=p, q=q, n=n, mu=mu, order="second")


def cfg4(mu="19/20", p=2, q=2, n=1):
    return ExponentConfig(p=p, q=q, n=n, mu=mu, order="fourth")


# ---------------------------------------------------------------- coercion

def test_as_number_exact_kinds():
    assert as_number(2) == F(2) and isinstance(as_number(2), F)
    assert as_number("9/10") == F(9, 10)
    assert as_number(F(1, 3)) == F(1, 3)
    x = as_number(0.9)
    assert isinstance(x, float) and x == 0.9


def test_as_number_rejects_bool_and_junk():
    with pytest.raises(TypeError):
        as_number(True)
    with pytest.raises(TypeError):
        as_number(None)


# ---------------------------------------------------------------- construction

def test_config_validation():
    with pytest.raises(ValueError):
        ExponentConfig(p=1, q=2, n=1, mu="1/2")
    with pytest.raises(ValueError):
        ExponentConfig(p=2, q=2, n=0, mu="3/4")
    with pytest.raises(ValueError):
        ExponentConfig(p=2, q=2, n=1, mu="1/2")  # mu must exceed 1/p
    with pytest.raises(ValueError):
        ExponentConfig(p=2, q=2, n=1, mu="11/10")
    with pytest.raises(ValueError):
        ExponentConfig(p=2, q=2, n=1, mu="3/4", order="sixth")


def test_trace_exponent_exact():
    assert cfg2().trace_exponent == F(2, 5)
    assert cfg4().trace_exponent == F(9, 20)


# ---------------------------------------------------------------- mu0

def test_mu0_second_order_frozen():
    rep = check_dimensional(cfg2())
    assert rep.mu0 == F(3, 4)
    assert isinstance(rep.mu0, F)
    assert rep.admissible
    assert rep.dimensional_sum == F(3, 2) and rep.dimensional_bound == 2


def test_mu0_fourth_order_frozen():
    rep = check_dimensional(cfg4())
    assert rep.mu0 == F(7, 8)
    assert rep.admissible
    assert rep.dimensional_sum == F(5, 2) and rep.dimensional_bound == 3
    assert rep.compatibility_needed is True


def test_mu_at_mu0_is_inadmissible():
    # strict inequality: equality must fail
    assert not check_dimensional(cfg2(mu="3/4")).admissible
    assert not check_dimensional(cfg4(mu="7/8")).admissible


def test_dimensional_failure():
    # second order with n/q too large: 2/p + n/q = 1 + 2 = 3 >= 2
    bad = ExponentConfig(p=2, q=2, n=4, mu="9/10", order="second")
    assert not check_dimensional(bad).admissible


def test_dimensional_report_names_the_conditions_it_fails():
    assert check_dimensional(cfg2()).violated == ()
    assert check_dimensional(cfg2(mu="3/4")).violated == ("mu > mu_0 = 1/p + n/2q",)
    # 4/p + n/q = 2 + 1/2 < 3 holds, mu = 7/8 = mu0 fails
    assert check_dimensional(cfg4(mu="7/8")).violated == ("mu > mu_0 = 1/p + n/4q + 1/4",)
    both = ExponentConfig(p=2, q=2, n=4, mu="9/10", order="second")
    assert check_dimensional(both).violated == ("2/p + n/q < 2", "mu > mu_0 = 1/p + n/2q")


def test_compatibility_threshold_second_order():
    # needed iff 2*mu > 1 + 2/p + 1/q; p=q=2 gives threshold mu = 5/4 > 1
    assert check_dimensional(cfg2(mu="9/10")).compatibility_needed is False
    # p=4, q=2: threshold 2*mu > 2, i.e. mu > 1; p=8, q=8: 2mu > 1+1/4+1/8=11/8
    c = ExponentConfig(p=8, q=8, n=1, mu="3/4", order="second")
    assert check_dimensional(c).compatibility_needed is True
    c = ExponentConfig(p=8, q=8, n=1, mu="11/16", order="second")
    assert check_dimensional(c).compatibility_needed is False


# ---------------------------------------------------------------- windows

def test_beta_window_second_frozen():
    w = beta_window(cfg2(), DEFAULT_EPSILON)
    assert (w.lo, w.hi) == (F(5, 8), F(7, 10))
    assert not w.empty
    assert w.midpoint() == F(53, 80)


def test_beta_window_fourth_frozen_eps0():
    w = beta_window(cfg4(), epsilon=0)
    assert (w.lo, w.hi) == (F(19, 24), F(13, 15))
    assert not w.empty


def test_beta_window_fourth_default_eps():
    w = beta_window(cfg4(), DEFAULT_EPSILON)
    assert w.lo == F(19, 24)
    assert w.hi == F(13, 15) - F(1, 1000)


def test_window_empty_at_mu0_and_midpoint_raises():
    w = beta_window(cfg2(mu="3/4"), DEFAULT_EPSILON)
    assert w.empty
    with pytest.raises(ValueError):
        w.midpoint()


def test_window_nonempty_iff_mu_above_mu0():
    # over a deterministic sample of rational configurations
    rng = random.Random(7)
    checked = 0
    for _ in range(400):
        p = F(rng.randint(11, 80), 10)
        q = F(rng.randint(11, 80), 10)
        n = rng.randint(1, 2)
        order = rng.choice(["second", "fourth"])
        mu = F(rng.randint(1, 200), 200)
        try:
            cfg = ExponentConfig(p=p, q=q, n=n, mu=mu, order=order)
        except ValueError:
            continue
        rep = check_dimensional(cfg)
        if not rep.dimensional_sum < rep.dimensional_bound:
            continue
        w = beta_window(cfg, epsilon=0)
        assert (not w.empty) == (cfg.mu > rep.mu0), (
            f"window/mu0 mismatch at p={p}, q={q}, n={n}, mu={mu}, {order}"
        )
        checked += 1
    assert checked > 100


# ---------------------------------------------------------------- F2 pairs

def test_second_order_ratios_frozen():
    cfg = cfg2()
    se = StructureExponents.for_problem(cfg, "13/20", DEFAULT_EPSILON)
    assert se.pairs == ((F(1), F(13, 20)), (F(2), F(2, 5)))
    rep = check_F2_exponents(cfg, se)
    assert rep.ratios == (F(5, 6), F(5, 6))
    assert rep.all_pass


def test_second_order_pair_check_identity():
    # both canonical ratios reduce to 2(beta-m)/(1-m), so the pair check is
    # equivalent to beta < (1 + m)/2 with m = mu - 1/p
    rng = random.Random(11)
    checked = 0
    for _ in range(500):
        p = F(rng.randint(11, 60), 10)
        mu = F(rng.randint(1, 100), 100)
        beta = F(rng.randint(1, 99), 100)
        try:
            cfg = ExponentConfig(p=p, q=2, n=1, mu=mu, order="second")
        except ValueError:
            continue
        m = cfg.trace_exponent
        if not (m < beta < 1):
            continue
        se = StructureExponents.for_problem(cfg, beta, DEFAULT_EPSILON)
        rep = check_F2_exponents(cfg, se)
        assert rep.ratios[0] == rep.ratios[1] == 2 * (beta - m) / (1 - m)
        assert rep.all_pass == (beta < (1 + m) / 2)
        checked += 1
    assert checked > 100


def test_fourth_order_pairs_frozen():
    cfg = cfg4()
    kappa = kappa_exponent(cfg)
    assert kappa == F(7, 12)
    se = StructureExponents.for_problem(cfg, "5/6", epsilon=0)
    theta = F(8, 23)
    assert se.pairs == (
        (F(1), F(7, 12)),
        (theta, F(5, 6)),
        (1 + theta, F(9, 20)),
        (2 * theta, F(7, 12)),
        (3 * theta, F(9, 20)),
    )
    rep = check_F2_exponents(cfg, se)
    assert rep.ratios == (F(31, 33), F(31, 33), F(31, 33), F(24, 33), F(24, 33))
    assert rep.all_pass


def test_fourth_order_any_window_beta_passes():
    # every beta strictly inside the eps-window passes the canonical pairs
    rng = random.Random(3)
    cfg = cfg4()
    w = beta_window(cfg, epsilon=0)
    for _ in range(50):
        t = F(rng.randint(1, 99), 100)
        beta = w.lo + (w.hi - w.lo) * t
        if not w.lo < beta < w.hi:
            continue
        se = StructureExponents.for_problem(cfg, beta, epsilon=0)
        assert check_F2_exponents(cfg, se).all_pass, f"beta={beta} failed"


def test_pair_outside_beta_range_rejected():
    cfg = cfg2()
    se = StructureExponents(beta="13/20", pairs=((1, "7/10"),))
    with pytest.raises(ValueError):
        check_F2_exponents(cfg, se)


def test_negative_growth_exponent_rejected():
    with pytest.raises(ValueError):
        StructureExponents(beta="13/20", pairs=((-1, "1/2"),))


# ---------------------------------------------------------------- report

def test_admissibility_report_ok():
    cfg = cfg2()
    se = StructureExponents.for_problem(cfg, "13/20", DEFAULT_EPSILON)
    rep = admissibility_report(Exponents(cfg, DEFAULT_EPSILON, se))
    assert rep["admissible"] is True
    assert rep["violated"] == []
    assert rep["dimensional"]["mu0_exact"] == "3/4"
    assert rep["beta_window"]["lo_exact"] == "5/8"
    assert rep["beta_window"]["hi_exact"] == "7/10"


def test_admissibility_report_quotes_mu0_inequality():
    rep = admissibility_report(Exponents(cfg2(mu="7/10"), DEFAULT_EPSILON, None))
    assert rep["admissible"] is False
    assert "mu > mu_0 = 1/p + n/2q" in rep["violated"]
    rep4 = admissibility_report(Exponents(cfg4(mu="4/5"), DEFAULT_EPSILON, None))
    assert "mu > mu_0 = 1/p + n/4q + 1/4" in rep4["violated"]


def test_admissibility_report_flags_failing_pairs():
    cfg = cfg2()
    se = StructureExponents(beta="69/100", pairs=((2, "69/100"),))
    rep = admissibility_report(Exponents(cfg, DEFAULT_EPSILON, se))
    assert rep["admissible"] is False
    assert any("rho_j" in v for v in rep["violated"])


def test_window_is_serializable():
    d = beta_window(cfg2(), DEFAULT_EPSILON).as_dict()
    assert d["empty"] is False
    assert isinstance(d["lo"], float) and isinstance(d["hi"], float)
    assert "binding_lower" in d and "binding_upper" in d
