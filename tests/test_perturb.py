import hashlib
import inspect

import numpy as np
import pytest

from oracles import CHI2_Q999
from pumplab.certificate import CertificateOracle, ProjectedCertificate
from pumplab.errors import EmptyCertificateSupport
from pumplab.gen import fractional_stall_instance
from pumplab.lp import CompiledInstance
from pumplab.perturb import (
    _draw_tt,
    make_rng,
    original_perturb,
    original_perturb_zero_frac,
    perturb_l,
    restart_mask,
    restart_perturb,
    wfpbase_perturb,
)


def fake_cert(support):
    return ProjectedCertificate(
        point=np.zeros(0),
        lam={0: 1.0},
        a={int(j): 1.0 for j in support},
        beta=0.0,
        support_rows=(0,),
        original_support=((0, 1),),
        violation=1.0,
    )


def test_rng_helpers_are_reproducible():
    a = make_rng(7).integers(0, 1000, 5)
    b = make_rng(7).integers(0, 1000, 5)
    np.testing.assert_array_equal(a, b)


def test_make_rng_is_pcg64_of_the_seed_or_its_spawn_key():
    draws = make_rng(7).integers(0, 1 << 62, 5)
    np.testing.assert_array_equal(draws, np.random.Generator(np.random.PCG64(7)).integers(0, 1 << 62, 5))
    child = np.random.SeedSequence(entropy=7, spawn_key=(1, 2))
    np.testing.assert_array_equal(make_rng(7, 1, 2).integers(0, 1 << 62, 5),
                                  np.random.Generator(np.random.PCG64(child)).integers(0, 1 << 62, 5))


def test_perturb_l_flips_within_support():
    cert = fake_cert([0, 2, 5, 7])
    x = np.zeros(9, dtype=np.int8)
    rng = make_rng(0)
    for _ in range(50):
        out = perturb_l(x, cert, 2, rng)
        assert 1 <= len(out.flipped) <= 2
        assert set(out.flipped) <= {0, 2, 5, 7}
        assert out.kind == "walksat"
        flip = np.zeros(9, dtype=np.int8)
        flip[list(out.flipped)] = 1
        np.testing.assert_array_equal(out.x_new, flip)


def test_perturb_l_validates_input():
    cert = fake_cert([0, 1])
    with pytest.raises(ValueError):
        perturb_l(np.zeros(2, dtype=np.int8), cert, 0, make_rng(0))
    with pytest.raises(EmptyCertificateSupport):
        perturb_l(np.zeros(2, dtype=np.int8), fake_cert([]), 1, make_rng(0))


def test_perturb_l_single_draw_is_uniform():
    cert = fake_cert([0, 2, 5, 7])
    x = np.zeros(8, dtype=np.int8)
    rng = make_rng(1)
    trials = 10_000
    counts = {0: 0, 2: 0, 5: 0, 7: 0}
    for _ in range(trials):
        out = perturb_l(x, cert, 1, rng)
        counts[out.flipped[0]] += 1
    expected = trials / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_Q999[3]


def test_perturb_l_pair_draw_distribution():
    # two independent draws from {0, 1}: {0} w.p. 1/4, {1} w.p. 1/4, both 1/2
    inst = fractional_stall_instance()
    cert = CertificateOracle(CompiledInstance(inst)).min_certificate([1.0, 1.0])
    x = np.array([1, 1], dtype=np.int8)
    rng = make_rng(2)
    trials = 10_000
    counts = {(0,): 0, (1,): 0, (0, 1): 0}
    for _ in range(trials):
        counts[perturb_l(x, cert, 2, rng).flipped] += 1
    expected = {(0,): trials / 4, (1,): trials / 4, (0, 1): trials / 2}
    chi2 = sum((counts[k] - expected[k]) ** 2 / expected[k] for k in counts)
    assert chi2 < CHI2_Q999[2]


# two stalled points with their projections: fractionality (0.4, 0.3, 0.3,
# 0, 0), whose tie at 0.3 goes to the smaller index, and (0.2, 0.2, 0, 0,
# 0.5, 0.3), ranked 4, 5, 0, 1, then the integral 2 and 3
POINT_5 = (np.zeros(5, dtype=np.int8), np.array([0.4, 0.3, 0.3, 0.0, 0.0]))
POINT_6 = (np.array([0, 1, 0, 1, 0, 1], dtype=np.int8), np.array([0.2, 0.8, 0.0, 1.0, 0.5, 0.7]))


def flipped_at(x, idx):
    return np.where(np.isin(np.arange(x.size), idx), 1 - x, x)


def check_worked_cases(rule, kind, cases):
    for (x, x_bar), tt, want in cases:
        out = rule(x, x_bar, tt)
        assert (out.flipped, out.kind) == (want, kind), tt
        np.testing.assert_array_equal(out.x_new, flipped_at(x, want))


def test_original_perturb_worked_example():
    check_worked_cases(original_perturb, "original", [
        (POINT_5, 2, (0, 1)),
        (POINT_5, 10, (0, 1, 2)),         # NN = 3 caps the flip count
        (POINT_6, 0, ()),
        (POINT_6, 1, (4,)),
        (POINT_6, 2, (4, 5)),
        (POINT_6, 3, (0, 4, 5)),
        *[(POINT_6, tt, (0, 1, 4, 5)) for tt in range(4, 8)],
    ])


def test_zero_frac_variant_ranks_every_coordinate():
    check_worked_cases(original_perturb_zero_frac, "original-zf", [
        (POINT_5, 4, (0, 1, 2, 3)),       # zero-fractionality index 3 joins
        (POINT_5, 10, (0, 1, 2, 3, 4)),
        (POINT_6, 0, ()),
        (POINT_6, 1, (4,)),
        (POINT_6, 2, (4, 5)),
        (POINT_6, 3, (0, 4, 5)),
        (POINT_6, 4, (0, 1, 4, 5)),
        (POINT_6, 5, (0, 1, 2, 4, 5)),
        (POINT_6, 6, (0, 1, 2, 3, 4, 5)),
        (POINT_6, 7, (0, 1, 2, 3, 4, 5)),
    ])


@pytest.mark.parametrize("rule", [original_perturb, original_perturb_zero_frac])
def test_given_tt_draws_nothing_and_matches_the_drawn_tt(rule):
    # the pump loop draws TT with _draw_tt (one draw) and passes it in; the
    # rule takes no generator, so a TT given directly flips what the same
    # TT drawn from the loop's range flips
    x, x_bar = POINT_6
    assert "rng" not in inspect.signature(rule).parameters
    drawn = {}
    for seed in range(60):
        rng, one = make_rng(seed), make_rng(seed)
        tt = _draw_tt(rng, (0, 7))
        assert tt == int(one.integers(0, 8))
        assert rng.bit_generator.state == one.bit_generator.state
        drawn.setdefault(tt, rule(x, x_bar, tt))
    assert sorted(drawn) == list(range(8))
    for k, want in drawn.items():
        got = rule(x, x_bar, k)
        assert (got.flipped, got.kind) == (want.flipped, want.kind)
        np.testing.assert_array_equal(got.x_new, want.x_new)
    with pytest.raises(ValueError, match="bad TT range"):
        _draw_tt(make_rng(0), (5, 1))


def test_original_never_flips_integral_coordinates():
    rng = make_rng(3)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        x = rng.integers(0, 2, n).astype(np.int8)
        x_bar = x + rng.choice([0.0, 0.2, -0.3], size=n) * rng.random(n)
        x_bar = np.clip(x_bar, 0.0, 1.0)
        f = np.abs(x_bar - x)
        positive = set(np.flatnonzero(f > 1e-9))
        tt = int(rng.integers(1, 6))
        out = original_perturb(x, x_bar, tt)
        assert set(out.flipped) <= positive
        assert len(out.flipped) == min(tt, len(positive))
        zf = original_perturb_zero_frac(x, x_bar, tt)
        assert len(zf.flipped) == min(tt, n)
        assert positive & set(range(n)) >= set(zf.flipped) & positive


def test_hybrid_matches_original_when_tt_small():
    # |F| = 2, so TT <= 2 takes the original rule's flips and no draw
    view = CompiledInstance(fractional_stall_instance())
    x = np.array([0, 0], dtype=np.int8)
    x_bar = np.array([0.9, 0.4])
    for tt in range(3):
        rng = make_rng(tt)
        state = rng.bit_generator.state
        a = original_perturb(x, x_bar, tt)
        b = wfpbase_perturb(x, x_bar, np.zeros(0), view, rng, tt)
        assert (a.flipped, b.kind) == (b.flipped, "wfpbase")
        np.testing.assert_array_equal(a.x_new, b.x_new)
        assert rng.bit_generator.state == state


def test_hybrid_draws_from_violated_row_support():
    # at (1,1) only x1 is fractional; TT = 2 forces one extra draw from the
    # support {0, 1} of the violated row
    view = CompiledInstance(fractional_stall_instance())
    x = np.array([1, 1], dtype=np.int8)
    x_bar = np.array([2 / 3, 1.0])
    seen = set()
    for seed in range(40):
        out = wfpbase_perturb(x, x_bar, np.zeros(0), view, make_rng(seed), 2)
        assert out.kind == "wfpbase"
        seen.add(out.flipped)
        assert out.flipped in {(0,), (0, 1)}
        assert 0 in out.flipped           # F is always included
    assert seen == {(0,), (0, 1)}

    # TT = 3 wants two extras but S only has one new index: deterministic
    for seed in range(5):
        out = wfpbase_perturb(x, x_bar, np.zeros(0), view, make_rng(seed), 3)
        assert out.flipped == (0, 1)


def test_restart_mask_arithmetic():
    f = np.array([0.0, 0.45, 0.6, 0.0, 0.2])
    r = np.array([0.79, 0.40, 0.0, 0.80, 0.85])
    # 0.49 stays, 0.45+0.10 crosses, 0.6 alone crosses, 0.50 exactly stays,
    # 0.2+0.55 crosses
    np.testing.assert_array_equal(restart_mask(f, r), [False, True, True, False, True])


def test_restart_flip_rate_on_integral_points():
    # with f = 0 a coordinate flips iff its uniform draw exceeds 0.8
    rng = make_rng(4)
    n, runs = 100, 1000
    x = np.zeros(n, dtype=np.int8)
    flips = 0
    for _ in range(runs):
        flips += len(restart_perturb(x, x.astype(float), rng).flipped)
    rate = flips / (n * runs)
    assert abs(rate - 0.2) < 0.01


def test_restart_flip_rate_at_half_fractionality():
    rng = make_rng(5)
    n, runs = 100, 1000
    x = np.zeros(n, dtype=np.int8)
    x_bar = np.full(n, 0.5)
    flips = 0
    for _ in range(runs):
        flips += len(restart_perturb(x, x_bar, rng).flipped)
    rate = flips / (n * runs)
    assert abs(rate - 0.7) < 0.01


def test_rules_are_deterministic_given_seed():
    x = np.array([0, 1, 0, 1, 0], dtype=np.int8)
    x_bar = np.array([0.2, 0.8, 0.0, 1.0, 0.5])
    view = CompiledInstance(fractional_stall_instance())
    cert = fake_cert([0, 1])
    for fn in (
        lambda r: original_perturb(x, x_bar, 3),
        lambda r: original_perturb_zero_frac(x, x_bar, 3),
        lambda r: wfpbase_perturb(x[:2], x_bar[:2], np.zeros(0), view, r, 3),
        lambda r: restart_perturb(x, x_bar, r),
        lambda r: perturb_l(x[:2], cert, 2, r),
    ):
        a, b = fn(make_rng(11)), fn(make_rng(11))
        assert a.flipped == b.flipped
        np.testing.assert_array_equal(a.x_new, b.x_new)


def _perturb_l_digest(seed=2024, batch=400):
    """sha256 over perturb_l's outcomes on a seeded batch of random
    certificates and points, l in 1..3, and the rng state after it."""
    gen = make_rng(seed)
    rng = make_rng(seed + 1)
    h = hashlib.sha256()
    for _ in range(batch):
        n = int(gen.integers(1, 40))
        support = gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False)
        x = gen.integers(0, 2, n).astype(np.int8)
        out = perturb_l(x, fake_cert(support.tolist()), int(gen.integers(1, 4)), rng)
        h.update(out.x_new.dtype.str.encode() + out.x_new.tobytes() + repr(out.flipped).encode())
    h.update(repr(rng.bit_generator.state).encode())
    return h.hexdigest()


# _perturb_l_digest() pins the flips, the flipped points and the draws
PERTURB_L_DIGEST = "5eb98c06a2ac66d3e4a20cee1a4e28c86fc8093a7d01a4de8603406113b2c187"


def test_perturb_l_outcomes_are_pinned():
    assert _perturb_l_digest() == PERTURB_L_DIGEST
