import hashlib

import numpy as np
import pytest

from oracles import CHI2_Q999
from pumplab.certificate import CertificateOracle, ProjectedCertificate
from pumplab.errors import EmptyCertificateSupport
from pumplab.gen import fractional_stall_instance
from pumplab.perturb import (
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
    cert = CertificateOracle(inst).min_certificate([1.0, 1.0])
    x = np.array([1, 1], dtype=np.int8)
    rng = make_rng(2)
    trials = 10_000
    counts = {(0,): 0, (1,): 0, (0, 1): 0}
    for _ in range(trials):
        counts[perturb_l(x, cert, 2, rng).flipped] += 1
    expected = {(0,): trials / 4, (1,): trials / 4, (0, 1): trials / 2}
    chi2 = sum((counts[k] - expected[k]) ** 2 / expected[k] for k in counts)
    assert chi2 < CHI2_Q999[2]


def test_original_perturb_worked_example():
    x = np.zeros(5, dtype=np.int8)
    x_bar = np.array([0.4, 0.3, 0.3, 0.0, 0.0])
    out = original_perturb(x, x_bar, make_rng(0), tt_range=(2, 2))
    assert out.flipped == (0, 1)          # tie at 0.3 goes to the smaller index
    assert out.tt == 2
    out = original_perturb(x, x_bar, make_rng(0), tt_range=(10, 10))
    assert out.flipped == (0, 1, 2)       # NN = 3 caps the flip count
    np.testing.assert_array_equal(out.x_new, [1, 1, 1, 0, 0])


def test_zero_frac_variant_ranks_every_coordinate():
    x = np.zeros(5, dtype=np.int8)
    x_bar = np.array([0.4, 0.3, 0.3, 0.0, 0.0])
    out = original_perturb_zero_frac(x, x_bar, make_rng(0), tt_range=(4, 4))
    assert out.flipped == (0, 1, 2, 3)    # zero-fractionality index 3 joins
    out = original_perturb_zero_frac(x, x_bar, make_rng(0), tt_range=(10, 10))
    assert out.flipped == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("rule", [original_perturb, original_perturb_zero_frac])
def test_given_tt_draws_nothing_and_matches_the_drawn_tt(rule):
    x = np.array([0, 1, 0, 1, 0, 1], dtype=np.int8)
    x_bar = np.array([0.2, 0.8, 0.0, 1.0, 0.5, 0.7])
    drawn = {}
    for seed in range(60):
        out = rule(x, x_bar, make_rng(seed), tt_range=(0, 7))
        drawn.setdefault(out.tt, out)
    assert sorted(drawn) == list(range(8))
    for k, want in drawn.items():
        rng = make_rng(99)
        state = rng.bit_generator.state
        # a bad range is not even read when tt is given
        got = rule(x, x_bar, rng, tt_range=(5, 1), tt=k)
        assert rng.bit_generator.state == state
        assert (got.flipped, got.kind, got.tt) == (want.flipped, want.kind, k)
        np.testing.assert_array_equal(got.x_new, want.x_new)
    with pytest.raises(ValueError, match="bad TT range"):
        rule(x, x_bar, make_rng(0), tt_range=(5, 1))


def test_original_never_flips_integral_coordinates():
    rng = make_rng(3)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        x = rng.integers(0, 2, n).astype(np.int8)
        x_bar = x + rng.choice([0.0, 0.2, -0.3], size=n) * rng.random(n)
        x_bar = np.clip(x_bar, 0.0, 1.0)
        f = np.abs(x_bar - x)
        positive = set(np.flatnonzero(f > 1e-9))
        lo = int(rng.integers(1, 4))
        out = original_perturb(x, x_bar, rng, tt_range=(lo, lo + 2))
        assert set(out.flipped) <= positive
        assert len(out.flipped) == min(out.tt, len(positive))
        zf = original_perturb_zero_frac(x, x_bar, rng, tt_range=(lo, lo + 2))
        assert len(zf.flipped) == min(zf.tt, n)
        assert positive & set(range(n)) >= set(zf.flipped) & positive


def test_hybrid_matches_original_when_tt_small():
    inst = fractional_stall_instance()
    x = np.array([0, 0], dtype=np.int8)
    x_bar = np.array([0.9, 0.4])
    for seed in range(6):
        r1, r2 = make_rng(seed), make_rng(seed)
        a = original_perturb(x, x_bar, r1, tt_range=(1, 2))
        b = wfpbase_perturb(x, x_bar, np.zeros(0), inst, r2, tt_range=(1, 2))
        assert a.flipped == b.flipped
        np.testing.assert_array_equal(a.x_new, b.x_new)
        # both consumed exactly the TT draw, so the streams stay aligned
        assert r1.integers(0, 10**6) == r2.integers(0, 10**6)


def test_hybrid_draws_from_violated_row_support():
    # at (1,1) only x1 is fractional; TT = 2 forces one extra draw from the
    # support {0, 1} of the violated row
    inst = fractional_stall_instance()
    x = np.array([1, 1], dtype=np.int8)
    x_bar = np.array([2 / 3, 1.0])
    seen = set()
    for seed in range(40):
        out = wfpbase_perturb(x, x_bar, np.zeros(0), inst, make_rng(seed), tt_range=(2, 2))
        assert out.kind == "wfpbase"
        seen.add(out.flipped)
        assert out.flipped in {(0,), (0, 1)}
        assert 0 in out.flipped           # F is always included
    assert seen == {(0,), (0, 1)}

    # TT = 3 wants two extras but S only has one new index: deterministic
    for seed in range(5):
        out = wfpbase_perturb(x, x_bar, np.zeros(0), inst, make_rng(seed), tt_range=(3, 3))
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
    inst = fractional_stall_instance()
    cert = fake_cert([0, 1])
    for fn in (
        lambda r: original_perturb(x, x_bar, r),
        lambda r: original_perturb_zero_frac(x, x_bar, r),
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
