import hashlib

import numpy as np
import pytest

from oracles import lift_exists, verify_minimal
from pumplab.certificate import CertificateOracle, ProjectedCertificate, cert_supp_bound
from pumplab.errors import DimensionMismatch, NonBinaryVector, NotACertificate
from pumplab.gen import BlockSpec, fractional_stall_instance, gen_decomposable, gen_subset_sum
from pumplab.lp import CompiledInstance
from pumplab.model import Block, LinearRow, MixedBinaryInstance, Sense, dense_rows, normalize
from pumplab.perturb import make_rng


def test_worked_certificate_single_eq_instance():
    # at (1,1) only the <= half of 3x1 + x2 = 3 is violated, by exactly 1
    inst = fractional_stall_instance()
    cert = CertificateOracle(CompiledInstance(inst)).min_certificate([1.0, 1.0])
    assert cert.support_rows == (0,)
    assert cert.original_support == ((0, 1),)
    assert cert.lam == {0: pytest.approx(1.0)}
    assert cert.a == {0: pytest.approx(3.0), 1: pytest.approx(1.0)}
    assert cert.beta == pytest.approx(3.0)
    assert cert.violation == pytest.approx(1.0, abs=1e-9)
    assert tuple(cert.a) == (0, 1)
    assert verify_minimal(inst, cert)


def test_point_inside_projection_is_refused():
    inst = fractional_stall_instance()
    with pytest.raises(NotACertificate):
        CertificateOracle(CompiledInstance(inst)).min_certificate([1.0, 0.0])


def test_no_cancelling_combination_is_refused():
    # a single row with a continuous column admits no certificate at all
    rows = (LinearRow({0: 1.0}, {0: 1.0}, Sense.LE, 0.0),)
    inst = MixedBinaryInstance(name="nocert", n=1, d=1, rows=rows)
    with pytest.raises(NotACertificate):
        CertificateOracle(CompiledInstance(inst)).min_certificate([1.0])


def test_pure_binary_certificate_is_most_violated_row():
    rng = make_rng(20)
    found = 0
    for trial in range(40):
        inst = gen_subset_sum(2, int(rng.integers(2, 5)), rng).instance
        norm = normalize(inst)
        A, _, _, b = dense_rows(norm)
        x = rng.integers(0, 2, inst.n).astype(float)
        v = A @ x - b
        if v.max() <= 1e-7:
            continue
        cert = CertificateOracle(CompiledInstance(inst)).min_certificate(x)
        assert len(cert.support_rows) == 1
        assert cert.violation == pytest.approx(v.max(), abs=1e-9)
        found += 1
    assert found > 10


def test_certificate_identity_and_positivity():
    # weights positive and summing to one, a = lam @ A, beta = lam @ b,
    # violation = a @ x - beta, continuous columns cancelled
    rng = make_rng(21)
    checked = 0
    for trial in range(60):
        k = int(rng.integers(1, 4))
        spec = BlockSpec(n=int(rng.integers(2, 5)), d=int(rng.integers(0, 3)),
                         rows=int(rng.integers(1, 4)), s=2)
        inst = gen_decomposable(k, spec, rng).instance
        oracle = CertificateOracle(CompiledInstance(inst))
        x = rng.integers(0, 2, inst.n).astype(float)
        try:
            cert = oracle.min_certificate(x)
        except NotACertificate:
            continue
        checked += 1
        lam_sum = sum(cert.lam.values())
        assert lam_sum == pytest.approx(1.0, abs=1e-9)
        assert all(w > 0 for w in cert.lam.values())
        A, B, _, b = dense_rows(normalize(inst))
        lam_vec = np.zeros(A.shape[0])
        for r, w in cert.lam.items():
            lam_vec[r] = w
        if inst.d:
            np.testing.assert_allclose(lam_vec @ B, 0.0, atol=1e-8)
        a_vec = lam_vec @ A
        for j, coeff in cert.a.items():
            assert a_vec[j] == pytest.approx(coeff, abs=1e-9)
        assert cert.beta == pytest.approx(float(lam_vec @ b), abs=1e-9)
        got = sum(c * x[j] for j, c in cert.a.items()) - cert.beta
        assert cert.violation == pytest.approx(got, abs=1e-7)
        assert cert.violation > 1e-7
    assert checked > 15


def test_support_stays_inside_one_block():
    rng = make_rng(22)
    checked = 0
    for trial in range(50):
        spec = BlockSpec(n=3, d=int(rng.integers(0, 3)), rows=2, s=2)
        res = gen_decomposable(3, spec, rng)
        inst = res.instance
        norm = normalize(inst)
        x = rng.integers(0, 2, inst.n).astype(float)
        try:
            cert = CertificateOracle(CompiledInstance(inst)).min_certificate(x)
        except NotACertificate:
            continue
        checked += 1
        d_block = spec.d
        assert len(cert.support_rows) <= d_block + 1
        source_rows = {src for src, _ in cert.original_support}
        owners = {next(i for i, blk in enumerate(inst.blocks) if r in blk.row_idx)
                  for r in source_rows}
        assert len(owners) == 1
        assert norm.m > 2  # the bound is doing work, not vacuous
    assert checked > 15


def test_verify_minimal_rejects_padded_support():
    inst = fractional_stall_instance()
    padded = ProjectedCertificate(
        point=np.array([1.0, 1.0]),
        lam={0: 0.75, 1: 0.25},
        a={0: 1.5, 1: 0.5},
        beta=1.5,
        support_rows=(0, 1),
        original_support=((0, 1), (0, -1)),
        violation=0.5,
    )
    assert not verify_minimal(inst, padded)


def test_verify_minimal_scale_guard():
    rng = make_rng(23)
    inst = gen_subset_sum(13, 2, rng).instance
    cert = ProjectedCertificate(np.zeros(26), {0: 1.0}, {}, 0.0, (0,), ((0, 1),), 1.0)
    with pytest.raises(ValueError, match="capped at 12 rows"):
        verify_minimal(inst, cert)


def test_supp_bound_values():
    assert cert_supp_bound(fractional_stall_instance()) == (2,)
    rng = make_rng(24)
    inst = gen_subset_sum(3, 4, rng).instance
    assert cert_supp_bound(inst) == (4, 4, 4)

    rows = tuple(
        LinearRow({3 * i: 1.0, 3 * i + 1: -2.0, 3 * i + 2: 1.0}, {0: 1.0, 1: -1.0}, Sense.LE, 1.0)
        for i in range(4)
    )
    inst = MixedBinaryInstance(
        name="wide", n=20, d=2, rows=rows,
        blocks=(Block(tuple(range(20)), (0, 1), tuple(range(4))),),
    )
    assert cert_supp_bound(inst) == (min(3 * (2 + 1), 20),)
    assert cert_supp_bound(inst) == (9,)


def test_certificate_existence_matches_elimination_oracle():
    # a certificate exists exactly when the binary point cannot be lifted
    rng = make_rng(25)
    with_cert = without = 0
    for trial in range(80):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        m = int(rng.integers(2, 5))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        B = rng.integers(-3, 4, size=(m, d)).astype(float)
        b = rng.integers(-2, 6, m).astype(float)
        rows = tuple(
            LinearRow({j: A[i, j] for j in range(n)}, {j: B[i, j] for j in range(d)},
                      Sense.LE, float(b[i]))
            for i in range(m)
        )
        inst = MixedBinaryInstance(name=f"dual{trial}", n=n, d=d, rows=rows)
        x = rng.integers(0, 2, n).astype(float)
        liftable = lift_exists(A, B, b, x)
        try:
            cert = CertificateOracle(CompiledInstance(inst)).min_certificate(x)
            assert not liftable
            assert verify_minimal(inst, cert)
            with_cert += 1
        except NotACertificate:
            assert liftable
            without += 1
    assert with_cert > 10 and without > 10


def test_oracle_caches_repeat_points():
    inst = fractional_stall_instance()
    oracle = CertificateOracle(CompiledInstance(inst))
    c1 = oracle.min_certificate([1.0, 1.0])
    c2 = oracle.min_certificate([1.0, 1.0])
    assert c1 is c2


def _le_rows(coeff_rows, rhs) -> tuple:
    return tuple(LinearRow(dict(enumerate(c)), {}, Sense.LE, float(r)) for c, r in zip(coeff_rows, rhs))


def _random_points(n, seed, count) -> list:
    rng = make_rng(seed)
    return [rng.integers(0, 2, n).astype(float) for _ in range(count)]


def _pinned_cases() -> dict:
    """name -> (instance, point sequence) of the pinned warm sequences."""
    cases = {}
    for seed in (0, 1, 2):
        inst = gen_subset_sum(3 + seed, 4, make_rng(100 + seed), coeff_max=10).instance
        cases[f"subset-sum-{seed}"] = (inst, _random_points(inst.n, 200 + seed, 150))
    inst = gen_decomposable(2, BlockSpec(n=5, d=0, rows=2, s=3), make_rng(300)).instance
    cases["decomposable-d0"] = (inst, _random_points(inst.n, 301, 200))
    # x_i <= 0 for each i and x0 + .. + x3 <= 3: the most violated rows tie
    inst = MixedBinaryInstance(name="ties", n=4, d=0, rows=_le_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]], [0, 0, 0, 0, 3]))
    cases["ties"] = (inst, [np.array(p, dtype=float) for p in (
        [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1],
        [1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 0, 1], [0, 1, 0, 1])])
    # violations within COST_TOL of each other, and one within ROW_TOL of zero
    inst = MixedBinaryInstance(name="near", n=4, d=0, rows=_le_rows(
        [[1, 0, 0, 0], [0, 1 + 4e-10, 0, 0], [0, 0, 1 + 2e-9, 0], [0, 0, 0, 1]], [0, 0, 0, 1 - 5e-10]))
    cases["near-ties"] = (inst, [np.array(p, dtype=float) for p in (
        [1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 0, 0], [1, 1, 0, 0],
        [0, 0, 0, 1], [1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 0, 0])])
    # points that lift, some of which move the warm row before being refused
    inst = MixedBinaryInstance(name="lifts", n=4, d=0, rows=(
        LinearRow({0: 1.0, 1: 1.0}, {}, Sense.LE, 1.0),
        LinearRow({2: 1.0, 3: 1.0}, {}, Sense.LE, 1.0),
        LinearRow({0: 1.0, 2: 1.0}, {}, Sense.GE, 1.0)))
    cases["lifts"] = (inst, [np.array(p, dtype=float) for p in (
        [1, 0, 1, 0], [0, 0, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 0, 0],
        [1, 1, 0, 0], [0, 1, 1, 0], [1, 1, 1, 1])])
    # zero right-hand sides, whose flipped halves have the rhs -0.0
    inst = MixedBinaryInstance(name="zero-rhs", n=3, d=0, rows=(
        LinearRow({0: 1.0, 1: -1.0}, {}, Sense.EQ, 0.0),
        LinearRow({2: 1.0}, {}, Sense.GE, 0.0)))
    cases["zero-rhs"] = (inst, [np.array(p, dtype=float) for p in (
        [0, 1, 0], [1, 0, 0], [0, 1, 1], [1, 1, 0], [1, 0, 1])])
    inst = gen_decomposable(5, BlockSpec(n=4, d=1, rows=3, s=2), make_rng(400)).instance
    cases["decomposable-d1"] = (inst, _random_points(inst.n, 401, 120))
    return cases


def _answers(oracle, points) -> list:
    # every field of each answer, floats by repr (exact), or "refused"
    out = []
    for x in points:
        try:
            c = oracle.min_certificate(x)
        except NotACertificate:
            out.append("refused")
            continue
        out.append(repr((c.point.tobytes(), list(c.lam.items()), list(c.a.items()), c.beta, c.support_rows,
                         c.original_support, c.violation, tuple(c.a))))
    return out


def _sequence_digest(inst, points) -> str:
    oracle = CertificateOracle(CompiledInstance(inst))
    return hashlib.sha256("\n".join(_answers(oracle, points)).encode()).hexdigest()


# _sequence_digest per case, as the warm lambda-LP answers them
PINNED_CERTIFICATES = {
    "subset-sum-0": "504dc8c6d1a74d6bdc84260713be4407a1c8c0bcef2bf1e449a383d0329cd4e6",
    "subset-sum-1": "dd47616f75818fa702764d6dfd5a49bd566bdfcd4184c05e1e4ce723c5904855",
    "subset-sum-2": "cedf7c708965e9055d395b90112b18f98fe9780d29eebbd5fcfaa56252d47f06",
    "decomposable-d0": "b7e696afafe711050e2ebf58e77e3e33aaca17d0a9e6229fa684a3d59ddc6447",
    "ties": "b726c4e696409637ca0eff4389944aa506b733d6fa40709099b979a348b691a1",
    "near-ties": "92d16096796c8d32eaa5e6c31a1ee5ca8c2f350b25c41aafa3aeb7684965ec09",
    "lifts": "9498587e70035e2f5460029288432ece51a4f83d96326c0bf4746724bae45f9e",
    "zero-rhs": "f920113a3267c70b4b38670d29dfbd1d78eec964278a641f5c6294faabea9317",
    "decomposable-d1": "4a69f791c27a577221e5b74da931644dc83ae804062d2c4f315dcb551dca0fff",
}


@pytest.mark.parametrize("name", sorted(PINNED_CERTIFICATES))
def test_warm_certificate_sequences_are_pinned(name):
    # every field of every answer of one oracle over a point sequence, bit
    # for bit; the row a pure-binary oracle starts from depends on the
    # points before, so the order of the points is part of each case
    inst, points = _pinned_cases()[name]
    assert _sequence_digest(inst, points) == PINNED_CERTIFICATES[name]


def _bad_point_oracle(d):
    inst = gen_decomposable(2, BlockSpec(n=3, d=d, rows=2, s=2), make_rng(30)).instance
    return inst, CertificateOracle(CompiledInstance(inst))


def _answers_as_fresh(inst, oracle) -> bool:
    # the bad points left the oracle's memo and warm state as they were
    x = np.ones(inst.n)
    points = [x, np.zeros(inst.n), x]
    fresh = CertificateOracle(CompiledInstance(inst))
    return not oracle.cache and _answers(oracle, points) == _answers(fresh, points)


@pytest.mark.parametrize("d", [0, 1])
def test_wrong_length_point_is_a_dimension_mismatch(d):
    inst, oracle = _bad_point_oracle(d)
    for bad in (np.ones(inst.n - 1), np.ones(inst.n + 1), []):
        with pytest.raises(DimensionMismatch):
            oracle.min_certificate(bad)
    assert _answers_as_fresh(inst, oracle)


@pytest.mark.parametrize("d", [0, 1])
def test_non_finite_point_is_not_binary(d):
    inst, oracle = _bad_point_oracle(d)
    for value in (np.nan, np.inf, -np.inf):
        bad = np.ones(inst.n)
        bad[0] = value
        with pytest.raises(NonBinaryVector):
            oracle.min_certificate(bad)
    assert _answers_as_fresh(inst, oracle)
