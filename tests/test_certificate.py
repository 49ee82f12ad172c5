import numpy as np
import pytest

from oracles import lift_exists, verify_minimal
from pumplab.certificate import CertificateOracle, ProjectedCertificate, cert_supp_bound
from pumplab.errors import NotACertificate
from pumplab.gen import BlockSpec, fractional_stall_instance, gen_decomposable, gen_subset_sum
from pumplab.model import Block, LinearRow, MixedBinaryInstance, Sense, dense_rows, normalize
from pumplab.perturb import make_rng


def test_worked_certificate_single_eq_instance():
    # at (1,1) only the <= half of 3x1 + x2 = 3 is violated, by exactly 1
    inst = fractional_stall_instance()
    cert = CertificateOracle(inst).min_certificate([1.0, 1.0])
    assert cert.support_rows == (0,)
    assert cert.original_support == ((0, 1),)
    assert cert.lam == {0: pytest.approx(1.0)}
    assert cert.a == {0: pytest.approx(3.0), 1: pytest.approx(1.0)}
    assert cert.beta == pytest.approx(3.0)
    assert cert.violation == pytest.approx(1.0, abs=1e-9)
    assert cert.bin_support == (0, 1)
    assert verify_minimal(inst, cert)


def test_point_inside_projection_is_refused():
    inst = fractional_stall_instance()
    with pytest.raises(NotACertificate):
        CertificateOracle(inst).min_certificate([1.0, 0.0])


def test_no_cancelling_combination_is_refused():
    # a single row with a continuous column admits no certificate at all
    rows = (LinearRow({0: 1.0}, {0: 1.0}, Sense.LE, 0.0),)
    inst = MixedBinaryInstance(name="nocert", n=1, d=1, rows=rows)
    with pytest.raises(NotACertificate):
        CertificateOracle(inst).min_certificate([1.0])


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
        cert = CertificateOracle(inst).min_certificate(x)
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
        oracle = CertificateOracle(inst)
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
            cert = CertificateOracle(inst).min_certificate(x)
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
            cert = CertificateOracle(inst).min_certificate(x)
            assert not liftable
            assert verify_minimal(inst, cert)
            with_cert += 1
        except NotACertificate:
            assert liftable
            without += 1
    assert with_cert > 10 and without > 10


def test_oracle_caches_repeat_points():
    inst = fractional_stall_instance()
    oracle = CertificateOracle(inst)
    c1 = oracle.min_certificate([1.0, 1.0])
    c2 = oracle.min_certificate([1.0, 1.0])
    assert c1 is c2
