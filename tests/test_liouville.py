"""Generator construction, spectrum, zero subspaces, and the affine steady state."""

import numpy as np
import pytest
import scipy.linalg

from darkpulse import (FieldParams, Liouvillian, Mode, Rates, UnexpectedDimension,
                       UnstableSpectrum, build_liouvillian, closed_form_zero_modes,
                       dark_basis, slowest_rate, unvec, vec, zero_subspace)
from darkpulse.core import build_hamiltonian
from darkpulse.liouville import principal_angles, transpose_convention_diagnostic
from conftest import random_field
from witnesses import steady_affine


def uncached_generator(fp, rates, envelope_value):
    """The generator with each relaxation term added onto the commutator in turn."""
    h = build_hamiltonian(fp, envelope_value)
    eye4 = np.eye(4)
    excited = np.zeros((4, 4))
    excited[3, 3] = 1.0
    m = -1j * (np.kron(h, eye4) - np.kron(eye4, h.T))
    for q in range(3):
        jump = np.zeros((4, 4))
        jump[q, 3] = 1.0 / np.sqrt(3.0)
        m = m + rates.gamma_in * np.kron(jump, jump)
    half_loss = (rates.gamma_in + rates.gamma_ext) / 2.0
    m = m - half_loss * (np.kron(excited, eye4) + np.kron(eye4, excited))
    m = m - rates.r_pump * np.outer(vec(excited), np.eye(4).reshape(16))
    d = rates.r_pump * vec(excited)
    return m, d


def random_hermitian(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return a + a.conj().T


class TestRates:
    def test_mode_consistency_enforced(self):
        # the regime is read off the rates, so a mixed pair has none
        with pytest.raises(ValueError, match="gamma_ext = 0.5 and r_pump = 0.0"):
            Rates(gamma_in=1.0, gamma_ext=0.5)
        with pytest.raises(ValueError, match="gamma_ext = 0.0 and r_pump = 0.5"):
            Rates(gamma_in=1.0, gamma_ext=0.0, r_pump=0.5)
        with pytest.raises(ValueError):
            Rates(gamma_in=0.0)
        assert Rates(gamma_in=1.0).mode is Mode.ALPHA
        assert Rates(gamma_in=1.0, gamma_ext=0.5, r_pump=0.5).mode is Mode.BETA

    def test_constructors(self):
        assert Rates.alpha().mode is Mode.ALPHA
        assert Rates.beta(1.0, 2.0, 0.5).r_pump == 0.5


class TestBuildLiouvillian:
    def test_drive_vector_single_entry(self, rng):
        liou = build_liouvillian(random_field(rng), Rates.beta(1.0, 1.0, 0.7))
        d = liou.d
        assert d[15] == pytest.approx(0.7)
        assert np.abs(np.delete(d, 15)).max() == 0.0

    def test_pure_decay_matches_closed_form(self, rng):
        # with the drive off, excited population decays at exactly gamma_in;
        # oracle: dense matrix exponential of the generator
        gamma = 1.3
        fp = FieldParams(theta=0.8, phi=0.5, mu_minus=0.1, mu_plus=0.2,
                         omega_peak=1e-30)  # vanishing drive
        liou = build_liouvillian(fp, Rates.alpha(gamma), envelope_value=0.0)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[3, 3] = 1.0
        for t in (0.3, 1.0, 2.5):
            propagated = unvec(scipy.linalg.expm(liou.m * t) @ vec(rho0))
            assert propagated[3, 3].real == pytest.approx(np.exp(-gamma * t), rel=1e-10)
        # the emitted population lands equally in the three ground states
        late = unvec(scipy.linalg.expm(liou.m * 8.0) @ vec(rho0))
        assert np.allclose(np.diag(late)[:3].real, (1 - np.exp(-8 * gamma)) / 3, atol=1e-10)

    def test_alpha_mode_is_trace_free(self, rng):
        liou = build_liouvillian(random_field(rng), Rates.alpha())
        for _ in range(20):
            rho = random_hermitian(rng)
            assert abs(np.trace(unvec(liou.m @ vec(rho)))) < 1e-12
        assert np.abs(liou.d).max() == 0.0

    def test_hermiticity_transport(self, rng):
        # 100 random Hermitian inputs stay Hermitian under the generator
        for _ in range(10):
            fp = random_field(rng)
            for rates in (Rates.alpha(), Rates.beta(1.0, 0.8, 1.2)):
                liou = build_liouvillian(fp, rates)
                for _ in range(5):
                    out = unvec(liou.m @ vec(random_hermitian(rng)))
                    assert np.abs(out - out.conj().T).max() < 1e-12

    def test_trace_flow_identity(self, rng):
        for rates in (Rates.alpha(1.4), Rates.beta(1.0, 0.6, 0.9)):
            liou = build_liouvillian(random_field(rng), rates)
            for _ in range(20):
                rho = random_hermitian(rng)
                flow = np.trace(unvec(liou.m @ vec(rho) + liou.d)).real
                expected = (-rates.gamma_ext * rho[3, 3].real
                            + rates.r_pump * (1.0 - np.trace(rho).real))
                assert flow == pytest.approx(expected, abs=1e-12)


    @pytest.mark.parametrize("rates", [Rates.alpha(1.3), Rates.beta(0.8, 1.7, 0.6)],
                             ids=["alpha", "beta"])
    def test_matches_uncached_formula_bytes(self, rng, rates):
        # the relaxation part is built apart from the commutator; the generator must not move a bit
        for _ in range(200):
            fp = random_field(rng)
            for envelope_value in (0.0, rng.uniform(0.0, 1.0), 1.0):
                liou = build_liouvillian(fp, rates, envelope_value)
                m, d = uncached_generator(fp, rates, envelope_value)
                assert liou.m.tobytes() == m.tobytes()
                assert liou.d.tobytes() == d.astype(complex).tobytes()

    def test_overflowing_generator_raises(self):
        # finite rates whose loss rate overflows: an unresolvable spectrum, and no numpy warning
        with pytest.raises(UnstableSpectrum, match="overflow"):
            build_liouvillian(FieldParams(0.4, 1.2, 0.3, 2.0), Rates.beta(1.7e308, 1.7e308, 1.0))

    @pytest.mark.parametrize("rates", [Rates.alpha(), Rates.beta(1.0, 2.0, 0.5)],
                             ids=["alpha", "beta"])
    def test_generator_and_kernels_are_readonly(self, rates):
        liou = build_liouvillian(FieldParams(0.4, 1.2, 0.3, 2.0), rates)
        sub = zero_subspace(liou)
        for a in (liou.m, liou.d, sub.right, sub.left):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0


class TestZeroSubspace:
    def test_alpha_dimension_and_distinct_spans(self, rng):
        for _ in range(10):
            liou = build_liouvillian(random_field(rng), Rates.alpha())
            sub = zero_subspace(liou)
            assert sub.dimension == 4
            gap = scipy.linalg.subspace_angles(sub.right.T, sub.left.T).max()
            assert gap > 1e-3  # left and right spans genuinely differ

    def test_beta_dimension_and_coinciding_spans(self, rng):
        for _ in range(10):
            liou = build_liouvillian(random_field(rng), Rates.beta())
            sub = zero_subspace(liou)
            assert sub.dimension == 3
            gap = scipy.linalg.subspace_angles(sub.right.T, sub.left.T).max()
            assert gap < 1e-9

    def test_null_vectors_and_biorthonormality(self, rng):
        for rates in (Rates.alpha(), Rates.beta()):
            liou = build_liouvillian(random_field(rng), rates)
            sub = zero_subspace(liou)
            for k in range(sub.dimension):
                assert np.linalg.norm(liou.m @ sub.right[k]) < 1e-10
                assert np.linalg.norm(sub.left[k].conj() @ liou.m) < 1e-10
            gram = sub.left.conj() @ sub.right.T
            assert np.abs(gram - np.eye(sub.dimension)).max() < 1e-10

    def test_unexpected_dimension_raises(self, rng):
        fp = random_field(rng)
        degenerate = Liouvillian(m=np.zeros((16, 16), dtype=complex),
                                 d=np.zeros(16, dtype=complex),
                                 rates=Rates.alpha(), field=fp)
        with pytest.raises(UnexpectedDimension):
            zero_subspace(degenerate)

    def test_alpha_trace_one_combinations_are_dark_supported(self, rng):
        # Hermitian trace-one elements of the right kernel live entirely in
        # the dark subspace
        for _ in range(10):
            fp = random_field(rng)
            sub = zero_subspace(build_liouvillian(fp, Rates.alpha()))
            p = dark_basis(fp).projector
            for _ in range(10):
                coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
                rho = unvec(coeffs @ sub.right)
                rho = rho + rho.conj().T
                # the dark projector itself spans a kernel direction, so this
                # trace fix stays inside the right zero subspace
                rho = rho + (1.0 - np.trace(rho).real) * p / 2.0
                assert abs(np.trace(rho).real - 1.0) < 1e-12
                assert np.abs(p @ rho @ p - rho).max() < 1e-10


class TestClosedFormZeroModes:
    def test_spans_match_numerics(self, rng):
        for _ in range(15):
            fp = random_field(rng)
            basis = dark_basis(fp)
            for rates in (Rates.alpha(), Rates.beta()):
                numerical = zero_subspace(build_liouvillian(fp, rates))
                closed = closed_form_zero_modes(basis, rates.mode)
                for side in ("right", "left"):
                    angles = scipy.linalg.subspace_angles(
                        getattr(numerical, side).T, getattr(closed, side).T)
                    assert angles.max() < 1e-9

    def test_identity_pairing(self, rng):
        closed = closed_form_zero_modes(dark_basis(random_field(rng)), Mode.ALPHA)
        # fourth left mode is I/sqrt(2); paired with the dark projector it gives 1
        assert np.vdot(closed.left[3], closed.right[3]).real == pytest.approx(1.0, abs=1e-12)
        gram = closed.left.conj() @ closed.right.T
        assert np.abs(gram - np.eye(4)).max() < 1e-12

    def test_third_mode_hermitian_traceless(self, rng):
        closed = closed_form_zero_modes(dark_basis(random_field(rng)), Mode.ALPHA)
        third = unvec(closed.right[2])
        assert np.abs(third - third.conj().T).max() < 1e-14
        assert abs(np.trace(third)) < 1e-14


class TestSteadyAffine:
    def test_matches_trig_formula_entrywise(self, rng):
        for _ in range(10):
            fp = random_field(rng)
            liou = build_liouvillian(fp, Rates.beta(1.0, 0.7, 1.3))
            rho = steady_affine(liou)
            ph, mm, mp = fp.phi, fp.mu_minus, fp.mu_plus
            expected = np.zeros((4, 4), dtype=complex)
            expected[2, 2] = np.sin(ph) ** 2
            expected[0, 0] = np.cos(ph) ** 2
            expected[2, 0] = -0.5 * np.exp(1j * (mp - mm)) * np.sin(2 * ph)
            expected[0, 2] = np.conj(expected[2, 0])
            assert np.abs(rho - expected).max() < 1e-12

    def test_equals_second_dark_dyad(self, rng):
        for _ in range(10):
            fp = random_field(rng)
            rho = steady_affine(build_liouvillian(fp, Rates.beta()))
            n2 = dark_basis(fp).n2
            dyad = np.zeros((4, 4), dtype=complex)
            dyad[:3, :3] = np.outer(n2, n2.conj())
            assert np.linalg.norm(rho - dyad) < 1e-12

    def test_phi_zero_is_sigma_minus_state(self):
        fp = FieldParams(theta=0.4, phi=0.0, mu_minus=0.0, mu_plus=0.0)
        rho = steady_affine(build_liouvillian(fp, Rates.beta()))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(rho - expected).max() < 1e-14

    def test_solves_linear_system(self, rng):
        fp = random_field(rng)
        liou = build_liouvillian(fp, Rates.beta(1.0, 2.0, 0.4))
        rho = steady_affine(liou)
        assert np.linalg.norm(liou.m @ vec(rho) + liou.d) < 1e-10

    def test_requires_mode_beta(self, rng):
        with pytest.raises(ValueError, match="beta"):
            steady_affine(build_liouvillian(random_field(rng), Rates.alpha()))


class TestSlowestRate:
    def test_positive_and_stable_under_kernel_preserving_perturbation(self, rng):
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        liou = build_liouvillian(fp, Rates.alpha())
        rate = slowest_rate(liou)
        assert rate > 0.0
        for _ in range(5):
            noise = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            bump = liou.m @ noise @ liou.m
            bump *= 1e-8 / np.linalg.norm(bump)
            perturbed = Liouvillian(m=liou.m + bump, d=liou.d, rates=liou.rates,
                                    field=liou.field)
            assert abs(slowest_rate(perturbed) - rate) < 1e-6

    def test_spectrum_nonpositive_real_parts(self, rng):
        for _ in range(10):
            for rates in (Rates.alpha(), Rates.beta(1.0, 1.5, 0.8)):
                liou = build_liouvillian(random_field(rng), rates)
                assert np.linalg.eigvals(liou.m).real.max() <= 1e-9

    def test_rate_monotone_in_gamma_at_strong_drive(self, rng):
        # record the trend over a sampled range rather than assuming its sign
        fp = random_field(rng, omega_peak=10.0, delta=0.0)
        gammas = [0.1, 0.2, 0.4, 0.8]
        rates = [slowest_rate(build_liouvillian(fp, Rates.alpha(g))) for g in gammas]
        diffs = np.diff(rates)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_unstable_spectrum_raises(self, rng):
        fp = random_field(rng)
        bad = Liouvillian(m=np.eye(16, dtype=complex) * 1e-3,
                          d=np.zeros(16, dtype=complex), rates=Rates.alpha(), field=fp)
        with pytest.raises(UnstableSpectrum):
            slowest_rate(bad)

    def test_growing_nonzero_mode_raises(self, rng):
        # Re 5e-10 passes the 1e-9 check on the whole spectrum, not the 1e-12 one on the
        # modes that are not zero modes (|0.5i| is far above 1e-9 of the radius)
        m = np.diag([-1.0, -0.3, 5e-10 + 0.5j] + [0.0] * 13).astype(complex)
        bad = Liouvillian(m=m, d=np.zeros(16, dtype=complex), rates=Rates.alpha(),
                          field=random_field(rng))
        with pytest.raises(UnstableSpectrum, match=r"nonzero eigenvalue with Re = 5\.000e-10"):
            slowest_rate(bad)

    def test_unresolved_rate_raises(self, rng):
        # at gamma_in 1e-300 the slowest retained real part rounds to exactly 0;
        # a zero rate would make every recommended duration infinite
        liou = build_liouvillian(random_field(rng, omega_peak=1.0), Rates.alpha(1e-300))
        with pytest.raises(UnstableSpectrum, match="not resolved"):
            slowest_rate(liou)


def svd_null_space(a):
    """Rows spanning the right null space of ``a``, by its own SVD at zero_subspace's cut."""
    _, s, vh = np.linalg.svd(a)
    return vh[s < 1e-10 * s[0]].conj()


def transpose_diagnostic(fp, rates):
    return transpose_convention_diagnostic(zero_subspace(build_liouvillian(fp, rates)))


class TestTransposeDiagnostic:
    def test_generic_field_spans_differ(self, rng):
        fp = random_field(rng, mu_minus=1.1, mu_plus=2.3)
        result = transpose_diagnostic(fp, Rates.alpha())
        assert not result["coincide"]
        assert result["max_principal_angle_rad"] > 1e-3

    def test_real_dark_vectors_spans_coincide(self):
        fp = FieldParams(theta=0.8, phi=0.6, mu_minus=0.0, mu_plus=0.0, xi=0.0)
        result = transpose_diagnostic(fp, Rates.alpha())
        assert result["coincide"]

    @pytest.mark.parametrize("rates", [Rates.alpha(), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_plain_kernel_matches_its_own_svd(self, rng, rates):
        # oracle: ker(m^T) by its own SVD; real dark vectors (mu+- = 0) give
        # coinciding spans, so both decisions are exercised
        decisions = set()
        for k in range(40):
            fp = random_field(rng, **({"mu_minus": 0.0, "mu_plus": 0.0} if k % 2 else {}))
            liou = build_liouvillian(fp, rates)
            left_conj, left_plain = svd_null_space(liou.m.conj().T), svd_null_space(liou.m.T)
            assert left_plain.shape == left_conj.shape
            angle = float(principal_angles(left_conj.T, left_plain.T).max())
            subspace = zero_subspace(liou)
            result = transpose_convention_diagnostic(subspace)
            assert left_plain.shape[0] == subspace.dimension
            assert abs(result["max_principal_angle_rad"] - angle) <= 1e-12
            assert result["coincide"] == (angle < 1e-9)
            decisions.add(result["coincide"])
        assert decisions == {True, False}


def subspaces_at_angles(rng, angles, extra=0, n=16):
    """Column bases of C^n whose principal angles are exactly ``angles``.

    ``b_i = cos(t_i) x_i + sin(t_i) y_i`` over orthonormal x and y; the second
    basis gets ``extra`` more columns orthogonal to both, and both are mixed
    by random invertible matrices so neither arrives orthonormal.
    """
    k = len(angles)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    x, y, z = q[:, :k], q[:, k:2 * k], q[:, 2 * k:2 * k + extra]
    t = np.asarray(angles)
    b = np.hstack([np.cos(t) * x + np.sin(t) * y, z])
    mix = lambda m: m @ (rng.normal(size=(m.shape[1],) * 2) + 2.0 * np.eye(m.shape[1]))
    return mix(x), mix(b)


class TestPrincipalAngles:
    """The numpy angles against ``scipy.linalg.subspace_angles``, the oracle."""

    @pytest.mark.parametrize("dims", [(4, 4), (3, 5), (5, 3), (1, 1)])
    def test_matches_scipy_on_random_subspaces(self, rng, dims):
        for _ in range(10):
            a = rng.normal(size=(16, dims[0])) + 1j * rng.normal(size=(16, dims[0]))
            b = rng.normal(size=(16, dims[1])) + 1j * rng.normal(size=(16, dims[1]))
            angles = principal_angles(a, b)
            assert angles.shape == (min(dims),)
            assert np.all(np.diff(angles) <= 0.0)
            assert np.abs(angles - scipy.linalg.subspace_angles(a, b)).max() < 1e-13

    @pytest.mark.parametrize("extra", [0, 2])
    @pytest.mark.parametrize("smallest", [1e-6, 2e-9, 5e-10, 1e-12])
    def test_resolves_near_coincident_subspaces(self, rng, smallest, extra):
        # the 1e-9 coincidence threshold needs angles far below arccos's ~1e-8 floor
        exact = np.array([smallest, 0.5 * smallest, 0.0])
        a, b = subspaces_at_angles(rng, exact, extra)
        angles = principal_angles(a, b)
        oracle = scipy.linalg.subspace_angles(a, b)
        assert np.abs(angles - exact).max() < 1e-14
        assert np.abs(angles - oracle).max() < 1e-14
        assert bool(angles.max() < 1e-9) is (smallest < 1e-9)

    def test_resolves_near_orthogonal_subspaces(self, rng):
        exact = np.array([np.pi / 2, np.pi / 2 - 1e-10, 1.2, 0.3])
        a, b = subspaces_at_angles(rng, exact)
        assert np.abs(principal_angles(a, b) - exact).max() < 1e-13
        assert np.abs(principal_angles(a, b) - scipy.linalg.subspace_angles(a, b)).max() < 1e-7

    def test_zero_subspace_spans_match_scipy(self, rng):
        # the two uses in the spectrum command, both regimes
        for rates in (Rates.alpha(), Rates.beta()):
            liou = build_liouvillian(random_field(rng), rates)
            sub = zero_subspace(liou)
            oracle = scipy.linalg.subspace_angles(sub.right.T, sub.left.T)
            assert np.abs(principal_angles(sub.right.T, sub.left.T) - oracle).max() < 1e-13
