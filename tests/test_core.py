"""Field geometry: Hamiltonian, dark basis, inverse span solver, Bloch reduction."""

import numpy as np
import pytest

from darkpulse import (AngleUnderdetermined, DegenerateSpan, DensityOperator,
                       Envelope, FieldParams, TargetState, bloch_coords, build_hamiltonian,
                       dark_basis, embed_ground, field_for_span)
from darkpulse.core import bright_vector
from conftest import random_density, random_field, random_pure_ground


class TestFieldParams:
    def test_angle_canonicalization_ranges(self):
        fp = FieldParams(theta=5.0, phi=-1.0, mu_minus=7.0, mu_plus=-0.5, xi=9.0)
        assert 0.0 <= fp.theta <= np.pi
        for angle in (fp.phi, fp.mu_minus, fp.mu_plus, fp.xi):
            assert 0.0 <= angle < 2.0 * np.pi

    def test_theta_folding_preserves_couplings(self):
        # the canonical angles must reproduce the raw-angle coupling vector
        theta_raw, phi_raw, mm, mp = 2.0 * np.pi - 0.7, 1.3, 0.4, 2.2
        fp = FieldParams(theta=theta_raw, phi=phi_raw, mu_minus=mm, mu_plus=mp)
        h = build_hamiltonian(fp)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:3, 3] = np.array([
            np.exp(1j * mm) * np.sin(theta_raw) * np.sin(phi_raw),
            -np.cos(theta_raw),
            np.exp(1j * mp) * np.sin(theta_raw) * np.cos(phi_raw),
        ]) / 6.0
        expected += expected.conj().T
        assert np.abs(h - expected).max() < 1e-14

    @pytest.mark.parametrize("bad", [dict(omega_peak=0.0), dict(omega_peak=-1.0),
                                     dict(duration=0.0), dict(theta=np.nan)])
    def test_invalid_parameters_rejected(self, bad):
        kwargs = dict(theta=0.5, phi=0.5, mu_minus=0.0, mu_plus=0.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            FieldParams(**kwargs)


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="semidefinite"):
            DensityOperator(m)

    def test_rejects_trace_above_one(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(4, dtype=complex) / 2.0)

    @pytest.mark.parametrize("bad", [
        np.eye(4) / 4.0 + 0.1 * np.eye(4, k=1),
        np.diag([0.6, 0.5, -0.1, 0.0]),
        np.eye(4) / 2.0,
    ], ids=["non_hermitian", "non_psd", "trace_above_one"])
    def test_stack_check_raises_the_constructor_error(self, rng, bad):
        stack = np.stack([random_density(rng).matrix for _ in range(5)])
        DensityOperator.validate(stack)
        stack[3] = bad
        with pytest.raises(ValueError) as single:
            DensityOperator(bad)
        with pytest.raises(ValueError) as batched:
            DensityOperator.validate(stack)
        assert str(batched.value) == str(single.value)

    def test_pure_accepts_ground_and_full_vectors(self):
        rho3 = DensityOperator.pure(np.array([1.0, 0.0, 0.0]))
        rho4 = DensityOperator.pure(np.array([1.0, 0.0, 0.0, 0.0]))
        assert np.allclose(rho3.matrix, rho4.matrix)
        assert rho3.trace == pytest.approx(1.0)

    def test_matrix_is_read_only(self):
        rho = DensityOperator.pure(np.array([0.0, 1.0, 0.0]))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestHamiltonian:
    def test_annihilates_dark_vectors(self, rng):
        worst = 0.0
        for _ in range(300):
            fp = random_field(rng)
            h = build_hamiltonian(fp)
            basis = dark_basis(fp)
            scale = np.linalg.norm(h)
            for n in (basis.n1, basis.n2):
                worst = max(worst, np.linalg.norm(h @ embed_ground(n)) / scale)
        assert worst < 1e-12

    def test_hermitian(self, rng):
        for _ in range(50):
            h = build_hamiltonian(random_field(rng))
            assert np.abs(h - h.conj().T).max() < 1e-15

    def test_bright_splitting_eigenvalues(self, rng):
        # coupling-vector norm is omega/3, so the bright pair splits at +-omega/6
        for _ in range(25):
            fp = random_field(rng, omega_peak=1.0, delta=0.0)
            eig = np.sort(np.linalg.eigvalsh(build_hamiltonian(fp)))
            assert np.allclose(eig, [-1.0 / 6.0, 0.0, 0.0, 1.0 / 6.0], atol=1e-12)

    def test_envelope_scales_coupling(self):
        fp = FieldParams(theta=1.0, phi=0.7, mu_minus=0.2, mu_plus=1.4, omega_peak=2.0)
        assert np.allclose(build_hamiltonian(fp, 0.5), build_hamiltonian(fp, 1.0) / 2.0
                           + np.diag([0, 0, 0, fp.delta / 2.0]))

    def test_negative_envelope_rejected(self):
        fp = FieldParams(theta=1.0, phi=0.7, mu_minus=0.2, mu_plus=1.4)
        with pytest.raises(ValueError):
            build_hamiltonian(fp, -0.1)


class TestDarkBasis:
    def test_theta_half_pi_gives_pure_pi_dark_state(self):
        fp = FieldParams(theta=np.pi / 2.0, phi=0.8, mu_minus=0.3, mu_plus=1.2)
        assert np.allclose(dark_basis(fp).n1, [0.0, 1.0, 0.0], atol=1e-15)

    def test_theta_zero_diagonal_substitution(self):
        fp = FieldParams(theta=0.0, phi=np.pi / 4.0, mu_minus=0.0, mu_plus=0.0)
        basis = dark_basis(fp)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(basis.n1, [s, 0.0, s], atol=1e-15)
        assert np.allclose(basis.n2, [-s, 0.0, s], atol=1e-15)

    def test_gram_identity_on_parameter_grid(self):
        # 10^4-point brute-force grid over the four angles
        values = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
        thetas = np.linspace(0.0, np.pi, 10)
        worst = 0.0
        for th in thetas:
            for ph in values:
                for mm in values[::3]:
                    for mp in values[::3]:
                        basis = dark_basis(FieldParams(theta=th, phi=ph,
                                                       mu_minus=mm, mu_plus=mp))
                        vecs = np.vstack([basis.n1, basis.n2, basis.phi_perp])
                        gram = vecs.conj() @ vecs.T
                        worst = max(worst, np.abs(gram - np.eye(3)).max())
        assert worst < 1e-12

    def test_projector_properties(self, rng):
        for _ in range(50):
            basis = dark_basis(random_field(rng))
            p = basis.projector
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.trace(p).real == pytest.approx(2.0, abs=1e-12)
            assert np.linalg.norm(p @ np.array([0, 0, 0, 1.0])) < 1e-15

    def test_independent_of_amplitude_phase_detuning(self, rng):
        angles = dict(theta=0.9, phi=2.1, mu_minus=0.4, mu_plus=5.0)
        reference = dark_basis(FieldParams(**angles)).projector
        for _ in range(20):
            fp = FieldParams(**angles, xi=rng.uniform(0, 2 * np.pi),
                             omega_peak=rng.uniform(0.1, 5.0), delta=rng.uniform(-2, 2),
                             envelope=Envelope.SINE_SQUARED, duration=rng.uniform(0.1, 9.0))
            assert np.abs(dark_basis(fp).projector - reference).max() == 0.0


class TestOrthogonalState:
    def test_theta_pi_is_pi_state(self):
        fp = FieldParams(theta=np.pi, phi=0.0, mu_minus=0.0, mu_plus=0.0)
        assert np.allclose(dark_basis(fp).phi_perp, [0.0, 1.0, 0.0], atol=1e-15)

    def test_theta_half_pi_phi_zero(self):
        fp = FieldParams(theta=np.pi / 2.0, phi=0.0, mu_minus=0.0, mu_plus=0.0)
        assert np.allclose(dark_basis(fp).phi_perp, [0.0, 0.0, 1.0], atol=1e-15)

    def test_orthogonal_to_dark_vectors(self, rng):
        for _ in range(100):
            fp = random_field(rng)
            basis = dark_basis(fp)
            perp = dark_basis(fp).phi_perp
            assert abs(perp.conj() @ basis.n1) < 1e-12
            assert abs(perp.conj() @ basis.n2) < 1e-12

    def test_batched_raw_angles_match_canonical_fields(self, rng):
        # the optimizer feeds raw angles in any range; theta folding must not matter
        angles = rng.uniform(-3.0 * np.pi, 3.0 * np.pi, size=(200, 4))
        batch = bright_vector(angles)
        assert batch.shape == (200, 3)
        for row, perp in zip(angles, batch):
            fp = FieldParams(theta=row[0], phi=row[1], mu_minus=row[2], mu_plus=row[3])
            assert np.abs(perp - dark_basis(fp).phi_perp).max() < 1e-13


class TestFieldForSpan:
    def test_sigma_span_gives_pure_pi_pulse(self):
        g_minus = np.array([1.0, 0.0, 0.0], dtype=complex)
        g_plus = np.array([0.0, 0.0, 1.0], dtype=complex)
        with pytest.warns(AngleUnderdetermined):
            fp = field_for_span(g_minus, g_plus)
        assert fp.theta == pytest.approx(np.pi, abs=1e-12)
        assert fp.phi == 0.0 and fp.mu_minus == 0.0 and fp.mu_plus == 0.0

    def test_mixed_span_angles(self):
        psi1 = np.array([0.0, 1.0, 0.0], dtype=complex)
        psi2 = np.array([1.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
        fp = field_for_span(psi1, psi2)
        assert fp.theta == pytest.approx(np.pi / 2.0, abs=1e-12)
        assert fp.phi == pytest.approx(np.pi / 4.0, abs=1e-12)
        assert fp.mu_minus == pytest.approx(0.0, abs=1e-12)
        assert fp.mu_plus == pytest.approx(np.pi, abs=1e-12)

    def test_annihilates_requested_span(self, rng):
        for _ in range(50):
            psi1, psi2 = random_pure_ground(rng), random_pure_ground(rng)
            fp = field_for_span(psi1, psi2)
            perp = dark_basis(fp).phi_perp
            assert abs(perp.conj() @ psi1) < 1e-10
            assert abs(perp.conj() @ psi2) < 1e-10

    def test_right_inverse_at_subspace_level(self, rng):
        # the reconstructed dark projector equals the span projector
        for _ in range(40):
            psi1, psi2 = random_pure_ground(rng), random_pure_ground(rng)
            fp = field_for_span(psi1, psi2)
            b1 = psi1
            b2 = psi2 - (b1.conj() @ psi2) * b1
            b2 = b2 / np.linalg.norm(b2)
            span_projector = np.outer(b1, b1.conj()) + np.outer(b2, b2.conj())
            ground_block = dark_basis(fp).projector[:3, :3]
            assert np.linalg.norm(span_projector - ground_block) < 1e-9

    def test_degenerate_span_raises(self):
        psi = np.array([0.3, 0.4j, np.sqrt(1 - 0.25)], dtype=complex)
        with pytest.raises(DegenerateSpan):
            field_for_span(psi, psi * np.exp(0.7j))


class TestTargetState:
    def test_density_matrix_is_valid(self):
        target = TargetState(weights=(0.25, 0.75),
                             psi1=np.array([1.0, 0.0, 0.0]),
                             psi2=np.array([0.0, 1.0, 0.0]))
        rho = target.density_matrix()
        assert rho.trace == pytest.approx(1.0, abs=1e-14)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="weights"):
            TargetState(weights=(0.5, 0.4), psi1=np.array([1.0, 0, 0]),
                        psi2=np.array([0, 1.0, 0]))

    def test_rejects_dependent_vectors(self):
        psi = np.array([0.6, 0.8, 0.0], dtype=complex)
        with pytest.raises(DegenerateSpan):
            TargetState(weights=(0.5, 0.5), psi1=psi, psi2=psi)

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError, match="unit"):
            TargetState(weights=(0.5, 0.5), psi1=np.array([0.9, 0, 0]),
                        psi2=np.array([0, 1.0, 0]))


class TestBlochCoords:
    def test_maximally_mixed_dark_is_origin(self, rng):
        basis = dark_basis(random_field(rng))
        x, y, z, weight = bloch_coords(basis.maximally_mixed().matrix, basis)
        assert (x, y, z) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)
        assert weight == pytest.approx(1.0, abs=1e-14)

    def test_first_dark_vector_is_north_pole(self, rng):
        basis = dark_basis(random_field(rng))
        x, _, z, weight = bloch_coords(DensityOperator.pure(basis.n1).matrix, basis)
        assert z == pytest.approx(1.0, abs=1e-12)
        assert x == pytest.approx(0.0, abs=1e-12)
        assert weight == pytest.approx(1.0, abs=1e-12)

    def test_bright_state_has_zero_weight(self, rng):
        fp = random_field(rng)
        basis = dark_basis(fp)
        x, y, z, weight = bloch_coords(DensityOperator.pure(basis.phi_perp).matrix, basis)
        assert weight == pytest.approx(0.0, abs=1e-12)
        assert (x, y, z) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_affine_in_the_state(self, rng):
        from conftest import random_density
        basis = dark_basis(random_field(rng))
        for _ in range(20):
            rho1, rho2 = random_density(rng), random_density(rng)
            a = rng.uniform()
            mix = DensityOperator(a * rho1.matrix + (1 - a) * rho2.matrix)
            p1, p2, pm = (bloch_coords(r.matrix, basis) for r in (rho1, rho2, mix))
            for k in range(4):  # x, y, z, in_span_weight
                expected = a * p1[k] + (1 - a) * p2[k]
                assert pm[k] == pytest.approx(expected, abs=1e-12)

    def test_stack_matches_per_state(self, rng):
        basis = dark_basis(random_field(rng))
        v1, v2 = embed_ground(basis.n1), embed_ground(basis.n2)
        states = [random_density(rng) for _ in range(50)]
        coords = bloch_coords(np.stack([rho.matrix for rho in states]), basis)
        assert coords.shape == (50, 4)
        for rho, row in zip(states, coords):
            # per-state reference: the 2x2 dark block, one matrix element at a time
            m = rho.matrix
            r11, r22, r12 = v1.conj() @ m @ v1, v2.conj() @ m @ v2, v1.conj() @ m @ v2
            expected = (2.0 * r12.real, -2.0 * r12.imag, (r11 - r22).real, (r11 + r22).real)
            assert np.abs(row - expected).max() <= 1e-15
            assert np.abs(bloch_coords(m, basis) - expected).max() <= 1e-15

    def test_radius_bounded_by_weight(self, rng):
        from conftest import random_density
        basis = dark_basis(random_field(rng))
        for _ in range(50):
            x, y, z, weight = bloch_coords(random_density(rng).matrix, basis)
            radius_sq = x ** 2 + y ** 2 + z ** 2
            assert radius_sq <= weight ** 2 + 1e-9
