"""Field geometry: Hamiltonian, dark basis, inverse span solver, Bloch reduction."""

import numpy as np
import pytest

from darkpulse import (AngleUnderdetermined, DegenerateSpan, DensityOperator,
                       Envelope, FieldParams, Rates, TargetState, bloch_coords,
                       build_hamiltonian, dark_basis, embed_ground, field_for_span,
                       pure_state_dyads)
from darkpulse.core import bright_vector, dark_bases, smallest_eigenvalues
from darkpulse.dynamics import _floor
from conftest import (hermitian_with_min_eigenvalue, random_density, random_field,
                      random_pure_ground)

# the floors of the two callers of the positivity screen: DensityOperator.validate, and
# verify_map's monitor at atol 1e-12 and 1e-6
FLOORS = {"validate": -DensityOperator.PSD_TOL, "monitor-1e-12": _floor(1e-12),
          "monitor-1e-6": _floor(1e-6)}


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
                                     dict(xi=np.inf), dict(theta=np.nan)])
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

    def test_rejects_a_matrix_that_is_not_4x4(self):
        with pytest.raises(ValueError, match=r"expected a 4x4 matrix, got shape \(3, 3\)"):
            DensityOperator(np.eye(3) / 3.0)

    def test_rejects_trace_above_one(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(4, dtype=complex) / 2.0)

    @pytest.mark.parametrize("bad", [
        np.eye(4) / 4.0 + 0.1 * np.eye(4, k=1),
        np.diag([0.6, 0.5, -0.1, 0.0]),
        np.eye(4) / 2.0,
    ], ids=["non_hermitian", "non_psd", "trace_above_one"])
    def test_stack_check_raises_the_constructor_error(self, rng, bad):
        stack = np.stack([random_density(rng) for _ in range(5)])
        DensityOperator.validate(stack)
        stack[3] = bad
        with pytest.raises(ValueError) as single:
            DensityOperator(bad)
        with pytest.raises(ValueError) as batched:
            DensityOperator.validate(stack)
        assert str(batched.value) == str(single.value)

    def test_failing_stack_names_the_eigvalsh_minimum(self, rng):
        # the Cholesky screen refuses these stacks, and the message is the one the
        # smallest eigvalsh eigenvalue gives, byte for byte
        for lam in (-DensityOperator.PSD_TOL * (1 + 1e-3), -1e-3):
            stack = hermitian_with_min_eigenvalue(rng, 0.05, 65)
            stack[rng.integers(65)] = hermitian_with_min_eigenvalue(rng, lam)[0]
            with pytest.raises(ValueError) as caught:
                DensityOperator.validate(stack)
            min_eig = float(np.linalg.eigvalsh(stack).min())
            assert str(caught.value) == ("matrix is not positive semidefinite: "
                                         f"min eigenvalue {min_eig:.3e}")

    def test_matrix_is_read_only(self):
        rho = DensityOperator(pure_state_dyads(np.array([0.0, 1.0, 0.0])))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestPureStateDyads:
    def test_takes_ground_vectors(self, rng):
        # a ground vector gives the unit-trace projector, a stack of them a stack;
        # a 4-vector is rejected
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.array_equal(pure_state_dyads(np.array([1.0, 0.0, 0.0])), expected)
        psis = np.stack([random_pure_ground(rng) for _ in range(6)]).reshape(2, 3, 3)
        dyads = pure_state_dyads(psis)
        assert dyads.shape == (2, 3, 4, 4)
        for psi, rho in zip(psis.reshape(6, 3), dyads.reshape(6, 4, 4)):
            assert rho.tobytes() == pure_state_dyads(psi).tobytes()
        DensityOperator.validate(dyads)
        with pytest.raises(ValueError):
            pure_state_dyads(np.array([1.0, 0.0, 0.0, 0.0]))

    def test_projectors_match_the_outer_products_bit_for_bit(self, rng):
        # reference: the dark projector and the target state as sums of np.outer
        # pairs, to the last bit
        for _ in range(10_000):
            basis = dark_basis(random_field(rng))
            v1, v2 = embed_ground(basis.n1), embed_ground(basis.n2)
            outer = np.outer(v1, v1.conj()) + np.outer(v2, v2.conj())
            assert basis.projector.tobytes() == outer.tobytes()
            p1 = rng.uniform()
            target = TargetState(weights=(p1, 1.0 - p1), psi1=basis.n1, psi2=basis.phi_perp)
            q1, q2 = embed_ground(target.psi1), embed_ground(target.psi2)
            w1, w2 = target.weights
            expected = w1 * np.outer(q1, q1.conj()) + w2 * np.outer(q2, q2.conj())
            assert target.density_matrix().tobytes() == expected.tobytes()


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


class TestSmallestEigenvalues:
    @pytest.mark.parametrize("floor", FLOORS.values(), ids=FLOORS.keys())
    def test_decision_is_the_eigvalsh_rule(self, rng, floor):
        # blocks of 65 random trace-one states, one of them with its smallest eigenvalue
        # just above and just below the floor, at 0, and far below the floor: the
        # screen decides "every eigenvalue >= floor" as eigvalsh does, returns the
        # eigvalsh minima whenever it refuses a block, and passes a block at 0 unread
        for lam in (floor * (1 - 1e-3), floor * (1 + 1e-3), 0.0, 1e3 * floor):
            for _ in range(25):
                block = hermitian_with_min_eigenvalue(rng, 0.05, 65)
                block[rng.integers(65)] = hermitian_with_min_eigenvalue(rng, lam)[0]
                minima = np.linalg.eigvalsh(block)[:, 0]
                rule = bool(minima.min() >= floor)
                assert rule is (lam >= floor)
                got = smallest_eigenvalues(block, floor)
                assert (got is None or bool(got.min() >= floor)) is rule
                assert got is None or np.array_equal(got, minima)
                assert (got is None) is (lam == 0.0)
                # the caller: validate passes or fails as the rule does, at its floor
                if floor == -DensityOperator.PSD_TOL:
                    if rule:
                        DensityOperator.validate(block)
                    else:
                        with pytest.raises(ValueError, match="semidefinite"):
                            DensityOperator.validate(block)

    def test_non_finite_matrix_reads_nan(self, rng):
        # numpy's Cholesky factorizes a nan matrix without complaint, so a stack with
        # a non-finite entry is never screened; its matrix reads nan, the rest their minima
        block = hermitian_with_min_eigenvalue(rng, 0.05, 5)
        block[2, 1, 1] = np.inf
        got = smallest_eigenvalues(block, _floor(1e-12))
        assert np.isnan(got[2]) and not np.isnan(got[[0, 1, 3, 4]]).any()
        assert np.array_equal(got[[0, 1, 3, 4]],
                              np.linalg.eigvalsh(block[[0, 1, 3, 4]])[:, 0])

    def test_screen_counts_only_where_its_rounding_is_below_the_shift(self):
        # a trace of 3 at the floor -1e-14 lets the factorization's rounding reach the
        # shift, so the positive definite stack takes eigvalsh instead
        assert smallest_eigenvalues(np.eye(4) / 4.0, -1e-14) is None
        assert smallest_eigenvalues(0.75 * np.eye(4), -1e-14) == 0.75


def per_field_basis(fp: FieldParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n1``, ``n2`` and ``phi_perp`` of one field by the per-field formula: the oracle."""
    th, ph, mm, mp = fp.theta, fp.phi, fp.mu_minus, fp.mu_plus
    n1 = np.array([np.exp(1j * mm) * np.cos(th) * np.sin(ph), np.sin(th),
                   np.exp(1j * mp) * np.cos(th) * np.cos(ph)])
    n2 = np.array([-np.exp(-1j * mp) * np.cos(ph), 0.0, np.exp(-1j * mm) * np.sin(ph)])
    return n1, n2, bright_vector(np.array(fp.angles))


class TestDarkBasis:
    def test_stacked_bases_equal_the_per_field_formula(self, rng):
        # alone and in a stack of 2000, a field's basis has the per-field formula's bits
        fields = [random_field(rng) for _ in range(1996)] + [
            FieldParams(theta=theta, phi=0.3, mu_minus=0.0, mu_plus=5.0)
            for theta in (0.0, np.pi / 2.0, np.pi, 1e-300)]
        bases = dark_bases(np.array([fp.angles for fp in fields]))
        assert bases.n1.shape == (2000, 3) and bases.projector.shape == (2000, 4, 4)
        for i, fp in enumerate(fields):
            n1, n2, perp = per_field_basis(fp)
            d1, d2 = pure_state_dyads(np.stack([n1, n2]))
            projector = d1 + d2
            one = dark_basis(fp)
            expected = [a.tobytes() for a in (n1, n2, perp, projector)]
            assert [a.tobytes() for a in (one.n1, one.n2, one.phi_perp, one.projector)] == \
                expected
            assert [a[i].tobytes() for a in (bases.n1, bases.n2, bases.phi_perp,
                                              bases.projector)] == expected

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
                             envelope=Envelope.SINE_SQUARED)
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

    def test_dark_projector_near_pi_polarized_normal(self, rng):
        # spans whose unit normal c lies at angle `distance` from +-|g_pi>: theta is taken
        # from its sine and cosine, and phi and mu+- from the sigma components down to
        # sin(theta) = 1e-15, so the dark projector stays I - c c^dagger to rounding; only
        # an exactly pi-polarized normal warns (1e-15 itself is left out: a few spans warn)
        for distance in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 1e-14, 0.0):
            worst = 0.0
            for k in range(200):
                u = rng.normal(size=2) + 1j * rng.normal(size=2)
                u *= np.sin(distance) / np.linalg.norm(u)
                c = np.array([u[0], (-1) ** k * np.cos(distance), u[1]])
                q, _ = np.linalg.qr(np.column_stack([c, rng.normal(size=(3, 2))]))
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                psi1, psi2 = (q[:, 1:] @ a).T
                args = (psi1 / np.linalg.norm(psi1), psi2 / np.linalg.norm(psi2))
                if distance == 0.0:
                    with pytest.warns(AngleUnderdetermined):
                        fp = field_for_span(*args)
                else:
                    fp = field_for_span(*args)
                span = np.eye(3) - np.outer(c, c.conj())
                worst = max(worst, np.abs(dark_basis(fp).projector[:3, :3] - span).max())
            assert worst <= 1e-14, distance

    def test_degenerate_span_raises(self):
        psi = np.array([0.3, 0.4j, np.sqrt(1 - 0.25)], dtype=complex)
        with pytest.raises(DegenerateSpan):
            field_for_span(psi, psi * np.exp(0.7j))

    @pytest.mark.parametrize("bad", [np.array([1.0, 0.0, 0.0, 0.0]), np.full(5, 0.5),
                                     np.array([0.6, 0.8]), np.array([np.nan, 0.0, 1.0])],
                             ids=["length4", "length5", "length2", "nan"])
    @pytest.mark.parametrize("slot", ["psi1", "psi2"])
    def test_rejects_a_vector_that_is_not_a_finite_3_vector(self, bad, slot):
        # longer vectors were cut to 3 entries, a shorter one indexed out of range,
        # and a NaN failed inside the SVD
        good = np.array([0.0, 1.0, 0.0], dtype=complex)
        args = (bad, good) if slot == "psi1" else (good, bad)
        with pytest.raises(ValueError, match=f"^{slot} must be a finite ground-space 3-vector$"):
            field_for_span(*args)


class TestTargetState:
    def test_density_matrix_is_valid(self):
        target = TargetState(weights=(0.25, 0.75),
                             psi1=np.array([1.0, 0.0, 0.0]),
                             psi2=np.array([0.0, 1.0, 0.0]))
        rho = target.density_matrix()
        DensityOperator.validate(rho)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("weights, scale", [((0.3, 0.7000000005), 1.0),
                                                ((0.3, 0.7), 1.0 + 4e-10)],
                             ids=["weights", "psi1"])
    def test_accepted_inputs_are_normalized(self, weights, scale):
        # within the 1e-9 the checks accept, the weights are divided by their sum and
        # the vectors by their norms, so the state passes the 1e-12 trace check
        psi1 = np.array([0.6, 0.8j, 0.0]) * scale
        target = TargetState(weights=weights, psi1=psi1, psi2=np.array([0.0, 0.6, 0.8]))
        assert sum(target.weights) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(target.psi1) == pytest.approx(1.0, abs=1e-15)
        rho = target.density_matrix()
        DensityOperator.validate(rho)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("name, build", [
    ("weights", lambda: TargetState(weights=(NAN, 1.0), psi1=np.array([1.0, 0, 0]),
                                    psi2=np.array([0, 1.0, 0]))),
    ("psi1", lambda: TargetState(weights=(0.5, 0.5), psi1=np.array([NAN, 1.0, 0]),
                                 psi2=np.array([0, 1.0, 0]))),
    ("omega_peak", lambda: FieldParams(0.1, 0.2, 0.3, 0.4, omega_peak=INF)),
    ("delta", lambda: FieldParams(0.1, 0.2, 0.3, 0.4, delta=NAN)),
    ("gamma_in", lambda: Rates(gamma_in=INF)),
    ("gamma_ext", lambda: Rates.beta(1.0, INF, 1.0)),
], ids=["weights", "psi1", "omega_peak", "delta", "gamma_in", "gamma_ext"])
def test_constructors_reject_non_finite_numbers(name, build):
    # the message starts with the field's name, so a config error names its dotted path
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build()


class TestBlochCoords:
    def test_maximally_mixed_dark_is_origin(self, rng):
        basis = dark_basis(random_field(rng))
        x, y, z, weight = bloch_coords(basis.projector / 2.0, basis)
        assert (x, y, z) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)
        assert weight == pytest.approx(1.0, abs=1e-14)

    def test_first_dark_vector_is_north_pole(self, rng):
        basis = dark_basis(random_field(rng))
        x, _, z, weight = bloch_coords(pure_state_dyads(basis.n1), basis)
        assert z == pytest.approx(1.0, abs=1e-12)
        assert x == pytest.approx(0.0, abs=1e-12)
        assert weight == pytest.approx(1.0, abs=1e-12)

    def test_bright_state_has_zero_weight(self, rng):
        fp = random_field(rng)
        basis = dark_basis(fp)
        x, y, z, weight = bloch_coords(pure_state_dyads(basis.phi_perp), basis)
        assert weight == pytest.approx(0.0, abs=1e-12)
        assert (x, y, z) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_affine_in_the_state(self, rng):
        from conftest import random_density
        basis = dark_basis(random_field(rng))
        for _ in range(20):
            rho1, rho2 = random_density(rng), random_density(rng)
            a = rng.uniform()
            mix = a * rho1 + (1 - a) * rho2
            p1, p2, pm = (bloch_coords(r, basis) for r in (rho1, rho2, mix))
            for k in range(4):  # x, y, z, in_span_weight
                expected = a * p1[k] + (1 - a) * p2[k]
                assert pm[k] == pytest.approx(expected, abs=1e-12)

    def test_stack_matches_per_state(self, rng):
        basis = dark_basis(random_field(rng))
        v1, v2 = embed_ground(basis.n1), embed_ground(basis.n2)
        states = [random_density(rng) for _ in range(50)]
        coords = bloch_coords(np.stack(states), basis)
        assert coords.shape == (50, 4)
        for rho, row in zip(states, coords):
            # per-state reference: the 2x2 dark block, one matrix element at a time
            r11, r22, r12 = v1.conj() @ rho @ v1, v2.conj() @ rho @ v2, v1.conj() @ rho @ v2
            expected = (2.0 * r12.real, -2.0 * r12.imag, (r11 - r22).real, (r11 + r22).real)
            assert np.abs(row - expected).max() <= 1e-15
            assert np.abs(bloch_coords(rho, basis) - expected).max() <= 1e-15

    def test_radius_bounded_by_weight(self, rng):
        from conftest import random_density
        basis = dark_basis(random_field(rng))
        for _ in range(50):
            x, y, z, weight = bloch_coords(random_density(rng), basis)
            radius_sq = x ** 2 + y ** 2 + z ** 2
            assert radius_sq <= weight ** 2 + 1e-9
