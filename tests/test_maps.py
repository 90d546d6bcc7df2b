"""Relaxation maps, sequence composition, and the optimization metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkpulse import (Envelope, FieldParams, NegativeRadicand, Rates, TraceMismatch,
                       build_liouvillian, compose_sequence, dark_basis, embed_ground,
                       hs_distance, mismatch, pure_state_dyads, relax_closed,
                       relaxation_affine, sequence_affine, unvec, vec, zero_subspace)
from conftest import (fold_closed, fold_repumped, random_density, random_field,
                      random_pure_ground)
from witnesses import relax_repumped, repump_steady_state

TWO_PI = 2.0 * np.pi
# theta at 0 or pi, or 1e-12 to 1e-4 inside [0, pi] from either, where phi and mu+- fade out
POLAR_THETA = st.one_of(
    st.sampled_from([0.0, np.pi]),
    st.tuples(st.sampled_from([0.0, np.pi]), st.floats(-12.0, -4.0)).map(
        lambda pole_exp: abs(pole_exp[0] - 10.0 ** pole_exp[1])))


class TestRelaxClosed:
    def test_stack_matches_per_state(self, rng):
        # a stack mapped by its projectors gives each state's one-state map, bit for
        # bit; a trace off 1 anywhere in the stack still raises
        fields = [random_field(rng) for _ in range(12)]
        states = np.stack([random_density(rng) for _ in fields])
        projectors = np.stack([dark_basis(fp).projector for fp in fields])
        out = relax_closed(states, projectors)
        assert out.shape == states.shape
        for rho, fp, mapped in zip(states, fields, out):
            assert mapped.tobytes() == relax_closed(rho, dark_basis(fp).projector).tobytes()
        states[5] *= 0.5
        with pytest.raises(TraceMismatch):
            relax_closed(states, projectors)

    def test_dark_state_is_fixed_point(self, rng):
        basis = dark_basis(random_field(rng))
        rho = pure_state_dyads(basis.n1)
        out = relax_closed(rho, basis.projector)
        assert np.abs(out - rho).max() < 1e-14

    def test_bright_state_maps_to_mixed_dark(self, rng):
        basis = dark_basis(random_field(rng))
        out = relax_closed(pure_state_dyads(basis.phi_perp), basis.projector)
        assert np.abs(out - basis.projector / 2.0).max() < 1e-12

    def test_ground_identity_maps_to_mixed_dark(self, rng):
        # dark block is P_D/3 with trace 2/3; refill gives exactly P_D/2
        basis = dark_basis(random_field(rng))
        third = np.zeros((4, 4), dtype=complex)
        third[:3, :3] = np.eye(3) / 3.0
        out = relax_closed(third, basis.projector)
        assert np.abs(out - basis.projector / 2.0).max() < 1e-12

    def test_trace_mismatch_raises(self, rng):
        basis = dark_basis(random_field(rng))
        half = np.eye(4, dtype=complex) / 8.0
        with pytest.raises(TraceMismatch):
            relax_closed(half, basis.projector)

    def test_idempotent(self, rng):
        basis = dark_basis(random_field(rng))
        for _ in range(20):
            once = relax_closed(random_density(rng), basis.projector)
            twice = relax_closed(once, basis.projector)
            assert np.abs(twice - once).max() < 1e-12

    def test_trace_positivity_support_preserved(self, rng):
        # 10^3 random trace-one inputs across random bases
        for _ in range(100):
            basis = dark_basis(random_field(rng))
            for _ in range(10):
                out = relax_closed(random_density(rng), basis.projector)
                assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.eigvalsh(out).min() >= -1e-10
                p = basis.projector
                assert np.abs(p @ out @ p - out).max() < 1e-12

    def test_amplitude_independence(self, rng):
        angles = dict(theta=1.1, phi=0.4, mu_minus=2.0, mu_plus=0.9)
        rho = random_density(rng)
        reference = relax_closed(rho, dark_basis(FieldParams(**angles)).projector)
        for _ in range(10):
            fp = FieldParams(**angles, xi=rng.uniform(0, 6), omega_peak=rng.uniform(0.1, 9),
                             delta=rng.uniform(-3, 3), envelope=Envelope.SINE_SQUARED)
            assert np.abs(relax_closed(rho, dark_basis(fp).projector) - reference).max() == 0.0

    def test_affine_on_trace_one_hyperplane(self, rng):
        basis = dark_basis(random_field(rng))
        for _ in range(20):
            rho1, rho2 = random_density(rng), random_density(rng)
            a = rng.uniform()
            mixed = a * rho1 + (1 - a) * rho2
            lhs = relax_closed(mixed, basis.projector)
            rhs = (a * relax_closed(rho1, basis.projector)
                   + (1 - a) * relax_closed(rho2, basis.projector))
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_matches_zero_subspace_projection(self, rng):
        # oracle: the relaxed state is the spectral projection onto the kernel,
        # sum_k (left_k | r_in) right_k
        for _ in range(15):
            fp = random_field(rng)
            sub = zero_subspace(build_liouvillian(fp, Rates.alpha()))
            rho = random_density(rng)
            weights = sub.left.conj() @ vec(rho)
            projected = unvec(weights @ sub.right)
            mapped = relax_closed(rho, dark_basis(fp).projector)
            assert np.linalg.norm(projected - mapped) < 1e-9


class TestNearPolarTheta:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(theta=POLAR_THETA, phi=st.floats(0.0, TWO_PI), mu_minus=st.floats(0.0, TWO_PI),
           mu_plus=st.floats(0.0, TWO_PI), seed=st.integers(0, 2 ** 32 - 1))
    def test_map_invariants(self, theta, phi, mu_minus, mu_plus, seed):
        # the projector map and the sequence's affine form: trace 1, Hermitian, positive,
        # idempotent over one step and linear in mixtures, each within 1e-12
        fp = FieldParams(theta=theta, phi=phi, mu_minus=mu_minus, mu_plus=mu_plus)
        rng = np.random.default_rng(seed)
        rho1, rho2 = random_density(rng), random_density(rng)
        a = rng.uniform()
        for step in (lambda rho: relax_closed(rho, dark_basis(fp).projector),
                     lambda rho: compose_sequence(rho, [fp])):
            out = step(np.stack([rho1, rho2]))
            assert np.abs(np.trace(out, axis1=1, axis2=2) - 1.0).max() <= 1e-12
            assert np.abs(out - out.swapaxes(1, 2).conj()).max() <= 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-12
            assert np.abs(step(out) - out).max() <= 1e-12
            mixed = step(a * rho1 + (1.0 - a) * rho2)
            assert np.abs(mixed - (a * out[0] + (1.0 - a) * out[1])).max() <= 1e-12


class TestRepumpSteadyState:
    def test_phi_half_pi_is_sigma_plus_state(self):
        fp = FieldParams(theta=0.7, phi=np.pi / 2.0, mu_minus=0.3, mu_plus=1.0)
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        assert np.abs(repump_steady_state(fp) - expected).max() < 1e-12

    def test_equals_second_dark_dyad(self, rng):
        for _ in range(50):
            fp = random_field(rng)
            n2 = embed_ground(dark_basis(fp).n2)
            dyad = np.outer(n2, n2.conj())
            assert np.linalg.norm(repump_steady_state(fp) - dyad) < 1e-12

    def test_unit_trace_everywhere(self, rng):
        for _ in range(50):
            assert np.trace(repump_steady_state(random_field(rng))).real == pytest.approx(
                1.0, abs=1e-14)


class TestRelaxRepumped:
    def test_coincides_with_closed_map(self, rng):
        for _ in range(100):
            fp = random_field(rng)
            rho = random_density(rng)
            lossy = relax_repumped(rho, fp)
            closed = relax_closed(rho, dark_basis(fp).projector)
            assert np.linalg.norm(lossy - closed) < 1e-12

    def test_dark_input_unchanged(self, rng):
        fp = random_field(rng)
        rho = pure_state_dyads(dark_basis(fp).n2)
        assert np.abs(relax_repumped(rho, fp) - rho).max() < 1e-13

    def test_offset_state_is_fixed_point(self, rng):
        fp = random_field(rng)
        tilde = repump_steady_state(fp)
        assert np.abs(relax_repumped(tilde, fp) - tilde).max() < 1e-13


class TestComposeSequence:
    def test_single_step_dark_input_unchanged(self, rng):
        fp = random_field(rng)
        rho = pure_state_dyads(dark_basis(fp).n1)
        assert np.abs(compose_sequence(rho, [fp]) - rho).max() < 1e-13

    def test_mixture_linearity(self, rng):
        steps = tuple(random_field(rng) for _ in range(3))
        for fold in (lambda rho: compose_sequence(rho, steps),
                     lambda rho: fold_repumped(rho, steps)):
            for _ in range(10):
                rho1, rho2 = random_density(rng), random_density(rng)
                p1 = rng.uniform()
                mixed = p1 * rho1 + (1 - p1) * rho2
                lhs = fold(mixed)
                rhs = p1 * fold(rho1) + (1 - p1) * fold(rho2)
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_empty_sequence_returns_input(self, rng):
        stack = np.stack([random_density(rng) for _ in range(3)])
        stack[0, 0, 1] = complex(-0.0, stack[0, 0, 1].imag)  # a negative zero survives too
        out = compose_sequence(stack, ())
        assert out.tobytes() == stack.tobytes()

    def test_stack_matches_fold_of_closed_map(self, rng):
        steps = tuple(random_field(rng) for _ in range(4))
        states = [random_density(rng) for _ in range(6)]
        stack = np.stack(states).reshape(2, 3, 4, 4)
        out = compose_sequence(stack, steps)
        assert out.shape == (2, 3, 4, 4)
        for rho, mapped in zip(states, out.reshape(6, 4, 4)):
            assert np.abs(mapped - fold_closed(rho, steps)).max() < 1e-12
            assert np.abs(compose_sequence(rho, steps) - mapped).max() < 1e-15

    def test_trace_mismatch_raises_for_any_state(self, rng):
        stack = np.stack([random_density(rng) for _ in range(3)])
        stack[1] *= 0.5
        for steps in ((), (random_field(rng),)):
            with pytest.raises(TraceMismatch):
                compose_sequence(stack, steps)


class TestMetrics:
    def test_mismatch_zero_for_equal_pure(self, rng):
        # normalized once more: with |psi| one ulp below 1 the overlap form reads 1.5e-8
        psi = random_pure_ground(rng)
        rho = pure_state_dyads(psi / np.linalg.norm(psi))
        assert mismatch(rho, rho) == 0.0

    def test_mismatch_mixed_dark_vs_dark_state(self, rng):
        basis = dark_basis(random_field(rng))
        value = mismatch(basis.projector / 2.0, pure_state_dyads(basis.n1))
        assert value == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_mismatch_floor_for_mixed_reference(self, rng):
        rho = random_density(rng)
        floor = np.sqrt(1.0 - np.trace(rho @ rho).real)
        assert mismatch(rho, rho) == pytest.approx(floor, abs=1e-12)
        assert mismatch(rho, rho) > 0.0

    def test_mismatch_clamps_tiny_negative_radicand(self, rng):
        psi = random_pure_ground(rng)
        rho = pure_state_dyads(psi / np.linalg.norm(psi))  # as above
        assert mismatch(rho, rho) == 0.0  # exact overlap 1 within roundoff

    def test_mismatch_rejects_overlap_beyond_one(self):
        # defensive guard; only reachable with an invalid state, as from an
        # upstream bug; one such state in a stack is enough
        inflated = np.stack([np.eye(4, dtype=complex) / 4.0, np.eye(4, dtype=complex)])
        with pytest.raises(NegativeRadicand):
            mismatch(inflated, inflated)

    def test_hs_distance_zero_and_orthogonal(self, rng):
        rho = pure_state_dyads(random_pure_ground(rng))
        assert hs_distance(rho, rho) == 0.0
        a = pure_state_dyads(np.array([1.0, 0, 0]))
        b = pure_state_dyads(np.array([0, 1.0, 0]))
        assert hs_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_hs_equals_sqrt2_mismatch_for_pure(self, rng):
        for _ in range(20):
            a = pure_state_dyads(random_pure_ground(rng))
            b = pure_state_dyads(random_pure_ground(rng))
            assert hs_distance(a, b) == pytest.approx(np.sqrt(2.0) * mismatch(a, b), abs=1e-9)

    def test_stacks_broadcast_against_one_matrix(self, rng):
        stack = np.stack([random_density(rng) for _ in range(6)]).reshape(3, 2, 4, 4)
        reference = random_density(rng)
        for metric in (hs_distance, mismatch):
            values = metric(stack, reference)
            assert values.shape == (3, 2)
            assert isinstance(metric(stack[0, 0], reference), float)
            for index in np.ndindex(3, 2):
                assert values[index] == pytest.approx(metric(stack[index], reference),
                                                      abs=1e-15)
        # hs_distance is the Frobenius norm of the difference
        diff = stack[1, 1] - reference
        assert hs_distance(stack, reference)[1, 1] == pytest.approx(
            np.sqrt(np.trace(diff @ diff).real), abs=1e-14)


class TestAffineForms:
    def test_single_step_matches_map(self, rng):
        for _ in range(2):
            fp = random_field(rng)
            k, c = relaxation_affine(fp)
            for _ in range(10):
                rho = random_density(rng)
                for direct in (relax_closed(rho, dark_basis(fp).projector),
                               relax_repumped(rho, fp)):
                    assert np.linalg.norm(unvec(k @ vec(rho) + c) - direct) < 1e-12

    def test_sequence_matches_composition(self, rng):
        steps = tuple(random_field(rng) for _ in range(4))
        k, c = sequence_affine(steps)
        for _ in range(10):
            rho = random_density(rng)
            for direct in (fold_closed(rho, steps), fold_repumped(rho, steps)):
                assert np.linalg.norm(unvec(k @ vec(rho) + c) - direct) < 1e-12

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(theta=st.one_of(st.floats(0.0, 1e-6), st.floats(np.pi - 1e-6, np.pi),
                           st.floats(0.0, np.pi)),
           phi=st.floats(0.0, TWO_PI), mu_minus=st.floats(0.0, TWO_PI),
           mu_plus=st.floats(0.0, TWO_PI), seed=st.integers(0, 2 ** 32 - 1))
    def test_mode_free_step_matches_both_regimes(self, theta, phi, mu_minus, mu_plus, seed):
        # theta within 1e-6 of 0 or pi is where the angles phi, mu+- stop
        # being observable; the map must still agree with both regimes there
        fp = FieldParams(theta=theta, phi=phi, mu_minus=mu_minus, mu_plus=mu_plus)
        k, c = relaxation_affine(fp)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            rho = random_density(rng)
            out = unvec(k @ vec(rho) + c)
            assert np.linalg.norm(out - relax_closed(rho, dark_basis(fp).projector)) < 1e-12
            assert np.linalg.norm(out - relax_repumped(rho, fp)) < 1e-12
