import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pillar_qed import (
    BackgroundModel,
    ChannelRecord,
    ReferenceArm,
    Spectrum,
    apply_background,
    conditional_fringe_phase,
    dip_visibility,
    extract_phase,
    fringe_phase,
    infer_background_fraction,
    measured_intensity,
    quadrature_offset,
    reflection_amplitude,
    simulate_channels,
)
from pillar_qed.interferometer import NoSolutionError, calibrate_bias

from conftest import grid_around

# frozen from the dense-grid oracle on the device constants
VIS_INTRINSIC_DEVICE = 0.17378275294557077


# the reference arm whose extracted phase is the bare fringe angle
ZERO_BIAS = ReferenceArm(beta=1.0, sb_offset=quadrature_offset(1.0))


def calibrated_ref(beta=0.9):
    return ReferenceArm(beta=beta, sb_offset=quadrature_offset(beta))


def amplitudes(min_mod=0.05):
    return st.builds(
        lambda m, ph: m * np.exp(1j * ph),
        st.floats(min_value=min_mod, max_value=1.0),
        st.floats(min_value=-np.pi / 2 + 1e-6, max_value=np.pi / 2 - 1e-6),
    )


class TestChannels:
    def test_zero_total_phase_balances_channels(self):
        ref = calibrated_ref(beta=0.8)
        rec = simulate_channels(1.0, ref)  # far-detuned unit signal
        assert rec.d == pytest.approx(rec.a, abs=1e-15)
        assert rec.h == pytest.approx(1.0)
        assert rec.v == pytest.approx(0.64)

    def test_quadrature_fringe(self):
        s = 0.6
        r = 1j * s
        flat = ReferenceArm(beta=s, sb_offset=0.0)
        rec = simulate_channels(r, flat)
        assert rec.d - rec.a == pytest.approx(0.0, abs=1e-15)
        rotated = ReferenceArm(beta=s, sb_offset=-np.pi / 2)
        rec = simulate_channels(r, rotated)
        # the 50:50 analysis puts the full cross term in the difference,
        # so the maximal fringe is twice the arm-amplitude product
        assert rec.d - rec.a == pytest.approx(2 * s * s, rel=1e-12)

    def test_channel_table_against_inline_algebra(self, device_params):
        grid = grid_around(device_params.omega_c, 100.0, 2001)
        r = reflection_amplitude(device_params, grid)
        ref = calibrated_ref(beta=0.9)
        rec = simulate_channels(r, ref, omega=grid)

        e_h = r * np.exp(1j * ref.sb_offset)
        e_v = 0.9
        cross = np.real(e_h * np.conj(e_v))
        base = np.abs(e_h) ** 2 + abs(e_v) ** 2
        np.testing.assert_allclose(rec.d, 0.5 * base + cross, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rec.a, 0.5 * base - cross, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rec.h, np.abs(r) ** 2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rec.d + rec.a, rec.h + rec.v, rtol=0, atol=1e-12)

    @given(r=amplitudes(), beta=st.floats(min_value=0.05, max_value=1.0),
           offset=st.floats(min_value=-np.pi, max_value=np.pi))
    def test_conservation(self, r, beta, offset):
        rec = simulate_channels(r, ReferenceArm(beta=beta, sb_offset=offset))
        assert rec.d + rec.a == pytest.approx(rec.h + rec.v, abs=1e-12)

    def test_negative_channels_rejected(self):
        with pytest.raises(ValueError, match=r"^channel h must be non-negative, not met at omega = 0\.0 ueV$"):
            ChannelRecord(omega=0.0, h=-0.1, v=1.0, d=0.5, a=0.4)

    @pytest.mark.parametrize("field", ["h", "v", "d", "a"])
    def test_negative_channel_names_its_first_energy(self, field):
        values = dict(omega=np.array([1.0, 2.0, 3.0, 4.0]), h=np.ones(4), v=np.ones(4), d=np.ones(4), a=np.ones(4))
        values[field] = np.array([1.0, 0.0, -0.5, -2.0])
        with pytest.raises(ValueError, match=rf"^channel {field} must be non-negative, not met at omega = 3\.0 ueV$"):
            ChannelRecord(**values)

    @pytest.mark.parametrize("field", ["omega", "h", "v", "d", "a"])
    def test_complex_field_rejected(self, field):
        values = dict(omega=np.arange(3.0), h=np.ones(3), v=np.ones(3), d=np.ones(3), a=np.ones(3))
        values[field] = values[field] + 0j
        with pytest.raises(ValueError, match=f"^channel {field} must be real, got complex values$"):
            ChannelRecord(**values)


class TestExtractPhase:
    @given(r=amplitudes(), beta=st.floats(min_value=0.05, max_value=1.0))
    def test_round_trip_calibrated(self, r, beta):
        ref = calibrated_ref(beta)
        measured = extract_phase(simulate_channels(r, ref), ref)
        assert measured == pytest.approx(np.angle(r), abs=1e-9)

    @given(r=amplitudes(), bias=st.floats(min_value=-0.3, max_value=0.3))
    def test_round_trip_with_residual_bias(self, r, bias):
        assume(abs(np.angle(r) + bias) < np.pi / 2 - 1e-3)
        ref = ReferenceArm(beta=0.7, sb_offset=quadrature_offset(0.7) + bias)
        measured = extract_phase(simulate_channels(r, ref), ref)
        assert measured == pytest.approx(np.angle(r), abs=1e-9)

    def test_balanced_record_reads_zero(self):
        ref = calibrated_ref(0.5)
        assert extract_phase(ChannelRecord(0.0, 1.0, 0.25, 0.625, 0.625), ref) == pytest.approx(0.0)

    def test_one_percent_perturbation_sensitivity(self):
        ref = calibrated_ref(0.9)
        rec = simulate_channels(1.0, ref)
        bump = 0.01 * 2.0 * np.sqrt(rec.h * rec.v)
        perturbed = ChannelRecord(rec.omega, rec.h, rec.v, rec.d + bump / 2, rec.a - bump / 2)
        err = abs(extract_phase(perturbed, ref) - extract_phase(rec, ref))
        assert err <= 0.011

    def test_inconsistent_record_clamped_with_warning(self):
        ref = calibrated_ref(1.0)
        bad = ChannelRecord(0.0, 1.0, 1.0, 2.5, 0.0)  # fringe 1.25 > 1
        with pytest.warns(UserWarning, match="clamping"):
            value = extract_phase(bad, ref)
        assert value == pytest.approx(np.pi / 2)

    def test_consistent_record_rounded_past_one_reads_quietly(self):
        # simulate_channels' own record at |r| = 0.5 within 1e-6 rad of pi/2:
        # rounding takes 16 rows' normalized fringe to 1 + 2.2e-16, which no
        # "inconsistent channel record" warning may count
        phi = np.pi / 2 + np.linspace(-1e-6, 1e-6, 2001)
        rec = simulate_channels(0.5 * np.exp(1j * phi), ZERO_BIAS, omega=np.arange(phi.size, dtype=float))
        assert np.max(np.abs(rec.d - rec.a) / (2.0 * np.sqrt(rec.h * rec.v))) > 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phases = extract_phase(rec, ZERO_BIAS)
        np.testing.assert_allclose(phases, np.pi / 2, atol=2e-6)

    def test_requires_positive_monitors(self):
        ref = calibrated_ref(1.0)
        rec = ChannelRecord(0.0, 0.0, 1.0, 0.5, 0.5)
        # the refusal names the first energy where h or v <= 0
        grid = ChannelRecord(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 0.0, 1.0]),
                             np.array([1.0, 0.0, 1.0, 0.0]), np.full(4, 0.5), np.full(4, 0.5))
        cases = ((rec, "0.0"), (replace(rec, omega=1333596.0, h=1.0, v=0.0), "1333596.0"), (grid, "2.0"),
                 (replace(grid, h=0.0, v=1.0), "1.0"))  # the last: scalar monitors on a grid
        for rec, omega in cases:
            for read in (lambda r: extract_phase(r, ref), fringe_phase):
                with pytest.raises(ValueError, match=rf"h > 0 and v > 0, not met at omega = {omega} ueV$"):
                    read(rec)


class TestFringePhase:
    @given(r=amplitudes())
    def test_fringe_is_doubled_sine(self, r):
        assume(2 * abs(np.sin(np.angle(r))) < 1 - 1e-9)
        rec = simulate_channels(r, calibrated_ref(0.9))
        expected = np.arcsin(2 * np.sin(np.angle(r)))
        assert fringe_phase(rec) == pytest.approx(expected, abs=1e-9)

    def test_saturation_warns_in_its_own_words(self):
        # consistent records beyond |phi| = pi/6, where 2 sin(phi) > 1: extract_phase reads them
        rec = simulate_channels(np.exp(1j * np.array([0.6, 1.2, 0.1])), ZERO_BIAS)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = fringe_phase(rec)
            assert extract_phase(rec, ZERO_BIAS) == pytest.approx([0.6, 1.2, 0.1], abs=1e-12)
        assert [str(w.message) for w in caught] == [
            "fringe phase saturated: 2 channel rows lie beyond |phi| = pi/6, read as +-pi/2"
        ]
        assert values[:2].tolist() == [np.pi / 2, np.pi / 2]
        assert values[2] == pytest.approx(np.arcsin(2 * np.sin(0.1)), abs=1e-12)

    def test_unsaturated_rows_keep_the_monitor_scale_bits(self, device_params):
        # doubling the physically normalized fringe is exact: the same bits as dividing by sqrt(h*v)
        grid = grid_around(device_params.omega_c, 100.0, 2001)
        rec = simulate_channels(reflection_amplitude(device_params, grid), ZERO_BIAS, omega=grid)
        direct = np.arcsin((rec.d - rec.a) / np.sqrt(rec.h * rec.v))
        assert fringe_phase(rec).tobytes() == direct.tobytes()

    def test_conditional_fringe_saturates_at_the_redesign_point(self, device_params, empty_params):
        # kappa_top = 37.6 winds the phase through +-pi: 1302 rows of each readout lie beyond pi/6
        grid = grid_around(device_params.omega_c, 100.0, 2001)
        r_d = reflection_amplitude(replace(device_params, kappa_top=37.6), grid)
        r_c = reflection_amplitude(replace(empty_params, kappa_top=37.6), grid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            conditional_fringe_phase(r_d, r_c, ZERO_BIAS)
        assert [str(w.message) for w in caught] == 2 * [
            "fringe phase saturated: 1302 channel rows lie beyond |phi| = pi/6, read as +-pi/2"
        ]

    def test_conditional_fringe_small_angle_doubling(self, device_params, empty_params):
        omega = device_params.omega_c - 6.2
        r_d = reflection_amplitude(device_params, omega)
        r_c = reflection_amplitude(empty_params, omega)
        fringe = conditional_fringe_phase(r_d, r_c, calibrated_ref(0.9))
        arg_diff = np.angle(r_d * np.conj(r_c))
        assert fringe == pytest.approx(2.0 * arg_diff, rel=0.01)


class TestBackground:
    def test_identity_at_zero(self):
        r = 0.3 + 0.2j
        assert apply_background(r, BackgroundModel(0.0)) == pytest.approx(r)

    def test_full_background_limit(self):
        r = -0.8 + 0.1j
        m = apply_background(r, BackgroundModel(1.0 - 1e-9, phase=0.3))
        assert abs(m - np.exp(0.3j)) < 1e-4

    def test_measured_phase_of_reference_point(self):
        # an amplitude carrying the deduced intrinsic conditional phase,
        # diluted by the b = 0.7 background, reads out near 0.05 rad
        r = 0.9073359073359073 * np.exp(0.12j)
        m = apply_background(r, BackgroundModel(0.7))
        assert np.angle(m) == pytest.approx(0.05, abs=0.02)

    @given(r=amplitudes(min_mod=0.1), b=st.floats(min_value=1e-6, max_value=0.999))
    def test_coherent_dilution_shrinks_phase(self, r, b):
        assume(abs(np.angle(r)) > 1e-12)
        m = apply_background(r, BackgroundModel(b, 0.0))
        assert abs(np.angle(m)) <= abs(np.angle(r))


class TestVisibility:
    def test_flat_spectrum_zero(self):
        s = Spectrum(np.linspace(0, 10, 11), np.full(11, 0.8))
        assert dip_visibility(s) == pytest.approx(0.0)

    def test_device_intrinsic_visibility(self, empty_params):
        grid = grid_around(empty_params.omega_c, 100.0, 2001)
        s = Spectrum(grid, measured_intensity(empty_params, grid))
        vis = dip_visibility(s)
        assert vis == pytest.approx(VIS_INTRINSIC_DEVICE, abs=1e-9)
        # edge baseline sits slightly below 1, so the visibility tracks
        # 1 - on-resonance reflectivity to half a percent
        assert vis == pytest.approx(1.0 - 0.8232584487410741, abs=5e-3)

    def test_needs_five_points(self):
        with pytest.raises(ValueError, match=">= 5 points"):
            dip_visibility(Spectrum(np.arange(4.0), np.ones(4)))

    def test_nonpositive_baseline_rejected(self):
        values = np.zeros(11)
        values[5] = -0.5
        with pytest.raises(ValueError):
            dip_visibility(Spectrum(np.arange(11.0), values))

    @given(b1=st.floats(min_value=0.0, max_value=0.98), b2=st.floats(min_value=0.0, max_value=0.98))
    def test_monotone_in_background(self, b1, b2):
        from conftest import DEVICE
        from pillar_qed import SystemParams

        assume(abs(b1 - b2) > 1e-6)
        p = SystemParams(**{**DEVICE, "g": 0.0})
        lo, hi = sorted((b1, b2))
        grid = grid_around(p.omega_c, 100.0, 201)
        vis = [
            dip_visibility(
                Spectrum(grid, measured_intensity(p, grid, BackgroundModel(b)))
            )
            for b in (lo, hi)
        ]
        assert vis[0] > vis[1]


class TestInferBackground:
    def test_intrinsic_observation_gives_zero(self, empty_params):
        b = infer_background_fraction(VIS_INTRINSIC_DEVICE - 1e-9, empty_params)
        assert b < 1e-4

    def test_forward_round_trip(self, empty_params):
        grid = grid_around(empty_params.omega_c, 100.0, 2001)
        b_true = 0.35
        observed = dip_visibility(
            Spectrum(grid, measured_intensity(empty_params, grid, BackgroundModel(b_true)))
        )
        b_hat = infer_background_fraction(observed, empty_params, grid=grid)
        assert b_hat == pytest.approx(b_true, abs=1e-5)

    def test_deeper_observation_means_less_background(self):
        # loss split consistent with the mode-matched bound kappa_side <= 4*kappa
        from pillar_qed import SystemParams

        p = SystemParams(g=0.0, kappa_top=25.9 / 5, kappa_side=4 * 25.9 / 5, gamma=5.0, omega_c=1333596.0)
        b_deep = infer_background_fraction(0.45, p)
        b_shallow = infer_background_fraction(0.15, p)
        assert b_deep < b_shallow

    def test_no_solution_when_observation_exceeds_intrinsic(self, empty_params):
        with pytest.raises(NoSolutionError):
            infer_background_fraction(0.45, empty_params)

    def test_model_evaluated_once(self, empty_params, monkeypatch):
        # the summary report's inversion: each bisection step only re-mixes
        # the background into one amplitude
        import pillar_qed.scattering as scattering

        calls = []
        response = scattering._response
        monkeypatch.setattr(scattering, "_response", lambda *args: calls.append(1) or response(*args))
        grid = np.linspace(empty_params.omega_c - 100.0, empty_params.omega_c + 100.0, 20001)
        assert infer_background_fraction(0.15, empty_params, grid=grid) == 0.026808261844529627
        assert len(calls) == 1

    def test_needs_five_grid_points(self, empty_params):
        # the grid reaches the edge baseline's check through dip_visibility
        grid = grid_around(empty_params.omega_c, 100.0, 4)
        with pytest.raises(ValueError, match=">= 5 points"):
            infer_background_fraction(0.15, empty_params, grid=grid)

    def test_rejects_degenerate_observations(self, empty_params):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                infer_background_fraction(bad, empty_params)


class TestCalibration:
    def test_quadrature_offset_nulls_far_detuned_fringe(self):
        for beta in (0.4, 0.9 * np.exp(0.7j)):
            ref = ReferenceArm(beta=beta, sb_offset=quadrature_offset(beta))
            rec = simulate_channels(1.0, ref)
            assert rec.d - rec.a == pytest.approx(0.0, abs=1e-12)
            assert ref.bias == pytest.approx(0.0, abs=1e-12)

    def test_edge_calibration_recovers_bias(self, device_params):
        grid = grid_around(device_params.omega_c, 5000.0, 2001)
        true_bias = 0.07
        ref = ReferenceArm(beta=0.9, sb_offset=quadrature_offset(0.9) + true_bias)
        r = reflection_amplitude(device_params, grid)
        rec = simulate_channels(r, ref, omega=grid)
        # residual signal phase at the window edges bounds the estimate
        edge_phase = abs(np.angle(r[0]))
        assert calibrate_bias(extract_phase(rec, ZERO_BIAS)) == pytest.approx(true_bias, abs=2 * edge_phase + 1e-6)

    def test_edge_calibration_requires_positive_monitors(self, device_params):
        grid = grid_around(device_params.omega_c, 100.0, 21)
        rec = simulate_channels(reflection_amplitude(device_params, grid), calibrated_ref(), omega=grid)
        h = rec.h.copy()
        h[3] = 0.0
        with pytest.raises(ValueError, match="h > 0"):
            calibrate_bias(extract_phase(replace(rec, h=h), ZERO_BIAS))

    def test_edge_calibration_needs_five_grid_points(self):
        assert ZERO_BIAS.bias == 0.0
        assert calibrate_bias(np.arange(5.0)) == 2.0
        for raw in (np.arange(4.0), 0.1, np.zeros((5, 2))):
            with pytest.raises(ValueError, match=">= 5 points"):
                calibrate_bias(raw)


class TestReferenceArm:
    def test_quadrature_offset_gives_zero_bias_exactly(self):
        rng = np.random.default_rng(11)
        betas = rng.uniform(1e-3, 1.0, 2000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 2000))
        assert all(ReferenceArm(beta, quadrature_offset(beta)).bias == 0.0 for beta in betas)

    def test_invalid_magnitudes(self):
        with pytest.raises(ValueError):
            ReferenceArm(beta=0.0)
        with pytest.raises(ValueError):
            ReferenceArm(beta=1.2)

    def test_invalid_background(self):
        with pytest.raises(ValueError):
            BackgroundModel(fraction=1.0)
        with pytest.raises(ValueError):
            BackgroundModel(fraction=-0.1)
