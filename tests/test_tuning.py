import warnings

import numpy as np
import pytest
from dataclasses import replace
from scipy.optimize import minimize_scalar
from scipy.signal import peak_prominences

from pillar_qed import (
    BackgroundModel,
    Spectrum,
    SystemParams,
    TemperatureScan,
    TuningModel,
    anticrossing_gap,
    measured_intensity,
    scan_dip_positions,
    synthesize_scan,
    tuning,
)
from pillar_qed.config import RunConfig
from pillar_qed.tuning import (
    UnresolvedSplittingError,
    _prominences,
    _prominent_dips,
    _strict_minima,
    _vertices,
    energies_at,
)

from conftest import DEVICE, grid_around

WC = DEVICE["omega_c"]


def device_model(qd_offset_at_ref=14.0):
    # dot 14 ueV above the cavity at 19 K, both red-shifting, dot faster:
    # zero detuning at 21 K
    return TuningModel(
        qd_slope=-10.0,
        cavity_slope=-3.0,
        qd_ref=WC + qd_offset_at_ref,
        cavity_ref=WC,
        t_ref=19.0,
        t_min=4.0,
        t_max=300.0,
    )


class TestEnergiesAt:
    def test_reference_temperature(self):
        m = device_model()
        qd, cav = energies_at(m, 19.0)
        assert qd == WC + 14.0
        assert cav == WC

    def test_crossing_formula(self):
        m = TuningModel(
            qd_slope=-10.0, cavity_slope=-5.0, qd_ref=1050.0, cavity_ref=1000.0, t_ref=19.0
        )
        qd, cav = energies_at(m, 29.0)
        assert qd == cav

    def test_device_model_crossing_at_21(self):
        m = device_model()
        qd, cav = energies_at(m, 21.0)
        assert qd == cav

    def test_out_of_window_warns_not_fatal(self):
        m = device_model()
        with pytest.warns(UserWarning, match="validity window"):
            qd, _ = energies_at(m, 350.0)
        assert np.isfinite(qd)

    def test_equal_slopes_never_cross(self):
        m = TuningModel(qd_slope=-3.0, cavity_slope=-3.0, qd_ref=1050.0, cavity_ref=1000.0, t_ref=19.0)
        detunings = {qd - cav for qd, cav in (energies_at(m, t) for t in (4.0, 19.0, 21.0, 300.0))}
        assert detunings == {50.0}


class TestSynthesizeScan:
    def grid(self, half_span=120.0, n=24001):
        return grid_around(WC, half_span, n)

    def test_single_temperature_equals_direct_synthesis(self):
        p = SystemParams(**DEVICE)
        m = device_model()
        grid = self.grid(n=2001)
        bg = BackgroundModel(0.3)
        scan = synthesize_scan(p, m, [21.0], grid, bg)
        qd_e, cav_e = energies_at(m, 21.0)
        direct = measured_intensity(replace(p, omega_c=cav_e, omega_qd=qd_e), grid, bg)
        np.testing.assert_array_equal(scan.spectra[0].values, direct)

    def test_far_detuned_temperature_equals_empty_cavity(self):
        p = SystemParams(**DEVICE)
        m = TuningModel(
            qd_slope=-10.0, cavity_slope=-3.0, qd_ref=WC + 1e6, cavity_ref=WC, t_ref=19.0
        )
        grid = self.grid(half_span=100.0, n=2001)
        scan = synthesize_scan(p, m, [19.0], grid)
        empty = measured_intensity(replace(p, g=0.0), grid)
        assert np.max(np.abs(scan.spectra[0].values - empty)) < 1e-6

    def test_double_dip_symmetric_at_crossing(self):
        p = SystemParams(**DEVICE)
        m = device_model()
        _, cav_cross = energies_at(m, 21.0)
        grid = grid_around(cav_cross, 80.0, 8001)
        scan = synthesize_scan(p, m, [21.0], grid)
        values = scan.spectra[0].values
        np.testing.assert_allclose(values, values[::-1], rtol=0, atol=1e-12)

    def test_minima_never_coincide_across_crossing(self):
        p = SystemParams(**DEVICE)
        scan = synthesize_scan(p, device_model(), np.arange(19.0, 23.01, 0.25), self.grid())
        resolved = [(t, pos) for t, pos in scan_dip_positions(scan) if len(pos) >= 2]
        assert resolved, "no temperature resolved two dips"
        for _, positions in resolved:
            assert min(np.diff(sorted(positions))) > 0.5

    def test_branch_ordering_preserved(self):
        p = SystemParams(**DEVICE)
        temps = np.arange(20.0, 22.01, 0.1)
        scan = synthesize_scan(p, device_model(), temps, self.grid())
        lowers, uppers = [], []
        for _, positions in scan_dip_positions(scan):
            if len(positions) == 2:
                lowers.append(positions[0])
                uppers.append(positions[1])
        assert len(lowers) >= 10
        # per-slice separation never closes, and each branch moves
        # continuously (steps bounded by the tuning rate per 0.1 K)
        assert all(u - l > 0.5 for l, u in zip(lowers, uppers))
        assert np.max(np.abs(np.diff(lowers))) < 3.0
        assert np.max(np.abs(np.diff(uppers))) < 3.0

    def test_noisy_scan_reports_the_prominent_dips(self):
        # 1% multiplicative noise leaves thousands of strict minima in each
        # 24001-point spectrum; only the two most prominent are reported.
        # Over seeds 0-19 the worst distance from a clean dip was 1.4-2.7 ueV.
        p = SystemParams(**DEVICE)
        scan = synthesize_scan(p, device_model(), np.arange(19.0, 23.01, 0.25), self.grid())
        rng = np.random.default_rng(4)
        noisy = replace(scan, spectra=tuple(
            Spectrum(s.omega, s.values * (1 + 0.01 * rng.standard_normal(len(s)))) for s in scan.spectra
        ))
        for (_, clean), (_, positions) in zip(scan_dip_positions(scan), scan_dip_positions(noisy)):
            assert len(clean) == 2
            assert len(positions) <= 2
            assert all(abs(pos - min(clean, key=lambda c: abs(c - pos))) < 4.0 for pos in positions)

    def test_branch_asymptotes_near_bare_energies(self):
        p = SystemParams(**DEVICE)
        m = device_model()
        t = 15.0  # detuning +42 ueV, well outside the anticrossing region
        scan = synthesize_scan(p, m, [t], self.grid(half_span=150.0, n=30001))
        (_, positions), = scan_dip_positions(scan)
        qd_e, cav_e = energies_at(m, t)
        assert len(positions) == 2
        assert min(abs(pos - cav_e) for pos in positions) < 2 * p.gamma
        assert min(abs(pos - qd_e) for pos in positions) < 2 * p.gamma

    def test_empty_temperature_list_rejected(self):
        p = SystemParams(**DEVICE)
        with pytest.raises(ValueError):
            synthesize_scan(p, device_model(), [], self.grid(n=201))

    def test_unsorted_temperatures_rejected(self):
        p = SystemParams(**DEVICE)
        with pytest.raises(ValueError):
            synthesize_scan(p, device_model(), [21.0, 20.0], self.grid(n=201))


class TestAnticrossingGap:
    def scan_for(self, g_value, temps=None):
        p = SystemParams(**{**DEVICE, "g": g_value})
        temps = np.arange(19.0, 23.01, 0.25) if temps is None else temps
        return synthesize_scan(p, device_model(), temps, grid_around(WC, 120.0, 24001))

    def test_device_gap_against_continuous_oracle(self):
        # oracle: bounded minimization of the continuous model at exact
        # zero detuning, one dip on each side
        p = SystemParams(**DEVICE)
        dip = minimize_scalar(
            lambda d: measured_intensity(p, p.omega_c + d),
            bounds=(2.0, 30.0),
            method="bounded",
            options={"xatol": 1e-10},
        ).x
        oracle_gap = 2.0 * dip
        gap = anticrossing_gap(self.scan_for(9.4))
        assert gap == pytest.approx(oracle_gap, abs=0.01)
        assert gap == pytest.approx(19.9257, abs=0.01)

    def test_gap_monotone_in_coupling(self):
        gaps = [anticrossing_gap(self.scan_for(g)) for g in (5.0, 9.4, 15.0)]
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps == pytest.approx([11.5947, 19.9257, 30.7693], abs=0.01)

    def test_gap_shrinks_toward_zero_coupling(self):
        gaps = [anticrossing_gap(self.scan_for(g)) for g in (1.0, 2.0, 5.0)]
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[0] < 2.0

    def test_no_dot_never_resolves(self):
        # g = 0 leaves a single cavity dip at every temperature
        p = SystemParams(**{**DEVICE, "g": 1e-9})
        scan = synthesize_scan(
            p, device_model(), [20.9, 21.0, 21.1], grid_around(WC, 120.0, 2001)
        )
        with pytest.raises(UnresolvedSplittingError):
            anticrossing_gap(scan)


class TestTemperatureScanType:
    def test_mismatched_lengths_rejected(self):
        p = SystemParams(**DEVICE)
        m = device_model()
        grid = grid_around(WC, 10.0, 11)
        scan = synthesize_scan(p, m, [20.0, 21.0], grid)
        with pytest.raises(ValueError):
            TemperatureScan(temperatures=(20.0,), spectra=scan.spectra)


def resonant_dips(p, n=8001, half_span=60.0):
    """The two prominent dips of the reflectivity of ``p`` around omega_c."""
    grid = grid_around(p.omega_c, half_span, n)
    return _prominent_dips(grid, measured_intensity(p, grid))


class TestProminentDips:
    @staticmethod
    def double_dip(separation=22.0, width=2.0, depth=0.3, half_span=60.0, n=4001):
        grid = np.linspace(-half_span, half_span, n) + 1000.0
        half = width / 2
        lor = lambda x0: depth * half**2 / ((grid - 1000.0 - x0) ** 2 + half**2)
        return Spectrum(grid, 1.0 - lor(-separation / 2) - lor(separation / 2))

    def test_two_dips_separated_by_22(self):
        s = self.double_dip()
        assert _prominent_dips(s.omega, s.values) == pytest.approx([989.0, 1011.0], abs=1e-3)

    def test_mirror_symmetry(self):
        s = self.double_dip(separation=17.0)
        mirrored = _prominent_dips(np.sort(2000.0 - s.omega), s.values[::-1])
        assert mirrored == pytest.approx(2000.0 - _prominent_dips(s.omega, s.values)[::-1], abs=1e-9)

    def test_device_resonant_spectrum_dip_half_separation(self):
        # independent oracle: bounded scalar minimization of the continuous
        # model on each side of the resonance
        p = SystemParams(**DEVICE)
        # minimize in offset coordinates: Brent's relative tolerance would
        # swamp the dip position at absolute energies of order 1e6
        upper, lower = (
            minimize_scalar(
                lambda d: measured_intensity(p, p.omega_c + d),
                bounds=bounds,
                method="bounded",
                options={"xatol": 1e-10},
            ).x
            for bounds in ((2.0, 30.0), (-30.0, -2.0))
        )
        dips = resonant_dips(p)
        half_separation = 0.5 * (dips[1] - dips[0])
        assert half_separation == pytest.approx(0.5 * (upper - lower), abs=1e-3)
        assert half_separation == pytest.approx(9.9628, abs=1e-3)
        # the dips sit outside the dressed states: half their separation
        # exceeds the coupling a full fit recovers
        assert half_separation > p.g

    def test_single_dip_reports_one(self):
        p = SystemParams(**{**DEVICE, "g": 0.0})
        assert resonant_dips(p, n=2001, half_span=100.0).size == 1

    def test_noisy_scan_tracks_clean_estimates(self):
        # 1% multiplicative noise puts hundreds of strict minima in each
        # spectrum; the two most prominent stay the two dips. Over seeds
        # 0-39 the worst deviation of a scan's dip separations from the
        # clean ones was 8-18%, and the two deepest minima gave 0.2-2.6 ueV
        # instead of 20-24.
        p = SystemParams(**DEVICE)
        model = TuningModel(-10.0, -3.0, p.omega_c + 14.0, p.omega_c, 19.0)
        scan = synthesize_scan(p, model, np.linspace(19.0, 23.0, 17), grid_around(p.omega_c, 100.0, 2001))
        rng = np.random.default_rng(0)
        noisy = replace(scan, spectra=tuple(
            Spectrum(s.omega, s.values * (1 + 0.01 * rng.standard_normal(len(s)))) for s in scan.spectra
        ))
        assert all(_strict_minima(s.values).size > 100 for s in noisy.spectra)
        for (_, clean), (_, dips) in zip(scan_dip_positions(scan), scan_dip_positions(noisy)):
            assert dips[1] - dips[0] == pytest.approx(clean[1] - clean[0], rel=0.2)
        assert anticrossing_gap(noisy) == pytest.approx(anticrossing_gap(scan), rel=0.2)


class TestProminence:
    def test_matches_scipy(self):
        rng = np.random.default_rng(10)
        cases = []
        for trial in range(200):
            n = int(rng.integers(3, 400))
            # integer samples exercise ties, which the walk passes over
            cases.append(rng.integers(0, 5, n).astype(float) if trial % 2 else rng.standard_normal(n))
        # 1%-noise reflectivity spectra at the sizes dip tracking meets
        p = SystemParams(**DEVICE)
        for n in (2001, 24001):
            values = measured_intensity(p, grid_around(p.omega_c, 100.0, n))
            cases.append(values * (1 + 0.01 * rng.standard_normal(n)))
        assert _strict_minima(cases[-1]).size > 7000
        for values in cases:
            i = _strict_minima(values)
            assert np.array_equal(_prominences(values, i), peak_prominences(-values, i)[0])

    @pytest.mark.parametrize("overrides", [{}, {"background": "0.5", "background_phase": "0.8"}],
                             ids=["defaults", "scan_bg"])
    def test_cli_scans_compute_no_prominence(self, overrides, monkeypatch):
        # the scans `scan` writes have at most two strict minima per
        # spectrum, so dip tracking keeps them without a prominence
        cfg = RunConfig(None, overrides)
        model = TuningModel(cfg.qd_slope, cfg.cavity_slope, cfg.qd_ref, cfg.cavity_ref, cfg.t_ref,
                            cfg.t_min, cfg.t_max)
        scan = synthesize_scan(cfg.system_params(), model, cfg.temperatures, cfg.grid, cfg.background_model())
        assert all(_strict_minima(s.values).size <= 2 for s in scan.spectra)

        def refuse(values, i):
            raise AssertionError("prominence computed")

        monkeypatch.setattr(tuning, "_prominences", refuse)
        assert len(scan_dip_positions(scan)) == len(cfg.temperatures)


def _local_minima_loop(omega, values):
    """Reference: the per-point loop that ``_strict_minima`` and
    ``_vertices`` vectorize."""
    omega = np.asarray(omega, dtype=float)
    values = np.asarray(values, dtype=float)
    out = []
    for i in range(1, values.size - 1):
        if values[i] < values[i - 1] and values[i] < values[i + 1]:
            x0, x1, x2 = omega[i - 1 : i + 2]
            y0, y1, y2 = values[i - 1 : i + 2]
            num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
            den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
            if den == 0:
                out.append(float(x1))
                continue
            out.append(float(x1 - 0.5 * num / den))
    return out


class TestLocalMinima:
    def test_matches_reference_loop(self):
        rng = np.random.default_rng(5)
        p = SystemParams(**DEVICE)
        model = TuningModel(-10.0, -3.0, p.omega_c + 14.0, p.omega_c, 19.0)
        scan = synthesize_scan(p, model, np.linspace(19.0, 23.0, 17), grid_around(p.omega_c, 100.0, 2001))
        cases = [(s.omega, s.values) for s in scan.spectra]
        cases += [(s.omega, s.values * (1.0 + 0.01 * rng.standard_normal(len(s)))) for s in scan.spectra]
        cases += [(np.arange(n, dtype=float), rng.standard_normal(n)) for n in range(4)]
        cases += [(np.arange(200.0), rng.integers(0, 4, 200).astype(float))]  # ties and plateaus
        cases += [([0.0, 0.0, 0.0], [1.0, 0.0, 1.0])]  # zero denominator
        with_nan = scan.spectra[8].values.copy()
        with_nan[[0, 990, 1000, 1500]] = np.nan
        cases += [(scan.spectra[8].omega, with_nan)]
        for omega, values in cases:
            omega, values = np.asarray(omega, dtype=float), np.asarray(values, dtype=float)
            assert _vertices(omega, values, _strict_minima(values)).tolist() == _local_minima_loop(omega, values)
        assert _vertices(np.zeros(3), np.array([1.0, 0.0, 1.0]), np.array([1])).tolist() == [0.0]

    @pytest.mark.parametrize(
        "omega, values",
        [
            ([0.0, 1.0, 2.0], [np.inf, 0.0, np.inf]),
            ([0.0, 1.0, 2.0], [1.0, -np.inf, 2.0]),
            ([-np.inf, 0.0, 1.0], [1.0, 0.0, 2.0]),
            ([0.0, 1.0, np.inf], [1.0, 0.0, np.inf]),
            ([-1e200, 0.0, 1.0], [1.0, 0.0, 2.0]),  # a * a overflows, b * b does not
            ([0.0, 1e200, 3e200], [1e200, 0.0, 1e300]),  # both overflow
            ([0.0, 1e-170, 3e-170], [1.0, 0.0, 2.0]),  # both underflow to zero
        ],
        ids=["inf_both_sides", "minus_inf_dip", "minus_inf_omega", "inf_right", "one_square_overflows",
             "both_squares_overflow", "squares_underflow"],
    )
    def test_non_finite_and_overflowing_match_reference_loop(self, omega, values):
        omega, values = np.array(omega), np.array(values)
        with np.errstate(all="ignore"):
            expected = _local_minima_loop(omega, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _vertices(omega, values, _strict_minima(values))
        assert got.dtype == np.float64 and len(expected) > 0
        np.testing.assert_array_equal(got, expected)

    def test_no_index_gives_empty_float_array(self):
        got = _vertices(np.arange(5.0), np.arange(5.0), np.array([], dtype=np.intp))
        assert got.shape == (0,) and got.dtype == np.float64

    def test_quadratic_vertex_recovered(self):
        grid = np.linspace(0.0, 10.0, 41)
        values = (grid - 4.3) ** 2
        i = _strict_minima(values)
        assert i.size == 1
        assert _vertices(grid, values, i)[0] == pytest.approx(4.3, abs=1e-9)

    def test_no_interior_minimum(self):
        assert _strict_minima(np.linspace(0.0, 1.0, 11)).size == 0
