import pytest

from photoninject import devices, profiles
from photoninject.errors import FormatError


class TestShippedProfiles:
    def test_diodes_load(self):
        diodes = profiles.load_diodes()
        assert {"blue-450", "red-638", "infrared-980"} <= {
            d.name for d in diodes.values()}

    def test_blue_parameters(self, blue):
        assert blue.max_current_ma == 300.0
        assert blue.wavelength_nm == 450.0
        # wide bench swing stays inside the linear region
        assert blue.threshold_ma <= 200.0 - 150.0 / 2

    def test_red_parameters(self, red):
        assert red.max_current_ma == 200.0
        assert red.threshold_ma <= 150.0 - 75.0 / 2

    def test_get_diode_case_insensitive(self):
        assert profiles.get_diode("BLUE-450").name == "blue-450"

    def test_unknown_diode(self):
        with pytest.raises(FormatError, match="unknown diode"):
            profiles.get_diode("green-520")

    def test_unknown_mic(self):
        with pytest.raises(FormatError, match="unknown micro"):
            profiles.get_mic("studio-condenser")


class TestProfileDirOverride:
    def test_env_var_redirects_loading(self, tmp_path, monkeypatch):
        (tmp_path / "diodes.csv").write_text(
            "name,i_th_ma,slope_mw_per_ma,i_max_ma,wavelength_nm\n"
            "custom-405,15.0,0.5,120.0,405.0\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        diodes = profiles.load_diodes()
        assert list(diodes) == ["custom-405"]
        assert profiles.get_diode("custom-405").wavelength_nm == 405.0

    def test_missing_override_file_is_a_format_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        with pytest.raises(FormatError, match="not found"):
            profiles.load_diodes()

    def test_comments_and_blank_lines_skipped(self, tmp_path, monkeypatch):
        (tmp_path / "mics.csv").write_text(
            "# comment line\n"
            "\n"
            "name,responsivity,band_low_hz,band_high_hz,saturation_mw,noise_rms\n"
            "# another comment\n"
            "lab,1.0,10.0,22000.0,1.0,0.0\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        assert profiles.get_mic("lab").band_high_hz == 22000.0

    def test_missing_device_column_is_a_format_error(self, tmp_path, monkeypatch):
        (tmp_path / "devices.csv").write_text(
            "name,backend,category,requires_auth,min_power_mw,"
            "port_diameter_m,wake_word\n"
            "Lab Speaker,Alexa,speaker,no,0.5,0.001,alexa\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        with pytest.raises(FormatError,
                           match="devices.csv: missing column 'port_count'"):
            devices.load_devices()
