import os
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from photoninject import devices, profiles
from photoninject.errors import FormatError, ProfileNotFoundError


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
        # a LookupError, as a dict's KeyError is
        with pytest.raises(LookupError,
                           match="^unknown diode 'green-520'") as err:
            profiles.get_diode("green-520")
        assert type(err.value) is ProfileNotFoundError
        assert err.value.kind == "diode"

    def test_unknown_mic(self):
        with pytest.raises(ProfileNotFoundError, match="^unknown microphone "
                                                       "'studio-condenser'") as err:
            profiles.get_mic("studio-condenser")
        assert err.value.kind == "microphone"


# kind -> (lookup function, packaged names)
LOOKUPS = {
    "device": (devices.lookup_device,
               [d.name for d in devices.load_devices()]),
    "diode": (profiles.get_diode,
              [p.name for p in profiles.load_diodes().values()]),
    "microphone": (profiles.get_mic,
                   [p.name for p in profiles.load_mics().values()]),
}
blanks = st.text(alphabet=" \t", max_size=3)


@settings(deadline=None)
@given(st.sampled_from(sorted(LOOKUPS)), st.data(), blanks, blanks,
       st.text(max_size=20))
def test_lookup_ignores_case_and_blanks_and_nothing_else(kind, data, before,
                                                         after, other):
    lookup, names = LOOKUPS[kind]
    name = data.draw(st.sampled_from(names))
    flips = data.draw(st.lists(st.booleans(), min_size=len(name),
                               max_size=len(name)))
    query = "".join(c.swapcase() if flip else c for c, flip in zip(name, flips))
    assert lookup(before + query + after).name == name
    assume(other.strip().lower() not in {n.lower() for n in names})
    with pytest.raises(ProfileNotFoundError) as err:
        lookup(other)
    assert (err.value.kind, err.value.name) == (kind, other)
    assert str(err.value).startswith(f"unknown {kind} {other!r}")


class TestProfileDirOverride:
    def test_env_var_redirects_loading(self, tmp_path, monkeypatch):
        (tmp_path / "diodes.csv").write_text(
            "name,i_th_ma,slope_mw_per_ma,i_max_ma,wavelength_nm\n"
            "custom-405,15.0,0.5,120.0,405.0\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        diodes = profiles.load_diodes()
        assert list(diodes) == ["custom-405"]
        assert profiles.get_diode("custom-405").wavelength_nm == 405.0

    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch):
        packaged = devices.load_devices()
        with open(os.path.join(profiles._DATA_DIR, "devices.csv"), "rb") as fh:
            data = fh.read()
        (tmp_path / "devices.csv").write_bytes(b"\xef\xbb\xbf" + data)
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        assert devices.load_devices() == packaged

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
                           match="devices.csv:2: missing column 'port_count'"):
            devices.load_devices()


DEVICE_HEADER = ("name,backend,category,requires_auth,min_power_mw,"
                 "port_diameter_m,port_count,wake_word\n")
DIODE_HEADER = "name,i_th_ma,slope_mw_per_ma,i_max_ma,wavelength_nm\n"


class TestBadValues:
    @pytest.mark.parametrize("row, message", [
        ("Lab,Alexa,speaker,no,0.5,0.001,three,alexa",
         "devices.csv:4: bad integer for column 'port_count': 'three'"),
        ("Lab,Alexa,speaker,no,0.5,0.001,2.5,alexa",
         "devices.csv:4: bad integer for column 'port_count': '2.5'"),
        ("Lab,Alexa,speaker,no,nan,0.001,2,alexa",
         "devices.csv:4: bad number for column 'min_power_mw': 'nan'"),
        ("Lab,Alexa,speaker,no,0.5,inf,2,alexa",
         "devices.csv:4: bad number for column 'port_diameter_m': 'inf'"),
        ("Lab,Alexa,speaker,no,-1,0.001,2,alexa",
         "devices.csv:4: min_power_mw must be positive"),
        ("Lab,Alexa,speaker,maybe,0.5,0.001,2,alexa",
         "devices.csv:4: bad boolean 'maybe'"),
        # a short row: the header has the column, the row stops before it
        ("Lab,Alexa,speaker,no,9",
         "devices.csv:4: missing column 'port_diameter_m'"),
    ])
    def test_device_row_errors_name_file_and_line(self, tmp_path, monkeypatch,
                                                  row, message):
        # line 4 of the file: the comment and blank line are still counted
        (tmp_path / "devices.csv").write_text(
            "# lab devices\n" + DEVICE_HEADER + "\n" + row + "\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        with pytest.raises(FormatError, match=re.escape(message)):
            devices.load_devices()

    @pytest.mark.parametrize("value", ["blue", "nan", "-inf", "1e999"])
    def test_diode_number_errors(self, tmp_path, monkeypatch, value):
        (tmp_path / "diodes.csv").write_text(
            DIODE_HEADER + "ok,15.0,0.5,120.0,405.0\n"
            f"bad,15.0,{value},120.0,405.0\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        with pytest.raises(FormatError, match=re.escape(
                f"diodes.csv:3: bad number for column 'slope_mw_per_ma': "
                f"{value!r}")):
            profiles.get_diode("ok")

    @pytest.mark.parametrize("second, shown", [("lab", "lab"),
                                               (" LAB ", "LAB")])
    def test_duplicate_name_names_file_and_line(self, tmp_path, monkeypatch,
                                                second, shown):
        (tmp_path / "diodes.csv").write_text(
            DIODE_HEADER + "lab,15.0,0.5,120.0,405.0\n"
            f"{second},15.0,0.5,120.0,505.0\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        with pytest.raises(FormatError, match=re.escape(
                f"diodes.csv:3: duplicate name {shown!r}")):
            profiles.get_diode("lab")

    def test_mic_constructor_error_names_file_and_line(self, tmp_path,
                                                       monkeypatch):
        (tmp_path / "mics.csv").write_text(
            "name,responsivity,band_low_hz,band_high_hz,saturation_mw,"
            "noise_rms\n"
            "# band upside down\n"
            "lab,1.0,22000.0,10.0,1.0,0.0\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        with pytest.raises(FormatError,
                           match=re.escape(
                               "mics.csv:3: band_high_hz must be finite and "
                               "above band_low_hz (22000.0), got 10.0")):
            profiles.load_mics()


class TestParsedTableMemo:
    def test_same_size_rewrite_is_picked_up(self, tmp_path, monkeypatch):
        path = tmp_path / "diodes.csv"
        path.write_text(DIODE_HEADER + "lab,15.0,0.5,120.0,405.0\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        assert profiles.get_diode("lab").wavelength_nm == 405.0
        size = path.stat().st_size
        path.write_text(DIODE_HEADER + "lab,15.0,0.5,120.0,505.0\n")
        assert path.stat().st_size == size
        assert profiles.get_diode("lab").wavelength_nm == 505.0

    def test_packaged_tables_are_read_once(self, tmp_path, monkeypatch):
        profiles.get_diode("blue-450")
        devices.lookup_device("Google Home")
        opened = []
        os_open = os.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return os_open(file, *args, **kwargs)

        # every text file is read through os.open (profiles._read_utf8)
        monkeypatch.setattr(os, "open", spy)
        assert profiles.get_diode("blue-450").wavelength_nm == 450.0
        assert devices.lookup_device("Google Home").name == "Google Home"
        assert opened == []
        (tmp_path / "diodes.csv").write_text(
            DIODE_HEADER + "lab,15.0,0.5,120.0,405.0\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(tmp_path))
        for _ in range(2):
            assert profiles.get_diode("lab").wavelength_nm == 405.0
        assert opened == [str(tmp_path / "diodes.csv")] * 2

    def test_mutating_a_result_does_not_leak(self):
        diodes = profiles.load_diodes()
        diodes.clear()
        found = devices.load_devices()
        found.pop()
        assert "blue-450" in profiles.load_diodes()
        assert len(devices.load_devices()) == 18

    def test_failed_parse_is_not_remembered(self, tmp_path, monkeypatch):
        bad, good = tmp_path / "bad", tmp_path / "good"
        bad.mkdir()
        good.mkdir()
        (bad / "diodes.csv").write_text(DIODE_HEADER + "x,1,nan,9,405\n")
        (good / "diodes.csv").write_text(DIODE_HEADER + "x,1,0.5,9,405\n")
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(bad))
        for _ in range(2):
            with pytest.raises(FormatError, match="bad number"):
                profiles.load_diodes()
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(good))
        assert profiles.get_diode("x").slope_mw_per_ma == 0.5
        monkeypatch.setenv(profiles.PROFILE_DIR_ENV, str(bad))
        with pytest.raises(FormatError, match="bad number"):
            profiles.load_diodes()

    def test_device_rows_stay_raw(self):
        rows = profiles.device_rows()
        assert len(rows) == 18
        assert rows[0]["name"] == "Google Home"
        assert rows[0]["min_power_mw"] == "0.5"
