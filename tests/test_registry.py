import pytest

from phonosim.errors import DataError, ParseError
from phonosim.registry import LanguageRecord, Registry, load_registry

EXPECTED_LOW_RESOURCE = {
    "pa", "hi", "az", "kk", "tk", "sah", "ti", "tig", "am", "ha", "mt",
}


class TestCommonVoiceRegistry:
    def test_loads_22_languages(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        assert len(reg) == 22

    def test_low_resource_flags_exhaustive(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        flagged = {r.code for r in reg if reg.is_low_resource(r.code)}
        assert flagged == EXPECTED_LOW_RESOURCE

    def test_hindi_is_low_resource(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        assert reg.get("hi").recording_hours == 14.71
        assert reg.is_low_resource("hi") is True

    def test_tatar_is_not_low_resource(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        assert reg.get("tt").recording_hours == 30.66
        assert reg.is_low_resource("tt") is False

    def test_turkic_members_excluding_sakha(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        members = reg.family_members("Turkic", exclude="sah")
        assert len(members) == 8
        assert all(r.family == "Turkic" and r.code != "sah" for r in members)

    def test_indo_iranian_has_six(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        assert len(reg.family_members("Indo-Iranian")) == 6

    def test_unknown_family_is_empty(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        assert reg.family_members("Uralic") == []

    def test_exclusion_equals_set_difference(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        for record in reg:
            full = reg.family_members(record.family)
            without = reg.family_members(record.family, exclude=record.code)
            assert [r.code for r in without] == [
                r.code for r in full if r.code != record.code]

    def test_iteration_sorted_by_code(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        assert list(reg.codes) == sorted(reg.codes)

    def test_branch_metadata_kept(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        assert reg.get("sah").branch == "Siberian"


class TestBoundary:
    def test_exactly_threshold_is_not_low_resource(self):
        reg = Registry([LanguageRecord("xx", "X", "F", None, 15.0)])
        assert reg.is_low_resource("xx") is False

    def test_just_below_threshold(self):
        reg = Registry([LanguageRecord("xx", "X", "F", None, 14.999)])
        assert reg.is_low_resource("xx") is True

    def test_custom_threshold(self):
        reg = Registry([LanguageRecord("xx", "X", "F", None, 15.0)],
                       low_resource_threshold_hours=20)
        assert reg.is_low_resource("xx") is True


class TestLoadErrors:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        assert len(load_registry(p)) == 0

    def test_header_only(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("code,name,family,branch,hours\n", encoding="utf-8")
        assert len(load_registry(p)) == 0

    def test_duplicate_code_names_code_and_line(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text(
            "code,name,family,branch,hours\n"
            "az,Azeri,Turkic,,0.33\n"
            "az,Azeri2,Turkic,,1.0\n",
            encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_registry(p)
        assert "az" in str(exc.value)
        assert exc.value.line == 3

    def test_bad_header(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("language,hours\nxx,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_registry(p)
        assert exc.value.line == 1

    def test_bad_hours(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("code,name,family,branch,hours\nxx,X,F,,many\n",
                     encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_registry(p)
        assert exc.value.line == 2

    def test_negative_hours(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("code,name,family,branch,hours\nxx,X,F,,-1\n",
                     encoding="utf-8")
        with pytest.raises(ParseError):
            load_registry(p)

    @pytest.mark.parametrize("hours", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_hours_name_the_line(self, tmp_path, hours):
        p = tmp_path / "reg.csv"
        p.write_text(f"code,name,family,branch,hours\nxx,X,F,,1\nyy,Y,F,,{hours}\n",
                     encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_registry(p)
        assert exc.value.line == 3
        assert "yy" in str(exc.value)

    @pytest.mark.parametrize("cell", ['"x,y"', "x y", '"x\ny"', "x\ty", '"""x"'])
    def test_code_with_comma_quote_or_space_names_the_line(self, tmp_path, cell):
        p = tmp_path / "reg.csv"
        p.write_text(f"code,name,family,branch,hours\nxx,X,F,,1\n{cell},Y,F,,2\n",
                     encoding="utf-8")
        with pytest.raises(ParseError, match=r"reg\.csv:3: language code .* "
                                             r"contains a comma, a double quote"):
            load_registry(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("code,name,family,branch,hours\nxx,X,F,1\n",
                     encoding="utf-8")
        with pytest.raises(ParseError):
            load_registry(p)

    def test_empty_branch_becomes_none(self, tmp_path):
        p = tmp_path / "reg.csv"
        p.write_text("code,name,family,branch,hours\nxx,X,F,,3\n",
                     encoding="utf-8")
        assert load_registry(p).get("xx").branch is None


class TestRegistryObject:
    def test_unknown_code_raises(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        with pytest.raises(DataError):
            reg.get("zz")
        with pytest.raises(DataError):
            reg.is_low_resource("zz")

    def test_duplicate_in_memory(self):
        records = [LanguageRecord("a", "A", "F", None, 1.0),
                   LanguageRecord("a", "A2", "F", None, 2.0)]
        with pytest.raises(DataError):
            Registry(records)

    @pytest.mark.parametrize("hours", [float("nan"), float("inf")])
    def test_non_finite_hours_in_memory(self, hours):
        with pytest.raises(DataError):
            Registry([LanguageRecord("a", "A", "F", None, hours)])

    @pytest.mark.parametrize("code", ["", "x,y", "x y", "x\ny", '"x'])
    def test_bad_code_in_memory(self, code):
        with pytest.raises(DataError):
            Registry([LanguageRecord(code, "A", "F", None, 1.0)])

    @pytest.mark.parametrize("code, hours, message", [
        ("x y", 1.0, "contains a comma"), ("a", float("nan"), "non-finite hours"),
        ("a", -1.0, "negative hours")])
    def test_record_checks_itself(self, code, hours, message):
        with pytest.raises(DataError, match=message):
            LanguageRecord(code, "A", "F", None, hours)

    def test_low_resource_codes_sorted(self, cv_registry_path):
        reg = load_registry(cv_registry_path)
        codes = reg.low_resource_codes()
        assert list(codes) == sorted(codes)
        assert set(codes) == EXPECTED_LOW_RESOURCE
