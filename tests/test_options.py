"""RecStepOptions validation tests (no Spark needed)."""
import pytest

from repro.core.options import RecStepOptions


class TestValidation:
    def test_defaults_all_on(self):
        o = RecStepOptions()
        assert o.uie and o.dsd and o.eost and o.fast_dedup
        assert o.oof == "oof" and not o.pbme

    def test_all_off(self):
        o = RecStepOptions.all_off()
        assert not (o.uie or o.dsd or o.eost or o.fast_dedup or o.pbme)
        assert o.oof == "na"

    def test_bad_oof_mode(self):
        with pytest.raises(ValueError, match="oof"):
            RecStepOptions(oof="full")

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError, match="alpha"):
            RecStepOptions(alpha=1.0)

    @pytest.mark.parametrize(
        "opt,field,value",
        [
            ("uie", "uie", False),
            ("oof", "oof", "na"),
            ("oof-fa", "oof", "fa"),
            ("dsd", "dsd", False),
            ("eost", "eost", False),
            ("fast_dedup", "fast_dedup", False),
        ],
    )
    def test_without(self, opt, field, value):
        o = RecStepOptions().without(opt)
        assert getattr(o, field) == value

    def test_without_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            RecStepOptions().without("pbme2")

    def test_frozen(self):
        with pytest.raises(Exception):
            RecStepOptions().uie = False
