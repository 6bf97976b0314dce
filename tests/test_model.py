import math

import pytest
from hypothesis import given, strategies as st

from mixlr.model import (
    Genotype,
    GenotypeSet,
    MassParams,
    ModelConfig,
    ParamBox,
    Peak,
    Profile,
    Proposition,
    degradation_factor,
    expected_heights,
    shift_allele,
)


def test_shift_allele():
    assert shift_allele("12", 1) == "13"
    assert shift_allele("12", -1) == "11"
    assert shift_allele("13.2", 1) == "14.2"
    assert shift_allele("A", 1) is None
    assert shift_allele("Q", -1) is None
    assert shift_allele("1", -1) is None  # would drop to zero


class TestValidation:
    @pytest.mark.parametrize("field", ["back_stutter", "forward_stutter", "degradation"])
    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_model_config_takes_booleans_only(self, field, value):
        with pytest.raises(TypeError, match=field):
            ModelConfig(**{field: value})

    def test_peak_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            Peak("A", 0.0)

    @pytest.mark.parametrize(
        "height, size", [(math.inf, None), (math.nan, None), (100.0, math.inf), (100.0, math.nan)]
    )
    def test_peak_rejects_non_finite_values(self, height, size):
        with pytest.raises(ValueError, match="finite"):
            Peak("A", height, size)

    @pytest.mark.parametrize(
        "box",
        [
            {"c2": -1.0},
            {"c2": 0.0},
            {"c2": math.nan},
            {"c2": math.inf},
            {"stutter_hi": 0.0},
            {"stutter_hi": 0.31},
            {"stutter_hi": math.nan},
            {"template_hi": math.inf},
            {"template_hi": math.nan},
        ],
    )
    def test_param_box_rejects_bad_values(self, box):
        with pytest.raises(ValueError, match=next(iter(box))):
            ParamBox(**box)

    def test_peak_rejects_q(self):
        with pytest.raises(ValueError):
            Peak("Q", 100.0)

    def test_profile_rejects_sub_threshold_peak(self):
        with pytest.raises(ValueError):
            Profile({"L": [Peak("A", 30.0)]}, analytical_threshold=50.0)

    def test_profile_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            Profile({"L": [Peak("A", 100.0), Peak("A", 200.0)]}, 50.0)

    def test_proposition_index_range(self):
        with pytest.raises(ValueError):
            Proposition(noc=1, fixed_contributors={1: {"L": Genotype("A", "A")}})

    def test_massparams_rejects_negative_template(self):
        with pytest.raises(ValueError):
            MassParams(templates=(-1.0,), variance_c2=12.0)

    @pytest.mark.parametrize(
        "templates, c2, field",
        [
            ((math.nan,), 12.0, "templates"),
            ((100.0, math.inf), 12.0, "templates"),
            ((-math.inf,), 12.0, "templates"),
            ((100.0,), math.inf, "variance_c2"),
            ((100.0,), math.nan, "variance_c2"),
        ],
    )
    def test_massparams_rejects_non_finite_values(self, templates, c2, field):
        with pytest.raises(ValueError, match=field):
            MassParams(templates=templates, variance_c2=c2)

    def test_massparams_rejects_bad_slope(self):
        with pytest.raises(ValueError):
            MassParams(templates=(100.0,), variance_c2=12.0, degradation_slope=1.5)

    def test_config_pins_neutral_values(self):
        cfg = ModelConfig()  # everything off
        with pytest.raises(ValueError):
            cfg.validate_params(
                MassParams(templates=(100.0,), variance_c2=12.0, bw_stutter_prop=0.1)
            )
        cfg.validate_params(MassParams(templates=(100.0,), variance_c2=12.0))


def test_genotype_is_unordered():
    assert Genotype("B", "A") == Genotype("A", "B")
    assert Genotype("A", "A").is_homozygote
    assert Genotype("A", "B").copies("A") == 1
    assert Genotype("A", "A").copies("A") == 2


def test_mixture_proportions():
    p = MassParams(templates=(750.0, 250.0), variance_c2=12.0)
    assert p.mixture_proportions == (0.75, 0.25)
    assert p.total_template == 1000.0
    zero = MassParams(templates=(0.0, 0.0), variance_c2=12.0)
    assert zero.mixture_proportions == (0.0, 0.0)


class TestExpectedHeights:
    def test_single_contributor(self):
        gs = GenotypeSet([Genotype("A", "B")])
        e = expected_heights(gs, MassParams((1075.0,), 12.0), "L", ["A", "B"])
        assert e == {"A": 1075.0, "B": 1075.0}

    def test_homozygote_doubles(self):
        gs = GenotypeSet([Genotype("A", "B"), Genotype("B", "B")])
        e = expected_heights(gs, MassParams((1025.0, 50.0), 12.0), "L", ["A", "B"])
        assert e["A"] == 1025.0
        assert e["B"] == 1025.0 + 2 * 50.0

    def test_all_zero_templates(self):
        gs = GenotypeSet([Genotype("A", "B")])
        e = expected_heights(gs, MassParams((0.0,), 12.0), "L", ["A", "B"])
        assert all(v == 0.0 for v in e.values())

    def test_back_and_forward_stutter(self):
        gs = GenotypeSet([Genotype("12", "13")])
        p = MassParams((1000.0,), 12.0, bw_stutter_prop=0.1, fw_stutter_prop=0.02)
        e = expected_heights(gs, p, "L", ["11", "12", "13", "14"])
        assert e["11"] == pytest.approx(0.1 * 1000.0)  # back stutter of 12
        assert e["12"] == pytest.approx(1000.0 + 0.1 * 1000.0)  # allele + stutter of 13
        assert e["13"] == pytest.approx(1000.0 + 0.02 * 1000.0)  # allele + forward of 12
        assert e["14"] == pytest.approx(0.02 * 1000.0)

    def test_degradation_scales_by_size(self):
        gs = GenotypeSet([Genotype("12", "12")])
        p = MassParams((500.0,), 12.0, degradation_slope=0.8)
        e = expected_heights(gs, p, "L", ["12"], sizes={"12": 300.0})
        assert e["12"] == pytest.approx(2 * 500.0 * 0.8**2.0)


def test_degradation_factor_neutral():
    assert degradation_factor(1.0, 500.0) == 1.0
    assert degradation_factor(0.7, None) == 1.0
    assert degradation_factor(0.7, 100.0) == pytest.approx(1.0)
    assert degradation_factor(0.7, 200.0) == pytest.approx(0.7)


@given(
    t=st.lists(st.floats(1.0, 5000.0), min_size=1, max_size=3),
    scale=st.floats(0.1, 10.0),
)
def test_expectation_linear_in_templates(t, scale):
    gs = GenotypeSet([Genotype("A", "B")] * len(t))
    base = expected_heights(gs, MassParams(tuple(t), 12.0), "L", ["A", "B"])
    scaled = expected_heights(
        gs, MassParams(tuple(x * scale for x in t), 12.0), "L", ["A", "B"]
    )
    for a in base:
        assert math.isclose(scaled[a], base[a] * scale, rel_tol=1e-12)


def test_contributor_permutation_invariance():
    g1, g2 = Genotype("A", "B"), Genotype("B", "B")
    e1 = expected_heights(
        GenotypeSet([g1, g2]), MassParams((800.0, 200.0), 12.0), "L", ["A", "B"]
    )
    e2 = expected_heights(
        GenotypeSet([g2, g1]), MassParams((200.0, 800.0), 12.0), "L", ["A", "B"]
    )
    assert e1 == e2
