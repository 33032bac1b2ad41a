import pytest
from hypothesis import given
from hypothesis import strategies as st

from sketchsim.core import (
    Algo,
    BudgetTooSmallError,
    JaccardEstimate,
    SketchParams,
    clamped_estimate,
    derive_width,
)


class TestDeriveWidth:
    def test_single_row_32bit_slots(self):
        assert derive_width(10240, 1, 4) == 2560

    def test_two_rows_64bit_slots(self):
        assert derive_width(10240, 2, 8) == 640

    def test_budget_too_small(self):
        with pytest.raises(BudgetTooSmallError):
            derive_width(4, 2, 4)

    def test_exact_fit(self):
        assert derive_width(8, 2, 4) == 1

    def test_truncates_partial_slot(self):
        assert derive_width(11, 1, 4) == 2

    @pytest.mark.parametrize("bad", [(0, 1, 4), (100, 0, 4), (100, 1, 0), (-8, 2, 4)])
    def test_rejects_nonpositive_arguments(self, bad):
        with pytest.raises(ValueError):
            derive_width(*bad)

    @given(
        memory=st.integers(min_value=1, max_value=1 << 30),
        rows=st.integers(min_value=1, max_value=64),
        slot=st.integers(min_value=1, max_value=32),
    )
    def test_never_exceeds_budget(self, memory, rows, slot):
        try:
            width = derive_width(memory, rows, slot)
        except BudgetTooSmallError:
            assert memory < rows * slot
            return
        assert width >= 1
        assert width * rows * slot <= memory
        # One more slot per row would not fit.
        assert (width + 1) * rows * slot > memory

    @given(
        memory=st.integers(min_value=1, max_value=1 << 24),
        extra=st.integers(min_value=0, max_value=1 << 24),
        rows=st.integers(min_value=1, max_value=16),
        slot=st.integers(min_value=1, max_value=16),
    )
    def test_monotone_in_memory(self, memory, extra, rows, slot):
        def width_or_zero(m):
            try:
                return derive_width(m, rows, slot)
            except BudgetTooSmallError:
                return 0

        assert width_or_zero(memory + extra) >= width_or_zero(memory)


class TestSketchParams:
    def test_frozen(self):
        p = SketchParams(rows=1, width=4, master_seed=0)
        with pytest.raises(AttributeError):
            p.rows = 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rows=0, width=4, master_seed=0),
            dict(rows=1, width=0, master_seed=0),
            dict(rows=1, width=8, master_seed=1.5),
        ],
    )
    def test_rejects_degenerate_geometry(self, kwargs):
        # A size below 1 is out of range; a seed that is not an integer
        # has the wrong type, and is refused here, not at the first insert.
        error = TypeError if isinstance(kwargs["master_seed"], float) else ValueError
        with pytest.raises(error):
            SketchParams(**kwargs)


class TestJaccardEstimate:
    def test_clamp_preserves_raw(self):
        est = clamped_estimate(1.25, Algo.CM)
        assert est.value == 1.0
        assert est.raw == 1.25
        assert est.algo is Algo.CM

    def test_clamp_below_zero(self):
        est = clamped_estimate(-0.5, Algo.COUNT)
        assert est.value == 0.0
        assert est.raw == -0.5

    def test_in_range_untouched(self):
        est = clamped_estimate(0.25, Algo.MINHASH)
        assert est.value == 0.25
        assert est.raw == 0.25

    def test_estimate_is_immutable(self):
        est = JaccardEstimate(value=0.5, raw=0.5, algo=Algo.HLL)
        with pytest.raises(AttributeError):
            est.value = 0.9

    def test_algo_values_are_stable_strings(self):
        assert Algo.CM.value == "cm"
        assert Algo.SALSA.value == "salsa"
        assert Algo.MAXLOGHASH.value == "maxloghash"
