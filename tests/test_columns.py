"""The one column rule of every table (core.take_columns), and the value
refusals each table keeps beside it."""

import dataclasses
import inspect
import re

import numpy as np
import pytest

from coldstart_explore import allocator, cli, core, metrics, model, simulator
from coldstart_explore.core import (
    IDS,
    PLAN_REGIONS,
    AllocationConfig,
    AllocationPlan,
    Corpus,
    DataError,
    LatentColumns,
    PlanEntry,
    Region,
    verify_plan,
)
from coldstart_explore.metrics import MetricsReport
from coldstart_explore.model import TrainingSet
from coldstart_explore.simulator import ExperimentReport, Observations, write_report_csv


def observations(**changes):
    columns = dict(
        round_index=np.array([0, 1]), item_ids=("a", "b"), served=np.array([100, 200]),
        positive_events=np.array([1, 2]), discovered=np.array([False, True]),
    )
    return Observations(**{**columns, **changes})


def plan(ids=("a", "b"), region=np.array([0, 3]), granted=np.array([100, 0]),
         requested=np.array([100, -1]), p_at_maxcap=np.array([0.7, 0.1])):
    return AllocationPlan.of_columns(ids, region, granted, requested, p_at_maxcap, 100, 1.0)


#: Each table by the name its refusals give it: its type, a builder taking
#: columns by name, and valid columns of two rows for it. The report's ids are
#: its observations'.
TABLES = {
    "corpus": (
        Corpus, Corpus,
        dict(ids=("a", "b"), features=np.zeros((2, 1)), impressions=np.array([1, 2]),
             positive_events=np.array([0, 1])),
    ),
    "latent": (
        LatentColumns, LatentColumns,
        dict(ids=("a", "b"), quality=np.zeros(2), true_threshold=np.ones(2),
             engagement_prob=np.full(2, 0.5)),
    ),
    "plan": (
        AllocationPlan, plan,
        dict(ids=("a", "b"), region=np.array([0, 3]), granted=np.array([100, 0]),
             requested=np.array([100, -1]), p_at_maxcap=np.array([0.7, 0.1])),
    ),
    "observation": (
        Observations, observations,
        dict(round_index=np.array([0, 1]), item_ids=("a", "b"), served=np.array([100, 200]),
             positive_events=np.array([1, 2]), discovered=np.array([False, True])),
    ),
    "report": (
        ExperimentReport,
        lambda region: ExperimentReport("uniform", 0, (), observations(), region),
        dict(region=np.array([4, 3], dtype=np.int8)),
    ),
    "training set": (
        TrainingSet, TrainingSet,
        dict(features=np.ones((2, 1)), bucket=np.array([0, 1]), label=np.array([1, 0])),
    ),
    "PR curve": (
        MetricsReport,
        lambda **curve: MetricsReport(0.5, 0.5, (), **curve),
        dict(curve_recall=np.array([0.5, 1.0]), curve_precision=np.array([1.0, 0.5])),
    ),
}

#: An array of another kind than each declared kind.
OTHER_KIND = {"i": float, "f": np.int64, "b": np.int64}


def bad_columns():
    """(table, column, value) for each way a column can break the rule: a
    list, an array of another kind, one of another number of dimensions, and
    an id that is not a str."""
    for table, (cls, _, valid) in TABLES.items():
        for name, value in valid.items():
            column = cls.COLUMNS[name]
            if column is IDS:
                yield table, name, ("a", 7)
                continue
            yield table, name, value.tolist()
            yield table, name, value.astype(OTHER_KIND[np.dtype(column.dtype).kind])
            yield table, name, value[:, 0] if value.ndim == 2 else value[:, None]


class TestColumnRule:
    @pytest.mark.parametrize(
        "table, name, value", list(bad_columns()),
        ids=lambda v: v if isinstance(v, str) else type(v).__name__,
    )
    def test_every_table_refuses_a_bad_column_in_the_one_form(self, table, name, value):
        _, build, valid = TABLES[table]
        with pytest.raises(DataError) as refused:
            build(**{**valid, name: value})
        must = r"(a \d-D array of \w+'s kind|a sequence of str)"
        assert re.fullmatch(rf"{re.escape(table)} column {name} must be {must}, not .+",
                            str(refused.value))

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_valid_columns_kept_read_only(self, table):
        cls, build, valid = TABLES[table]
        built = build(**valid)
        for name, column in cls.COLUMNS.items():
            if column is not IDS:
                value = getattr(built, name)
                assert value.dtype == column.dtype and not value.flags.writeable

    def test_every_table_of_the_package_declares_its_columns(self):
        # A dataclass that holds an array is a table, which the rule takes,
        # or one of the per-item records and the model, which hold one vector.
        holders = {
            cls
            for module in (allocator, cli, core, metrics, model, simulator)
            for _, cls in inspect.getmembers(module, dataclasses.is_dataclass)
            if any(f.type == "np.ndarray" for f in dataclasses.fields(cls))
        }
        records = {core.ItemRecord, model.DiscoverabilityModel}
        assert holders - records == {cls for cls, _, _ in TABLES.values()}
        for cls, _, valid in TABLES.values():
            assert valid.keys() <= cls.COLUMNS.keys()

    def test_columns_of_unequal_length_refused(self):
        with pytest.raises(DataError, match="^plan columns differ in length: 2 ids, 1 region$"):
            plan(region=np.array([0]))


class TestRegionCodes:
    @pytest.mark.parametrize("code", [99, -1, len(PLAN_REGIONS), 355])
    def test_plan_code_outside_the_regions_refused_naming_the_item(self, code):
        # 355 would wrap to 99 in the int8 column.
        with pytest.raises(DataError) as refused:
            plan(region=np.array([0, code]))
        assert str(refused.value) == f"region code outside range({len(PLAN_REGIONS)}) for item b"

    def test_fractional_plan_region_refused_not_truncated(self):
        with pytest.raises(DataError, match="plan column region must be a 1-D array of int8's"):
            plan(region=np.array([0.0, 1.7]))

    def test_every_region_code_accepted(self):
        n = len(PLAN_REGIONS)
        built = plan(ids=[f"i{k}" for k in range(n)], region=np.arange(n),
                     granted=np.zeros(n, int), requested=np.zeros(n, int),
                     p_at_maxcap=np.zeros(n))
        assert built.region.dtype == np.int8
        assert [e.region for e in built.entries] == list(PLAN_REGIONS)

    @pytest.mark.parametrize("code", [99, -1, 355])
    def test_report_code_outside_the_regions_refused_naming_the_item(self, code):
        with pytest.raises(DataError) as refused:
            ExperimentReport("uniform", 0, (), observations(), np.array([code, 0]))
        assert str(refused.value) == f"region code outside range({len(PLAN_REGIONS)}) for item a"

    def test_refused_plan_never_reaches_verify_or_a_writer(self, tmp_path):
        # Built before, verify_plan passed it and its entries raised IndexError.
        config = AllocationConfig(100, 10.0, 100, 1600, 0.6, 0.2, 0.1)
        with pytest.raises(DataError, match="region code"):
            verify_plan(plan(region=np.array([99, 3])), config)
        with pytest.raises(DataError, match="region code"):
            write_report_csv(
                ExperimentReport("uniform", 0, (), observations(), np.array([99, 4])),
                tmp_path / "report.csv",
            )


class TestNoWrapNoBool:
    # The corpus's list holding a bool and uint64 2**63 count are cases of
    # test_core's test_count_column_not_integers_refused_naming_it.

    def test_training_label_list_holding_a_bool_refused(self):
        with pytest.raises(DataError, match="training set column bucket .*, not a list$"):
            TrainingSet(np.ones((2, 1)), [0, 0], [0, True])
        with pytest.raises(DataError, match="training set column label .*, not a list$"):
            TrainingSet(np.ones((2, 1)), np.zeros(2, int), [0, True])

    @pytest.mark.parametrize(
        "field, value", [("granted", True), ("requested", True), ("requested", 100.0)]
    )
    def test_plan_entry_of_a_non_int_refused(self, field, value):
        entry = dataclasses.replace(PlanEntry("a", Region.HIGH, 100, 100, 0.7), **{field: value})
        with pytest.raises(DataError) as refused:
            AllocationPlan([entry], 100, 1.0)
        assert str(refused.value) == f"{field} of item a must be an integer, not {value!r}"

    @pytest.mark.parametrize("grants", [[2**63], [2**63, -1], [2**64]])
    def test_plan_entry_past_int64_refused_for_its_kind(self, grants):
        # numpy makes the grants a uint64, float64 or object array, never int64.
        entries = [PlanEntry(f"i{k}", Region.HIGH, g) for k, g in enumerate(grants)]
        with pytest.raises(DataError, match="^plan column granted must be a 1-D array of int64's"):
            AllocationPlan(entries, 0, 0.0)

    def test_plan_of_no_entries_accepted(self):
        empty = AllocationPlan([], 0, 0.0)
        assert len(empty.ids) == 0 and empty.granted.dtype == np.int64


class TestIdsAreStrings:
    def test_plan_ids_must_be_strings(self):
        with pytest.raises(DataError) as refused:
            plan(ids=[1, "b"])
        assert str(refused.value) == "plan column ids must be a sequence of str, not row 0's 1"

    def test_observation_ids_must_be_strings(self):
        with pytest.raises(DataError) as refused:
            observations(item_ids=["a", 7])
        assert str(refused.value) == (
            "observation column item_ids must be a sequence of str, not row 1's 7"
        )

    def test_ids_that_are_no_sequence_refused(self):
        with pytest.raises(DataError, match="^plan column ids must be a sequence of str, not a"):
            plan(ids=5)

    def test_latent_2d_column_refused_with_data_error(self):
        # Once numpy's bare ValueError from the range tests.
        with pytest.raises(DataError) as refused:
            LatentColumns(("a", "b"), np.zeros((2, 2)), np.ones(2), np.full(2, 0.5))
        assert str(refused.value) == (
            "latent column quality must be a 1-D array of float64's kind, not a 2-D float64 array"
        )
