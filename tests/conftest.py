import numpy as np
import pytest
from hypothesis import settings

from coldstart_explore.core import (
    AllocationConfig,
    BucketSchema,
    ItemRecord,
    geometric_schema,
)
from coldstart_explore.model import DiscoverabilityModel, TrainingMeta

# Selected with --hypothesis-profile=ci: many more examples, drawn in the same
# order on every run, so a run that passes once passes again.
settings.register_profile("ci", max_examples=2000, derandomize=True, database=None)


@pytest.fixture
def schema() -> BucketSchema:
    return geometric_schema()


@pytest.fixture
def config(schema) -> AllocationConfig:
    return AllocationConfig(
        total_budget=200_000,
        max_cost=2500.0,
        min_cap=100,
        max_cap=1600,
        cf_high=0.6,
        cf_low=0.2,
        low_region_fraction=0.1,
    )


def make_model(
    schema: BucketSchema,
    feature_weights,
    bucket_weights,
    bias: float = 0.0,
) -> DiscoverabilityModel:
    """Hand-built model for tests; no training involved."""
    weights = np.concatenate(
        [np.asarray(feature_weights, float), np.asarray(bucket_weights, float)]
    )
    assert len(bucket_weights) == schema.n_buckets
    return DiscoverabilityModel(
        weights=weights,
        bias=bias,
        schema=schema,
        meta=TrainingMeta(
            epochs=0,
            final_loss=0.0,
            bucket_examples=(0,) * schema.n_buckets,
            bucket_positives=(0,) * schema.n_buckets,
        ),
    )


def make_record(item_id: str, features) -> ItemRecord:
    return ItemRecord(id=item_id, features=np.asarray(features, float))
