import csv
import hashlib
import json
import math
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coldstart_explore.cli import main
from coldstart_explore.core import (
    DEFAULT_ALLOCATION,
    EngagementStats,
    Region,
    config_from_dict,
    geometric_schema,
    read_json,
    save_corpus,
    write_json,
)
from coldstart_explore import allocator, metrics, simulator
from coldstart_explore.model import (
    Hyperparams,
    TrainingSet,
    load_examples,
    load_model,
    predict,
    predict_curves,
    save_examples,
    save_model,
    train,
)
from conftest import make_record
from per_item import load_corpus, save_latents
from test_model import (
    members_of,
    npy_bytes,
    rows_of,
    separable_examples,
    simulated_examples,
    write_members,
)


def run(*argv) -> int:
    return main(list(argv))


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


@pytest.fixture
def trained_model_file(tmp_path):
    examples = separable_examples(n=120, dim=4)
    model = train(examples, geometric_schema())
    path = tmp_path / "fixture_model.json"
    save_model(model, path)
    return path


@pytest.fixture
def examples_file(tmp_path):
    path = tmp_path / "train.npz"
    save_examples(separable_examples(n=120, dim=4), path)
    return path


def with_row(examples_file, features, bucket, label):
    """The members of examples_file with one more row appended, unchecked."""
    members = members_of(load_examples(examples_file))
    row = {"features": [features], "bucket": [bucket], "label": [label]}
    return {name: np.concatenate([column, row[name]]) for name, column in members.items()}


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--items", "30", "--rounds", "2", "--seed", "7",
                   "--out-dir", str(out)) == 0
        corpus_lines = (out / "corpus.jsonl").read_text().splitlines()
        manifest = read_manifest(out)
        assert len(corpus_lines) == manifest["config"]["items_per_round"] * manifest["config"]["rounds"]
        assert manifest["root_seed"] == 7
        assert str(out / "corpus.jsonl") in manifest["outputs"]
        assert str(out / "latents.jsonl") in manifest["outputs"]

    def test_repeat_runs_byte_identical(self, tmp_path):
        outs = [tmp_path / f"run{k}" for k in range(2)]
        for out in outs:
            assert run("simulate", "--items", "25", "--seed", "3", "--out-dir", str(out)) == 0
        assert (outs[0] / "corpus.jsonl").read_bytes() == (outs[1] / "corpus.jsonl").read_bytes()
        assert (outs[0] / "latents.jsonl").read_bytes() == (outs[1] / "latents.jsonl").read_bytes()

    def test_feature_noise_out_of_float_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("simulate", "--items", "5", "--feature-noise", "1e308",
                   "--out-dir", str(out)) == 2
        assert "out of float range" in capsys.readouterr().err
        assert not (out / "corpus.jsonl").exists()

    def test_zero_items_is_config_error(self, tmp_path):
        assert run("simulate", "--items", "0", "--out-dir", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_noise_exits_2(self, tmp_path, value, capsys):
        out = tmp_path / "x"
        assert run("simulate", "--items", "5", f"--feature-noise={value}",
                   "--out-dir", str(out)) == 2
        assert "feature_noise must be a finite number" in capsys.readouterr().err
        assert not (out / "corpus.jsonl").exists()


class TestTrain:
    def test_trains_and_reports_accuracy(self, tmp_path, examples_file, capsys):
        out = tmp_path / "train_out"
        assert run("train", "--train-set", str(examples_file), "--out-dir", str(out)) == 0
        printed = capsys.readouterr().out
        assert "final loss" in printed
        model = load_model(out / "model.json")
        examples = load_examples(examples_file)
        accuracy = np.mean(
            [(predict(model, features, bucket) >= 0.5) == bool(label)
             for features, bucket, label in rows_of(examples)]
        )
        assert accuracy >= 0.95

    def test_single_class_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.npz"
        save_examples(TrainingSet(np.ones((4, 1)), [0] * 4, [1] * 4), path)
        assert run("train", "--train-set", str(path), "--out-dir", str(tmp_path / "o")) == 3
        assert "single-class" in capsys.readouterr().err

    def test_overflowing_feature_exits_3(self, tmp_path, examples_file, capsys):
        path = tmp_path / "bad.npz"
        write_members(path, **with_row(examples_file, [1.0, math.inf, 3.0, 4.0], 0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("train", "--train-set", str(path),
                       "--out-dir", str(tmp_path / "o")) == 3
        assert "non-finite feature in training example 120" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [("--epochs", "0"), ("--epochs", "-3")],
    )
    def test_bad_training_settings_exit_2(self, tmp_path, examples_file, flags, capsys):
        out = tmp_path / "o"
        assert run("train", "--train-set", str(examples_file), "--out-dir", str(out),
                   *flags) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_same_seed_gives_identical_model_files(self, tmp_path, examples_file):
        outs = [tmp_path / f"m{k}" for k in range(2)]
        for out in outs:
            assert run("train", "--train-set", str(examples_file), "--out-dir", str(out),
                       "--epochs", "100", "--seed", "5") == 0
        assert (outs[0] / "model.json").read_bytes() == (outs[1] / "model.json").read_bytes()


    def test_config_sets_the_schema(self, tmp_path, examples_file):
        config_path = tmp_path / "schema.json"
        edges = [0, 50, 150, 300, 600, 1200]  # as many buckets as the examples use
        config_path.write_text(json.dumps({"bucket_edges": edges, "max_cap": 2000}))
        out = tmp_path / "m"
        assert run("train", "--train-set", str(examples_file), "--config", str(config_path),
                   "--epochs", "20", "--out-dir", str(out)) == 0
        schema = load_model(out / "model.json").schema
        assert schema.edges == tuple(edges)
        assert schema.representative == (49, 149, 299, 599, 1199, 2000)
        assert read_manifest(out)["config"]["schema_edges"] == edges
        assert read_manifest(out)["config"]["schema_representatives"] == [
            49, 149, 299, 599, 1199, 2000
        ]

    def test_manifest_records_the_representatives(self, tmp_path, examples_file):
        # Two configs that differ only in their representatives train different
        # models, so their manifests differ too.
        edges = [0, 100, 200, 400, 800, 1600]
        configs = {
            "derived": {"bucket_edges": edges, "max_cap": 1600},
            "explicit": {
                "bucket_edges": edges,
                "max_cap": 1600,
                "bucket_representatives": [50, 150, 300, 600, 1200, 1600],
            },
        }
        manifests = {}
        for name, config in configs.items():
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(config))
            out = tmp_path / name
            assert run("train", "--train-set", str(examples_file), "--config",
                       str(config_path), "--epochs", "20", "--out-dir", str(out)) == 0
            manifests[name] = read_manifest(out)["config"]
            assert manifests[name]["schema_representatives"] == list(
                load_model(out / "model.json").schema.representative
            )
        assert manifests["derived"]["schema_edges"] == manifests["explicit"]["schema_edges"]
        assert manifests["derived"] != manifests["explicit"]


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--train-set", "t.jsonl", "--budget", "5"],
        ["simulate", "--config", "f.json"],
        ["eval", "--model", "m.json", "--examples", "e.jsonl", "--config", "f.json"],
    ],
    ids=["train-budget", "simulate-config", "eval-config"],
)
def test_flag_the_command_does_not_read_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--out-dir", str(tmp_path / "o"))
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["train", "--train-set", "t.jsonl"], ["experiment"]])
def test_learning_rate_flag_is_gone(tmp_path, command, capsys):
    # Newton's method computes its step, so no command takes a learning rate.
    with pytest.raises(SystemExit) as exc:
        run(*command, "--learning-rate", "0.05", "--out-dir", str(tmp_path / "o"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --learning-rate" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestAllocate:
    @pytest.fixture
    def corpus_file(self, tmp_path):
        # one static feature; engagement block is appended on load
        records = [make_record(f"i{k}", [x]) for k, x in enumerate([2.0, 0.0, -2.0])]
        path = tmp_path / "corpus.jsonl"
        save_corpus(records, path)
        return path

    @pytest.fixture
    def flat_model_file(self, tmp_path):
        # flat curves driven by the single static feature
        from conftest import make_model
        model = make_model(geometric_schema(), [2.0, 0.0, 0.0],
                           np.zeros(geometric_schema().n_buckets))
        path = tmp_path / "flat_model.json"
        save_model(model, path)
        return path

    def test_regions_in_plan(self, tmp_path, corpus_file, flat_model_file):
        out = tmp_path / "alloc"
        assert run("allocate", "--corpus", str(corpus_file), "--model", str(flat_model_file),
                   "--out-dir", str(out), "--budget", "5000", "--cf-high", "0.9",
                   "--cf-low", "0.2") == 0
        rows = (out / "plan.csv").read_text().splitlines()
        assert rows[0] == "item_id,region,granted,requested,p_at_maxcap"
        regions = {line.split(",")[0]: line.split(",")[1] for line in rows[1:]}
        assert regions == {"i0": "High", "i1": "Moderate", "i2": "Low"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["region_counts"]["High"] == 1

    def test_summary_counts_regions_before_funding(self, tmp_path, corpus_file,
                                                   flat_model_file):
        # The High item takes the whole 300-impression High/Moderate pool. The
        # Low item's share, the 100-impression Low pool, is under min_cap 300,
        # so it is deferred and shows as Unfunded.
        out = tmp_path / "classified"
        assert run("allocate", "--corpus", str(corpus_file), "--model", str(flat_model_file),
                   "--out-dir", str(out), "--budget", "400", "--low-fraction", "0.25",
                   "--cf-high", "0.9", "--cf-low", "0.2", "--min-cap", "300") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["region_counts"] == {"High": 1, "Unfunded": 2}
        assert summary["classified_counts"] == {"High": 1, "Low": 1, "Moderate": 1}

    def test_non_finite_corpus_feature_exits_3(self, tmp_path, flat_model_file, capsys):
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"id": "a", "features": [NaN], "impressions": 0, "positive_events": 0}\n'
        )
        assert run("allocate", "--corpus", str(path), "--model", str(flat_model_file),
                   "--out-dir", str(tmp_path / "n")) == 3
        assert "nan.jsonl:1" in capsys.readouterr().err

    def test_score_overflow_exits_3(self, tmp_path, capsys):
        # Finite features whose score overflows are refused, not funded with
        # a NaN p_at_maxcap, and no RuntimeWarning escapes.
        from conftest import make_model
        model_path = tmp_path / "model.json"
        save_model(make_model(geometric_schema(), [2.0, -2.0, 0.0, 0.0], np.zeros(6)), model_path)
        corpus = tmp_path / "huge.jsonl"
        save_corpus([make_record("a", [1.0, 1.0]), make_record("b", [1e308, 1e308])], corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("allocate", "--corpus", str(corpus), "--model", str(model_path),
                       "--out-dir", str(tmp_path / "o")) == 3
        assert "item b overflow" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "features", ["1.0", "[[1.0]]", "[[1.0], [1.0, 2.0]]", '"abc"'],
        ids=["scalar", "nested", "nested-ragged", "string"],
    )
    def test_corpus_features_not_a_flat_list_exit_3(self, tmp_path, flat_model_file,
                                                     features, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "features": [1.0], "impressions": 0, "positive_events": 0}\n'
            f'{{"id": "b", "features": {features}, "impressions": 0, "positive_events": 0}}\n'
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("allocate", "--corpus", str(path), "--model", str(flat_model_file),
                       "--out-dir", str(tmp_path / "n")) == 3
        assert "bad.jsonl:2: bad corpus record" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ('"id": "b", "features": [true]',
             "features must be a flat list of numbers; True is not one"),
            ('"id": "b", "features": ["1.5"]',
             "features must be a flat list of numbers; '1.5' is not one"),
            ('"id": 7, "features": [1.5]', "id must be a string, not 7"),
            ('"id": null, "features": [1.5]', "id must be a string, not None"),
            ('"id": "b", "features": [1.5, 2.0]', "feature dimension 2, earlier rows have 1"),
            # The decoder reads 1e400 as inf, which the corpus writer never writes.
            ('"id": "b", "features": [1e400]', "feature inf is not finite"),
        ],
        ids=["bool-feature", "string-feature", "number-id", "null-id", "feature-count",
             "overflowing-feature"],
    )
    def test_corpus_value_refused_instead_of_converted_exit_3(
        self, tmp_path, flat_model_file, row, message, capsys
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "features": [1.0], "impressions": 0, "positive_events": 0}\n'
            "{" + row + ', "impressions": 0, "positive_events": 0}\n'
        )
        assert run("allocate", "--corpus", str(path), "--model", str(flat_model_file),
                   "--out-dir", str(tmp_path / "n")) == 3
        assert f"bad.jsonl:2: bad corpus record: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "counts", ['"impressions": 10.7, "positive_events": 2', '"impressions": 10, '
                   '"positive_events": 2.9', '"impressions": -1, "positive_events": 0'],
        ids=["fractional-impressions", "fractional-positives", "negative"],
    )
    def test_corpus_count_not_a_non_negative_integer_exits_3(
        self, tmp_path, flat_model_file, counts, capsys
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "a", "features": [1.0], "impressions": 0, "positive_events": 0}\n'
            f'{{"id": "b", "features": [1.0], {counts}}}\n'
        )
        assert run("allocate", "--corpus", str(path), "--model", str(flat_model_file),
                   "--out-dir", str(tmp_path / "n")) == 3
        err = capsys.readouterr().err
        assert "bad.jsonl:2: bad corpus record" in err
        assert "must be a non-negative integer" in err

    @pytest.mark.parametrize("key", ["bucket_examples", "bucket_positives"])
    def test_model_file_without_bucket_support_exits_3(
        self, tmp_path, corpus_file, flat_model_file, key, capsys
    ):
        payload = read_json(flat_model_file)
        del payload["training_meta"][key]
        model_path = tmp_path / "old_model.json"
        model_path.write_text(json.dumps(payload))
        assert run("allocate", "--corpus", str(corpus_file), "--model", str(model_path),
                   "--out-dir", str(tmp_path / "m")) == 3
        assert f"bad model payload: '{key}'" in capsys.readouterr().err

    def test_zero_budget_unfunds_everything(self, tmp_path, corpus_file, flat_model_file):
        out = tmp_path / "zero"
        assert run("allocate", "--corpus", str(corpus_file), "--model", str(flat_model_file),
                   "--out-dir", str(out), "--budget", "0") == 0
        rows = (out / "plan.csv").read_text().splitlines()[1:]
        assert all(line.split(",")[1] == "Unfunded" for line in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_allocated"] == 0

    def test_empty_corpus_gives_an_empty_plan(self, tmp_path, flat_model_file):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("")
        out = tmp_path / "empty"
        assert run("allocate", "--corpus", str(corpus), "--model", str(flat_model_file),
                   "--out-dir", str(out)) == 0
        assert (out / "plan.csv").read_text() == (
            "item_id,region,granted,requested,p_at_maxcap\n"
        )
        summary_text = (out / "summary.json").read_text()
        assert '"total_cost": 0.0,' in summary_text
        summary = json.loads(summary_text)
        assert summary["items"] == summary["total_allocated"] == 0
        assert summary["region_counts"] == {}

    def test_growth_flags_recorded(self, tmp_path, corpus_file, flat_model_file):
        out = tmp_path / "growth"
        assert run("allocate", "--corpus", str(corpus_file), "--model", str(flat_model_file),
                   "--out-dir", str(out), "--item-growth", "2.0",
                   "--traffic-growth", "1.0") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["adapted_low_fraction"] == pytest.approx(0.05)

    def test_growth_flags_must_be_paired(self, tmp_path, corpus_file, flat_model_file):
        assert run("allocate", "--corpus", str(corpus_file), "--model", str(flat_model_file),
                   "--out-dir", str(tmp_path / "g"), "--item-growth", "2.0") == 2

    def test_flag_overrides_config_file_overrides_default(self, tmp_path, corpus_file,
                                                          flat_model_file):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"total_budget": 777, "cf_low": 0.15}))
        out = tmp_path / "prec"
        assert run("allocate", "--corpus", str(corpus_file), "--model", str(flat_model_file),
                   "--config", str(config_path), "--budget", "4242",
                   "--out-dir", str(out)) == 0
        manifest = read_manifest(out)
        assert manifest["config"]["total_budget"] == 4242  # flag wins
        assert manifest["config"]["cf_low"] == 0.15  # file beats default
        assert manifest["config"]["cf_high"] == 0.6  # built-in default
        assert str(config_path) not in manifest["inputs"]  # config echoed, not digested

    def test_unknown_config_file_key_exits_2(self, tmp_path, corpus_file, flat_model_file):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"budgett": 1}))
        assert run("allocate", "--corpus", str(corpus_file), "--model", str(flat_model_file),
                   "--config", str(config_path), "--out-dir", str(tmp_path / "u")) == 2

    @pytest.mark.parametrize(
        "text", ['{"total_budget": ', '{"max_cost": NaN}', '{"cf_low": -Infinity}',
                 '{"total_budget": "abc"}', '{"bucket_edges": 5}', '{"min_cap": 100.7}',
                 '{"total_budget": true}', '{"cf_high": "0.6"}'],
        ids=["malformed", "nan", "infinity", "string-budget", "scalar-edges",
             "fractional-cap", "boolean-budget", "string-cf"],
    )
    def test_bad_config_file_exits_2(self, tmp_path, corpus_file, flat_model_file, text,
                                     capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        out = tmp_path / "c"
        assert run("allocate", "--corpus", str(corpus_file), "--model", str(flat_model_file),
                   "--config", str(config_path), "--out-dir", str(out)) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "plan.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [("--max-cost", "nan"), ("--max-cost", "inf"), ("--unit-cost", "nan"),
         ("--unit-cost", "inf"), ("--item-growth", "nan", "--traffic-growth", "1"),
         ("--item-growth", "1", "--traffic-growth", "inf")],
    )
    def test_non_finite_allocation_flag_exits_2(self, tmp_path, corpus_file,
                                                flat_model_file, flags, capsys):
        out = tmp_path / "f"
        assert run("allocate", "--corpus", str(corpus_file), "--model", str(flat_model_file),
                   "--out-dir", str(out), *flags) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "plan.csv").exists()

    @pytest.mark.parametrize(
        "text", ['{"weights": [', '{"weights": [NaN], "bias": 0.0}'],
        ids=["malformed", "nan"],
    )
    def test_bad_model_file_exits_3(self, tmp_path, corpus_file, text, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(text)
        assert run("allocate", "--corpus", str(corpus_file), "--model", str(model_path),
                   "--out-dir", str(tmp_path / "m")) == 3
        assert "model.json: bad JSON document" in capsys.readouterr().err

    def test_missing_model_file_exits_3(self, tmp_path, corpus_file):
        assert run("allocate", "--corpus", str(corpus_file),
                   "--model", str(tmp_path / "nope.json"),
                   "--out-dir", str(tmp_path / "m")) == 3

    def test_bucket_support_in_train_manifest_and_allocate_summary(self, tmp_path,
                                                                   corpus_file):
        examples = tmp_path / "bucket1.npz"
        # One static feature and the engagement block, as corpus_file's items have.
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        features = np.column_stack([x, np.zeros(4), np.zeros(4)])
        save_examples(TrainingSet(features, [1] * 4, (x > 0).astype(int)), examples)
        trained = tmp_path / "trained"
        assert run("train", "--train-set", str(examples), "--out-dir", str(trained)) == 0
        manifest = read_manifest(trained)
        assert manifest["bucket_examples"] == [0, 4, 0, 0, 0, 0]
        assert manifest["bucket_positives"] == [0, 2, 0, 0, 0, 0]
        out = tmp_path / "alloc"
        assert run("allocate", "--corpus", str(corpus_file), "--model",
                   str(trained / "model.json"), "--out-dir", str(out)) == 0
        assert read_json(out / "summary.json")["untrained_buckets"] == [0, 2, 3, 4, 5]

    def test_repeat_runs_byte_identical(self, tmp_path, corpus_file, flat_model_file):
        outs = [tmp_path / f"a{k}" for k in range(2)]
        for out in outs:
            assert run("allocate", "--corpus", str(corpus_file),
                       "--model", str(flat_model_file), "--out-dir", str(out)) == 0
        for name in ("plan.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_no_flag_accepts_the_latent_truth_file(self, tmp_path, corpus_file, flat_model_file):
        # The allocation path must not be able to read ground truth.
        with pytest.raises(SystemExit):
            run("allocate", "--corpus", str(corpus_file), "--model", str(flat_model_file),
                "--latents", str(tmp_path / "latents.jsonl"),
                "--out-dir", str(tmp_path / "t"))

    def test_ten_item_fixture_matches_subset_enumeration(self, tmp_path):
        # High items whose curves cross cf_high at chosen buckets, so their
        # requested traffic is the bucket representative.
        from conftest import make_model
        schema = geometric_schema()
        model = make_model(schema, [1.0, 0.0, 0.0], np.arange(schema.n_buckets, dtype=float))
        buckets = [0, 1, 1, 2, 3, 0, 4, 2, 5, 3]
        records = [make_record(f"i{k:02d}", [2.5 - b]) for k, b in enumerate(buckets)]
        corpus_path = tmp_path / "ten.jsonl"
        model_path = tmp_path / "ten_model.json"
        save_corpus(records, corpus_path)
        save_model(model, model_path)
        out = tmp_path / "ten_out"
        budget = 2000
        assert run("allocate", "--corpus", str(corpus_path), "--model", str(model_path),
                   "--out-dir", str(out), "--budget", str(budget), "--cf-high", "0.9",
                   "--cf-low", "0.01", "--low-fraction", "0", "--max-cost", "1e9") == 0
        rows = (out / "plan.csv").read_text().splitlines()[1:]
        funded = sum(1 for line in rows if int(line.split(",")[2]) > 0)
        requests = [int(line.split(",")[3]) for line in rows]
        best = 0
        for mask in range(1 << len(requests)):
            total = sum(requests[i] for i in range(len(requests)) if mask >> i & 1)
            if total <= budget:
                best = max(best, bin(mask).count("1"))
        assert funded == best


class TestExperiment:
    def test_comparison_summary(self, tmp_path):
        out = tmp_path / "exp"
        assert run("experiment", "--items", "80", "--rounds", "2", "--seeds", "0:2",
                   "--strategies", "uniform,model,oracle", "--epochs", "150",
                   "--budget", "16000", "--out-dir", str(out)) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["seeds"] == [0, 1]
        assert set(comparison["total_discovered"]) == {"uniform", "model", "oracle"}
        assert "ordering_wins" in comparison
        for strategy in ("uniform", "model", "oracle"):
            for seed in (0, 1):
                assert (out / f"report_{strategy}_seed{seed}.json").exists()
                assert (out / f"report_{strategy}_seed{seed}.csv").exists()

    @pytest.mark.parametrize("seeds", ["5:3", ",", "abc", "1:x"])
    def test_bad_seeds_exit_2(self, tmp_path, seeds, capsys):
        out = tmp_path / "x"
        assert run("experiment", "--items", "20", "--rounds", "2", "--seeds", seeds,
                   "--out-dir", str(out)) == 2
        assert "--seeds" in capsys.readouterr().err
        assert not (out / "comparison.json").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--seeds", "1,1", "--seeds repeats 1"),
         ("--strategies", "uniform,oracle,uniform", "--strategies repeats 'uniform'"),
         ("--strategies", ",", "--strategies ',' names no strategy"),
         ("--strategies", "", "--strategies '' names no strategy")],
    )
    def test_repeated_seed_or_strategy_exits_2(self, tmp_path, flag, value, message,
                                               capsys):
        out = tmp_path / "x"
        assert run("experiment", "--items", "20", "--rounds", "2", flag, value,
                   "--out-dir", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not (out / "comparison.json").exists()

    def test_unknown_strategy_exits_2(self, tmp_path):
        assert run("experiment", "--strategies", "magic",
                   "--out-dir", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("flags", [("--epochs", "0")])
    def test_bad_training_settings_exit_2(self, tmp_path, flags):
        assert run("experiment", "--items", "20", "--rounds", "2",
                   "--out-dir", str(tmp_path / "x"), *flags) == 2

    def test_repeat_runs_byte_identical(self, tmp_path):
        outs = [tmp_path / f"e{k}" for k in range(2)]
        for out in outs:
            assert run("experiment", "--items", "60", "--rounds", "2", "--seeds", "0,1",
                       "--strategies", "uniform,model", "--epochs", "100",
                       "--budget", "12000", "--out-dir", str(out)) == 0
        names = [p.name for p in sorted(outs[0].iterdir()) if p.name != "manifest.json"]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestEval:
    def test_metrics_written(self, tmp_path, trained_model_file, examples_file):
        out = tmp_path / "eval"
        assert run("eval", "--model", str(trained_model_file),
                   "--examples", str(examples_file), "--out-dir", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.9 <= metrics["auc"] <= 1.0
        assert "pr_curve" not in metrics  # pr_curve.csv holds the curve
        curve = (out / "pr_curve.csv").read_text().splitlines()
        assert curve[0] == "recall,precision"
        assert len(curve) > 2

    def test_repeat_runs_byte_identical(self, tmp_path, trained_model_file, examples_file):
        outs = [tmp_path / f"v{k}" for k in range(2)]
        for out in outs:
            assert run("eval", "--model", str(trained_model_file),
                       "--examples", str(examples_file), "--out-dir", str(out)) == 0
        for name in ("metrics.json", "pr_curve.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.5"])
    def test_bad_threshold_exits_2(self, tmp_path, trained_model_file, examples_file,
                                   threshold, capsys):
        assert run("eval", "--model", str(trained_model_file), "--examples",
                   str(examples_file), "--threshold", threshold,
                   "--out-dir", str(tmp_path / "v")) == 2
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "make, message",
        [
            # Features one column short of what the model was trained on.
            (lambda f: {**members_of(load_examples(f)),
                        "features": load_examples(f).features[:, :3]}, "dimension"),
            (lambda f: with_row(f, [1.0, 2.0, 3.0, 4.0], 6, 1), "bucket"),
            (lambda f: with_row(f, [1.0, math.inf, 3.0, 4.0], 0, 1),
             "non-finite feature in training example 120"),
        ],
        ids=["ragged", "bucket-out-of-range", "overflowing-feature"],
    )
    def test_bad_example_file_exits_3(self, tmp_path, trained_model_file, examples_file,
                                      make, message, capsys):
        path = tmp_path / "bad.npz"
        write_members(path, **make(examples_file))
        assert run("eval", "--model", str(trained_model_file), "--examples", str(path),
                   "--out-dir", str(tmp_path / "v")) == 3
        assert message in capsys.readouterr().err

    def test_score_overflow_exits_3(self, tmp_path, capsys):
        # Finite features whose score overflows are refused, naming the row,
        # and no RuntimeWarning escapes.
        from conftest import make_model
        model_path = tmp_path / "model.json"
        save_model(make_model(geometric_schema(), [2.0, -2.0, 0.0, 0.0], np.zeros(6)), model_path)
        examples = tmp_path / "huge.npz"
        features = [[1.0, 1.0, 0.0, 0.0], [1e308, 1e308, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        save_examples(TrainingSet(np.array(features), [0, 1, 2], [0, 1, 0]), examples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("eval", "--model", str(model_path), "--examples", str(examples),
                       "--out-dir", str(tmp_path / "v")) == 3
        assert (
            "the features of training example 1 (counting from 0) overflow the model's score"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "v").exists()

    def test_batched_scores_match_predict(self, tmp_path, monkeypatch):
        examples = simulated_examples(items=1500, seed=12)
        model_path = tmp_path / "model.json"
        examples_path = tmp_path / "examples.npz"
        save_model(train(examples, geometric_schema(), Hyperparams(epochs=100)), model_path)
        save_examples(examples, examples_path)
        captured = {}
        report = metrics.metrics_report

        def capture(scored, labels, buckets, threshold=0.5):
            captured.update(scored=scored, labels=labels, buckets=buckets)
            return report(scored, labels, buckets, threshold)

        monkeypatch.setattr(metrics, "metrics_report", capture)
        assert run("eval", "--model", str(model_path), "--examples", str(examples_path),
                   "--out-dir", str(tmp_path / "v")) == 0
        fitted = load_model(model_path)
        loaded = load_examples(examples_path)
        batched = captured["scored"]
        scalar = np.array([
            predict(fitted, features, bucket) for features, bucket, _ in rows_of(loaded)
        ])
        assert np.array_equal(captured["labels"], loaded.label)
        assert np.array_equal(captured["buckets"], loaded.bucket)
        assert np.max(np.abs(batched - scalar)) <= 1e-15
        order = np.argsort(scalar, kind="stable")
        assert np.array_equal(np.argsort(batched, kind="stable"), order)
        assert np.array_equal(np.diff(batched[order]) == 0, np.diff(scalar[order]) == 0)


def reading(command, path, model_file):
    """The argv of train or eval reading the training-set file at path."""
    return {
        "train": ["train", "--train-set", str(path)],
        "eval": ["eval", "--model", str(model_file), "--examples", str(path)],
    }[command]


def object_rows(features):
    """Features as an object array of lists of two lengths."""
    rows = np.empty(len(features), dtype=object)
    rows[:] = [row[: 1 + k % 2].tolist() for k, row in enumerate(features)]
    return rows


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize(
    "change, message",
    [
        (lambda m: {**m, "features": m["features"].ravel()},
         "features must be a 2-D float64 array, not a 1-D float64 one"),
        (lambda m: {**m, "features": m["features"][:, :, None]},
         "features must be a 2-D float64 array, not a 3-D float64 one"),
        (lambda m: {**m, "features": object_rows(m["features"])},
         "bad .npz training set: Object arrays cannot be loaded when allow_pickle=False"),
        (lambda m: {**m, "features": m["features"][:-1]}, "columns differ in length"),
        (lambda m: {**m, "features": m["features"].astype(str)},
         "features must be a 2-D float64 array, not a 2-D <U32 one"),
        (lambda m: {**m, "label": np.append(m["label"][:-1], 2)},
         "label must be 0 or 1: training example 120 (counting from 0) has 2"),
        (lambda m: {**m, "label": np.append(m["label"][:-1], 0.7)},
         "label must be a 1-D int64 array, not a 1-D float64 one"),
        (lambda m: {**m, "bucket": np.append(m["bucket"][:-1], -1)},
         "bucket index must be a non-negative integer: training example 120 "
         "(counting from 0) has -1"),
        (lambda m: {**m, "bucket": np.append(m["bucket"][:-1], 2.5)},
         "bucket must be a 1-D int64 array, not a 1-D float64 one"),
    ],
    ids=["scalar", "nested", "nested-short", "ragged", "string", "label", "fractional-label",
         "negative-bucket", "fractional-bucket"],
)
def test_bad_training_set_row_exits_3_naming_the_line(
    tmp_path, trained_model_file, examples_file, command, change, message, capsys
):
    """The .npz form of each refusal a JSON-lines row used to meet. The message
    names the file, and the example (counting from 0) where one row is at
    fault, as the JSON-lines reader named `path:line`."""
    path = tmp_path / "bad.npz"
    write_members(path, **change(with_row(examples_file, [1.0, 2.0, 3.0, 4.0], 0, 1)))
    argv = reading(command, path, trained_model_file)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--out-dir", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert f"data error: {path}: {message}" in err


@pytest.mark.parametrize(
    "command, message",
    [("train", "empty training set"), ("eval", "no examples to evaluate")],
)
def test_empty_training_set_file_exits_3(tmp_path, trained_model_file, command, message,
                                         capsys):
    path = tmp_path / "empty.npz"
    save_examples(TrainingSet(np.empty((0, 4)), [], []), path)
    argv = reading(command, path, trained_model_file)
    assert run(*argv, "--out-dir", str(tmp_path / "o")) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize(
    "write, message",
    [
        (lambda path, good: path.write_bytes(b""), "not an .npz training set"),
        (lambda path, good: path.write_text('{"bucket": 0, "features": [1.0], "label": 1}\n'),
         "not an .npz training set; training sets are no longer read as JSON lines"),
        (lambda path, good: path.write_bytes(npy_bytes(np.ones((4, 2)))),
         "not an .npz training set"),
        (lambda path, good: path.write_bytes(good.read_bytes()[:-30]),
         "bad .npz training set"),
        (lambda path, good: write_members(path, features=np.ones((4, 2), dtype=object),
                                          bucket=np.zeros(4, int), label=np.arange(4) % 2),
         "bad .npz training set: Object arrays cannot be loaded"),
    ],
    ids=["empty-file", "json-lines", "npy", "truncated", "object-member"],
)
def test_unreadable_training_set_exits_3(tmp_path, trained_model_file, examples_file,
                                         command, write, message, capsys):
    path = tmp_path / "bad"
    write(path, examples_file)
    argv = reading(command, path, trained_model_file)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--out-dir", str(tmp_path / "o")) == 3
    assert f"data error: {path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_missing_training_set_exits_3(tmp_path, trained_model_file, command, capsys):
    path = tmp_path / "nope.npz"
    argv = reading(command, path, trained_model_file)
    assert run(*argv, "--out-dir", str(tmp_path / "o")) == 3
    assert "No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--train-set", "{dir}"], "Is a directory"),
        (["eval", "--model", "{model}", "--examples", "{dir}"], "Is a directory"),
        (["allocate", "--corpus", "{dir}", "--model", "{model}"], "Is a directory"),
        (["allocate", "--corpus", "{model}/x", "--model", "{model}"], "Not a directory"),
        (["simulate", "--items", "10", "--rounds", "1", "--out-dir", "{model}/o"],
         "Not a directory"),
        (["simulate", "--items", "10", "--rounds", "1", "--out-dir", "{model}"], "File exists"),
    ],
    ids=["train-set-dir", "examples-dir", "corpus-dir", "corpus-under-file",
         "out-dir-under-file", "out-dir-is-file"],
)
def test_path_of_the_wrong_kind_exits_3(tmp_path, trained_model_file, argv, message, capsys):
    argv = [a.format(dir=tmp_path, model=trained_model_file) for a in argv]
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path / "o")]
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: [Errno") and message in err


@pytest.fixture
def duplicate_id_corpus(tmp_path):
    path = tmp_path / "twice.jsonl"
    save_corpus([make_record("a", [0.0, 0.0, 0.0, 0.0])] * 2, path)
    return path


@pytest.fixture
def single_class_set(tmp_path):
    path = tmp_path / "one_class.npz"
    save_examples(TrainingSet(np.zeros((4, 4)), np.zeros(4, np.int64), np.ones(4, np.int64)), path)
    return path


@pytest.mark.parametrize(
    "argv, code",
    [
        (["allocate", "--corpus", "{tmp}/nope.jsonl", "--model", "{tmp}/nope.json"], 3),
        (["allocate", "--corpus", "{twice}", "--model", "{model}"], 3),
        (["allocate", "--corpus", "{twice}", "--model", "{model}", "--cf-low", "0.9"], 2),
        (["train", "--train-set", "{tmp}/nope.npz"], 3),
        (["train", "--train-set", "{one_class}"], 3),
        (["eval", "--model", "{model}", "--examples", "{tmp}/nope.npz"], 3),
        (["eval", "--model", "{model}", "--examples", "{one_class}", "--threshold", "2"], 2),
        (["simulate", "--items", "0"], 2),
        (["experiment", "--items", "0", "--rounds", "1"], 2),
        (["experiment", "--strategies", "greedy"], 2),
    ],
    ids=["allocate-missing-corpus", "allocate-duplicate-ids", "allocate-bad-config",
         "train-missing-set", "train-one-class", "eval-missing-set", "eval-bad-threshold",
         "simulate-bad-config", "experiment-bad-config", "experiment-unknown-strategy"],
)
def test_refused_command_leaves_no_out_dir(
    tmp_path, trained_model_file, duplicate_id_corpus, single_class_set, argv, code
):
    argv = [
        a.format(tmp=tmp_path, model=trained_model_file, twice=duplicate_id_corpus,
                 one_class=single_class_set)
        for a in argv
    ]
    out = tmp_path / "out" / "nested"
    assert run(*argv, "--out-dir", str(out)) == code
    assert not (tmp_path / "out").exists()
    # A directory that was there already is left as it was.
    out.mkdir(parents=True)
    (out / "kept.txt").write_text("kept")
    assert run(*argv, "--out-dir", str(out)) == code
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert (out / "kept.txt").read_text() == "kept"


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_every_command_once_outputs_read_back(tmp_path):
    """simulate, train, allocate, eval and experiment, each run once.

    Every JSON output is read back with core.read_json and every CSV output
    with csv; each manifest's digests match the files it names.
    """
    sim, trained, plan, scored, exp = (tmp_path / d for d in ("s", "t", "a", "e", "x"))
    assert run("simulate", "--items", "200", "--rounds", "1", "--out-dir", str(sim)) == 0
    # A training set from one uniform round served over the simulated files.
    records = load_corpus(sim / "corpus.jsonl")
    observations = simulator.serve_round(
        simulator.load_latents(sim / "latents.jsonl"),
        metrics.uniform_allocate(records, DEFAULT_ALLOCATION),
        simulator.SimConfig(items_per_round=200),
    )
    train_path = tmp_path / "train.npz"
    save_examples(
        simulator.build_training_set(observations, records, geometric_schema()), train_path
    )
    assert run("train", "--train-set", str(train_path), "--epochs", "50",
               "--out-dir", str(trained)) == 0
    model_path = trained / "model.json"
    assert run("allocate", "--corpus", str(sim / "corpus.jsonl"), "--model", str(model_path),
               "--budget", "20000", "--out-dir", str(plan)) == 0
    assert run("eval", "--model", str(model_path), "--examples", str(train_path),
               "--out-dir", str(scored)) == 0
    assert run("experiment", "--items", "60", "--rounds", "2", "--seeds", "0:2",
               "--epochs", "50", "--budget", "6000", "--out-dir", str(exp)) == 0

    for out in (sim, trained, plan, scored, exp):
        manifest = read_json(out / "manifest.json")
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, name

    # training_meta counts the Newton steps taken, at most the --epochs cap.
    assert 1 <= read_json(model_path)["training_meta"]["epochs"] <= 50
    assert read_json(trained / "manifest.json")["config"]["epochs"] == 50
    rows = read_csv(plan / "plan.csv")
    summary = read_json(plan / "summary.json")
    assert len(rows) == summary["items"] == 200
    assert sum(int(r["granted"]) for r in rows) == summary["total_allocated"]
    assert all((r["requested"] == "") == (r["region"] == "Low") for r in rows
               if r["region"] != "Unfunded")
    examples = load_examples(train_path)
    fitted = load_model(model_path)
    curves = predict_curves(fitted, examples.features)
    scores = curves[np.arange(len(examples)), examples.bucket]
    points, _ = metrics.pr_curve_and_auc(scores, examples.label)
    curve = read_csv(scored / "pr_curve.csv")
    assert [(float(c["recall"]), float(c["precision"])) for c in curve] == points
    comparison = read_json(exp / "comparison.json")
    for strategy in ("uniform", "model", "oracle"):
        for k, seed in enumerate((0, 1)):
            report = read_json(exp / f"report_{strategy}_seed{seed}.json")
            item_rows = read_csv(exp / f"report_{strategy}_seed{seed}.csv")
            assert report["total_discovered"] == comparison["total_discovered"][strategy][k]
            assert sum(int(r["discovered"]) for r in item_rows) == report["total_discovered"]


# ---------------------------------------------------------------------------
# simulate and allocate run on columns; the per-item path is their oracle.
# ---------------------------------------------------------------------------

def json_lines(rows) -> bytes:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode()


@pytest.mark.parametrize("rounds", [1, 3])
def test_simulate_writes_what_the_per_item_path_writes(tmp_path, rounds):
    out = tmp_path / "sim"
    assert run("simulate", "--items", "120", "--rounds", str(rounds), "--seed", "5",
               "--feature-dim", "3", "--out-dir", str(out)) == 0
    config = simulator.SimConfig(seed=5, items_per_round=120, rounds=rounds, feature_dim=3)
    latents, records = [], []
    for round_index in range(rounds):
        fresh_latents, fresh_records = simulator.generate_corpus(config, round_index)
        latents += fresh_latents
        records += fresh_records
    save_corpus(records, tmp_path / "corpus.jsonl")
    save_latents(latents, tmp_path / "latents.jsonl")
    corpus = (out / "corpus.jsonl").read_bytes()
    latent_truth = (out / "latents.jsonl").read_bytes()
    assert corpus == (tmp_path / "corpus.jsonl").read_bytes()
    assert latent_truth == (tmp_path / "latents.jsonl").read_bytes()
    assert corpus == json_lines(
        {"id": r.id, "features": r.features.tolist(), "impressions": 0, "positive_events": 0}
        for r in records
    )
    assert latent_truth == json_lines(
        {"id": lat.id, "quality": lat.quality, "engagement_prob": lat.engagement_prob,
         "threshold": None if math.isinf(lat.true_threshold) else lat.true_threshold}
        for lat in latents
    )
    assert any(math.isinf(lat.true_threshold) for lat in latents)


@pytest.fixture(scope="module")
def served_corpus(tmp_path_factory):
    """A corpus half of which was served once, and a model trained on that round."""
    tmp = tmp_path_factory.mktemp("served")
    sim = simulator.SimConfig(seed=4, items_per_round=1200)
    latents, records = simulator.generate_corpus(sim, 0)
    plan = metrics.uniform_allocate(records[::2], DEFAULT_ALLOCATION)
    observations = simulator.serve_round(latents, plan, sim, 0)
    schema = geometric_schema()
    save_model(train(simulator.build_training_set(observations, records, schema), schema),
               tmp / "model.json")
    served = {o.item_id: o for o in observations}
    records = [
        replace(r, engagement=EngagementStats(o.served, o.positive_events))
        if (o := served.get(r.id)) else r
        for r in records[::-1]  # the file need not be in id order
    ]
    save_corpus(records, tmp / "corpus.jsonl")
    return tmp / "corpus.jsonl", tmp / "model.json"


def per_item_allocation(corpus_path, model_path, config, growth, out):
    """plan.csv and summary.json as allocator.allocate's plan gives them."""
    fitted = load_model(model_path)
    plan = allocator.allocate(load_corpus(corpus_path), fitted, config, geometric_schema(),
                              growth)
    out.mkdir()
    with open(out / "plan.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item_id", "region", "granted", "requested", "p_at_maxcap"])
        for e in plan.entries:
            writer.writerow([e.item_id, e.region.value, e.granted, e.requested, e.p_at_maxcap])
    # Regions before funding, from each entry's curve value at MaxCap.
    classified = [
        "High" if e.p_at_maxcap > config.cf_high
        else "Low" if e.p_at_maxcap < config.cf_low
        else "Moderate"
        for e in plan.entries
    ]
    summary = {
        "items": len(plan.entries),
        "region_counts": dict(Counter(e.region.value for e in plan.entries)),
        "classified_counts": {r: classified.count(r) for r in ("High", "Moderate", "Low")},
        "total_allocated": plan.total_allocated,
        "total_cost": plan.total_cost,
        "budget": config.total_budget,
        "budget_utilization": plan.total_allocated / config.total_budget,
        "cost_utilization": plan.total_cost / config.max_cost,
        "untrained_buckets": list(fitted.meta.untrained_buckets),
    }
    if growth is not None:
        summary["adapted_low_fraction"] = allocator.adapt_low_fraction(
            config.low_region_fraction, growth
        )
    write_json(summary, out / "summary.json")
    return plan


@pytest.mark.parametrize(
    "flags, growth",
    [
        ([], None),
        (["--budget", "20000"], None),
        (["--low-fraction", "0.6", "--budget", "150000"], None),
        (["--max-cost", "400", "--low-fraction", "0.5", "--budget", "100000"], None),
        (["--low-fraction", "0.5", "--budget", "150000", "--item-growth", "2",
          "--traffic-growth", "1.5"], (2.0, 1.5)),
    ],
    ids=["default", "ties", "low-funded", "cost-ceiling", "growth"],
)
def test_allocate_writes_what_the_per_item_path_writes(
    tmp_path, served_corpus, flags, growth, monkeypatch, request
):
    corpus_path, model_path = served_corpus
    repairs = []
    drop = allocator._drop_for_cost
    monkeypatch.setattr(
        allocator, "_drop_for_cost", lambda *args: repairs.append(1) or drop(*args)
    )
    out = tmp_path / "columns"
    assert run("allocate", "--corpus", str(corpus_path), "--model", str(model_path),
               "--out-dir", str(out), *flags) == 0
    config, _ = config_from_dict(read_manifest(out)["config"])
    plan = per_item_allocation(
        corpus_path, model_path, config,
        None if growth is None else allocator.GrowthStats(*growth), tmp_path / "items",
    )
    for name in ("plan.csv", "summary.json"):
        assert (out / name).read_bytes() == (tmp_path / "items" / name).read_bytes(), name

    case = request.node.callspec.id
    summary = read_json(out / "summary.json")
    funded = [e for e in plan.entries if e.granted > 0]
    if case == "ties":
        # The pool runs out inside a group of equal requests: id breaks the tie.
        last = max(funded, key=lambda e: e.item_id)
        assert any(
            e.requested == last.requested and e.granted == 0 and e.region is not Region.LOW
            for e in plan.entries
        )
    if case in ("low-funded", "growth"):
        assert summary["region_counts"]["Low"] > 0
    if case == "cost-ceiling":
        assert len(repairs) == 2  # the ceiling binds on both paths
        assert summary["total_cost"] <= 400 < 0.01 * config.total_budget
    else:
        assert repairs == []
    if case == "growth":
        assert summary["adapted_low_fraction"] == 0.375
